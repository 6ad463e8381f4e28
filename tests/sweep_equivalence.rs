//! The incremental bound sweep must be indistinguishable from per-bound
//! scratch BMC: for every workload family, sweeping `k = 1..=K` inside one
//! solver (assumption frames over a horizon encoding) returns the same
//! verdict, at the same bound, with the same per-bound verdict sequence,
//! as re-encoding and solving each bound from scratch.

use zpre::{
    try_verify_portfolio_sweep, try_verify_sweep, verify_bmc, PortfolioOptions, ShareConfig,
    Strategy, VerifyOptions,
};
use zpre_prog::build::*;
use zpre_prog::MemoryModel;
use zpre_workloads::{suite, Scale, Subcat};

const HORIZON: u32 = 6;

/// Runs both drivers on `program` and checks frame-by-frame agreement.
fn assert_sweep_matches_scratch(
    name: &str,
    program: &zpre_prog::Program,
    unroll_bound: u32,
    mm: MemoryModel,
) {
    let opts = VerifyOptions {
        unroll_bound,
        max_bound: HORIZON,
        ..VerifyOptions::new(mm, Strategy::Zpre)
    };
    let scratch =
        verify_bmc(program, HORIZON, &opts).unwrap_or_else(|e| panic!("{name} {mm}: {e}"));
    let sweep = try_verify_sweep(program, &opts).unwrap_or_else(|e| panic!("{name} {mm}: {e}"));
    assert_eq!(
        sweep.verdict, scratch.verdict,
        "{name} {mm}: sweep verdict diverges from scratch BMC"
    );
    assert_eq!(
        sweep.bound, scratch.bound,
        "{name} {mm}: sweep decided at a different bound than scratch BMC"
    );
    // The per-bound verdict sequences agree frame by frame. A loop-free
    // program collapses to one frame on both sides; otherwise both drivers
    // stop at the same bound, so the sequences have equal length.
    assert_eq!(
        sweep.frames.len(),
        scratch.frames.len(),
        "{name} {mm}: sweep solved a different number of bounds"
    );
    for (f, s) in sweep.frames.iter().zip(&scratch.frames) {
        assert_eq!(f.bound, s.bound, "{name} {mm}: bound order diverged");
        assert_eq!(
            f.verdict, s.verdict,
            "{name} {mm}: bound {} verdict diverges from scratch",
            s.bound
        );
    }
}

/// Every family of the quick suite, under every memory model: the
/// acceptance bar from the issue ("incremental sweep k=1..6 verdicts
/// identical to per-bound scratch on every workload family").
#[test]
fn sweep_matches_scratch_on_every_family() {
    let tasks = suite(Scale::Quick);
    let mut seen: Vec<Subcat> = Vec::new();
    for task in &tasks {
        if !seen.contains(&task.subcat) {
            seen.push(task.subcat);
        }
        for mm in MemoryModel::ALL {
            assert_sweep_matches_scratch(&task.name, &task.program, task.unroll_bound, mm);
        }
    }
    assert_eq!(
        seen.len(),
        Subcat::ALL.len(),
        "quick suite no longer covers every family; the equivalence bar shrank"
    );
}

/// Loopy programs exercise the marker frames proper (the suite's stress and
/// wmm families are loop-free and collapse to one frame), including a bug
/// only reachable at `k* = 3` and a loop that stays safe at every bound.
#[test]
fn sweep_matches_scratch_on_loopy_programs() {
    let kstar3 = ProgramBuilder::new("kstar3")
        .shared("x", 0)
        .main(vec![
            while_(lt(v("x"), c(3)), vec![assign("x", add(v("x"), c(1)))]),
            assert_(ne(v("x"), c(3))),
        ])
        .build();
    let safe_loop = ProgramBuilder::new("safe-loop")
        .width(8)
        .shared("x", 0)
        .main(vec![
            while_(lt(v("x"), c(10)), vec![assign("x", add(v("x"), c(1)))]),
            assert_(le(v("x"), c(10))),
        ])
        .build();
    let threaded_loop = ProgramBuilder::new("threaded-loop")
        .shared("cnt", 0)
        .thread(
            "w",
            vec![while_(
                lt(v("cnt"), c(2)),
                vec![assign("cnt", add(v("cnt"), c(1)))],
            )],
        )
        .main(vec![spawn(1), join(1), assert_(ne(v("cnt"), c(2)))])
        .build();
    for (name, p) in [
        ("kstar3", &kstar3),
        ("safe-loop", &safe_loop),
        ("threaded-loop", &threaded_loop),
    ] {
        for mm in MemoryModel::ALL {
            assert_sweep_matches_scratch(name, p, HORIZON, mm);
        }
    }
}

/// A race of whole sweeps, asked to share, decides like one sweep on every
/// family of the quick suite under every memory model: same verdict, same
/// deciding bound, and no finished member dissents on either. Sweep members
/// get no share endpoint (DESIGN.md §6g), so nothing is exported.
#[test]
fn sharing_sweep_race_matches_single_sweep_on_every_family() {
    for task in &suite(Scale::Quick) {
        for mm in MemoryModel::ALL {
            let opts = VerifyOptions {
                unroll_bound: task.unroll_bound,
                max_bound: HORIZON,
                ..VerifyOptions::new(mm, Strategy::Zpre)
            };
            let name = &task.name;
            let single = try_verify_sweep(&task.program, &opts)
                .unwrap_or_else(|e| panic!("{name} {mm}: {e}"));
            let race = PortfolioOptions::new(opts).with_share(ShareConfig::default());
            let raced = try_verify_portfolio_sweep(&task.program, &race)
                .unwrap_or_else(|e| panic!("{name} {mm}: {e}"));
            assert_eq!(raced.verdict(), single.verdict, "{name} {mm}: verdict");
            assert_eq!(raced.outcome.bound, single.bound, "{name} {mm}: bound");
            // The race cross-checks every finished definitive member's
            // (verdict, bound) against the winner's and reports dissent.
            assert_eq!(raced.unknown_reason, None, "{name} {mm}: members disagree");
            assert!(
                raced.quarantined.is_empty(),
                "{name} {mm}: {:?}",
                raced.quarantined
            );
            assert_eq!(raced.outcome.stats.sh_exported, 0, "{name} {mm}: exports");
        }
    }
}
