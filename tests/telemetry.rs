//! Observability integration tests: the `zpre-obs` event stream must make
//! the paper's hypotheses *visible*, not just implemented.
//!
//! H1 says interference variables (`V_rf ∪ V_ws`) are decided before
//! everything else; here the traced decision stream itself is checked to
//! lead with interference classes. The NDJSON export must carry phase
//! spans for every pipeline stage so `--trace-out` files are useful for
//! postmortem profiling.

use zpre::prelude::*;
use zpre::{try_verify_sweep_full, verify_portfolio, PortfolioOptions, Strategy, VerifyOptions};
use zpre_obs::analyze::TraceStats;
use zpre_obs::{ndjson, Counter, EventKind, Phase, Recorder, TraceConfig, VarClass};

fn racy_counter(workers: usize) -> Program {
    let inc = vec![assign("r", v("cnt")), assign("cnt", add(v("r"), c(1)))];
    let mut b = ProgramBuilder::new("racy").shared("cnt", 0);
    for w in 0..workers {
        b = b.thread(&format!("w{w}"), inc.clone());
    }
    let mut main: Vec<Stmt> = (1..=workers).map(spawn).collect();
    main.extend((1..=workers).map(join));
    main.push(assert_(eq(v("cnt"), c(workers as u64))));
    b.main(main).build()
}

fn locked_counter(workers: usize) -> Program {
    let inc = vec![
        lock("m"),
        assign("r", v("cnt")),
        assign("cnt", add(v("r"), c(1))),
        unlock("m"),
    ];
    let mut b = ProgramBuilder::new("locked").shared("cnt", 0).mutex("m");
    for w in 0..workers {
        b = b.thread(&format!("w{w}"), inc.clone());
    }
    let mut main: Vec<Stmt> = (1..=workers).map(spawn).collect();
    main.extend((1..=workers).map(join));
    main.push(assert_(eq(v("cnt"), c(workers as u64))));
    b.main(main).build()
}

fn traced_verify(program: &Program, mm: MemoryModel, strategy: Strategy) -> Recorder {
    let rec = Recorder::new(TraceConfig {
        events: true,
        decision_sample: 1,
    });
    let mut opts = VerifyOptions::new(mm, strategy);
    opts.recorder = Some(rec.clone());
    verify(program, &opts);
    rec
}

/// H1 in the telemetry: with the ZPRE guide, the decision stream leads
/// with interference-class variables. Formally: if the run made `k`
/// interference decisions in total, at least 90% of the *first* `k`
/// decision events must be interference-class.
#[test]
fn zpre_decision_stream_is_interference_first() {
    for mm in MemoryModel::ALL {
        for program in [racy_counter(3), locked_counter(2)] {
            let rec = traced_verify(&program, mm, Strategy::Zpre);
            let snap = rec.snapshot();
            let classes: Vec<VarClass> = snap
                .events
                .iter()
                .filter_map(|e| match e.kind {
                    EventKind::Decision { class, .. } => Some(class),
                    _ => None,
                })
                .collect();
            let k = classes.iter().filter(|c| c.is_interference()).count();
            if k == 0 {
                continue; // solved by propagation alone; nothing to rank
            }
            let leading = classes[..k].iter().filter(|c| c.is_interference()).count();
            let share = leading as f64 / k as f64;
            assert!(
                share >= 0.9,
                "{} under {}: only {:.0}% of the first {} decisions were \
                 interference-class ({} of {})",
                program.name,
                mm.name(),
                share * 100.0,
                k,
                leading,
                k
            );
        }
    }
}

/// The unguided baseline must NOT show the interference-first pattern on a
/// program with plenty of non-interference variables — otherwise the H1
/// check above would be vacuous.
#[test]
fn baseline_decision_stream_is_not_interference_first() {
    let program = racy_counter(3);
    let rec = traced_verify(&program, MemoryModel::Sc, Strategy::Baseline);
    let counters = rec.counters();
    assert!(
        counters.interference_decisions() < counters.total_decisions(),
        "baseline decided interference variables exclusively; H1 telemetry \
         comparison is vacuous"
    );
}

/// Every pipeline stage must land in the NDJSON export: unroll, SSA,
/// encode, bit-blast and solve spans (parse is absent because the program
/// comes from the builder, not the text frontend).
#[test]
fn ndjson_export_carries_all_pipeline_phases() {
    let rec = traced_verify(&racy_counter(2), MemoryModel::Tso, Strategy::Zpre);
    let text = ndjson::to_ndjson(&rec.snapshot());
    let report = ndjson::validate(&text).expect("emitted trace validates");
    for phase in ["unroll", "ssa", "encode", "blast", "solve"] {
        assert!(
            report.phases_seen.iter().any(|p| p == phase),
            "phase {phase} missing from trace (saw {:?})",
            report.phases_seen
        );
    }
    // Encode spans carry the memory model as their label.
    let parsed = ndjson::from_ndjson(&text).expect("round-trip");
    assert!(parsed
        .spans
        .iter()
        .any(|s| s.phase == Phase::Encode && s.label.as_deref() == Some("tso")));
}

/// The static pruning pass runs inside one `analysis` span per encoding,
/// and an unpruned run opens none.
#[test]
fn pruning_runs_inside_one_analysis_span_per_encoding() {
    let program = racy_counter(2);
    for prune in [true, false] {
        let rec = Recorder::default();
        for mm in MemoryModel::ALL {
            let mut opts = VerifyOptions::new(mm, Strategy::Zpre);
            opts.prune = prune;
            opts.recorder = Some(rec.clone());
            verify(&program, &opts);
        }
        let spans = rec.snapshot().spans;
        let count = |phase| spans.iter().filter(|s| s.phase == phase).count();
        assert_eq!(count(Phase::Encode), MemoryModel::ALL.len());
        let analysis = if prune { MemoryModel::ALL.len() } else { 0 };
        assert_eq!(count(Phase::Analysis), analysis, "prune {prune}");
    }
}

/// A portfolio run attributes spans and events to members and records the
/// race outcome (winner flag, per-member decision counts) in one buffer.
#[test]
fn portfolio_trace_attributes_members() {
    let rec = Recorder::new(TraceConfig {
        events: true,
        decision_sample: 1,
    });
    let mut base = VerifyOptions::new(MemoryModel::Sc, Strategy::Zpre);
    base.recorder = Some(rec.clone());
    let folio = verify_portfolio(&racy_counter(2), &PortfolioOptions::new(base));
    let snap = rec.snapshot();
    assert!(
        !snap.members.is_empty(),
        "portfolio run recorded no member telemetry"
    );
    let winners: Vec<&str> = snap
        .members
        .iter()
        .filter(|m| m.winner)
        .map(|m| m.name.as_str())
        .collect();
    assert_eq!(winners.len(), 1, "exactly one winner, got {winners:?}");
    assert_eq!(Some(winners[0]), folio.winner.as_deref());
    // Solver events carry the member label they came from.
    assert!(
        snap.events.iter().any(|e| e.member.is_some()),
        "no event was attributed to a portfolio member"
    );
    // The NDJSON round-trip preserves member records.
    let text = ndjson::to_ndjson(&snap);
    let report = ndjson::validate(&text).expect("portfolio trace validates");
    assert_eq!(report.members, snap.members.len());
}

/// Every example program, parsed from `examples/programs/*.zc`.
fn examples() -> Vec<(String, Program)> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/programs");
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .expect("examples directory")
        .map(|e| e.expect("directory entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "zc"))
        .collect();
    files.sort();
    assert!(!files.is_empty(), "no examples under {}", dir.display());
    files
        .into_iter()
        .map(|p| {
            let text = std::fs::read_to_string(&p).expect("readable example");
            let prog =
                zpre_prog::parse_program(&text).unwrap_or_else(|e| panic!("{}: {e}", p.display()));
            (p.file_stem().unwrap().to_string_lossy().into_owned(), prog)
        })
        .collect()
}

fn peterson() -> Program {
    examples()
        .into_iter()
        .find(|(name, _)| name == "peterson")
        .expect("peterson example")
        .1
}

fn d2c(stats: &TraceStats) -> Vec<(&String, &u64)> {
    stats
        .metrics
        .iter()
        .filter(|(k, _)| k.starts_with("d2c_"))
        .collect()
}

/// Each solver owns its decision-to-conflict window, so one recorder
/// spanning three solvers (one per memory model) observes exactly what
/// three separate recorders do: no window stays open from one solver into
/// the next.
#[test]
fn one_recorder_across_solvers_keeps_windows_apart() {
    let prog = peterson();
    let run = |rec: &Recorder, mm: MemoryModel| {
        let mut opts = VerifyOptions::new(mm, Strategy::Zpre);
        opts.recorder = Some(rec.clone());
        try_verify(&prog, &opts).expect("verifies");
    };
    let shared = Recorder::default();
    let mut separate = Vec::new();
    for mm in MemoryModel::ALL {
        run(&shared, mm);
        let own = Recorder::default();
        run(&own, mm);
        separate.push(own.snapshot());
    }
    let shared = TraceStats::from_snapshots([&shared.snapshot()]);
    let separate = TraceStats::from_snapshots(&separate);
    assert!(shared.get("d2c_rf_ext_count") > 0);
    assert_eq!(d2c(&shared), d2c(&separate));
}

/// The trace's search counters are the solver's: for single-bound and
/// sweep runs of every example, `decisions`, `conflicts`, `restarts` and
/// `reductions` equal the outcome's `Stats`, the per-class split sums to
/// the totals, and `validate` reconciles the events against them.
#[test]
fn trace_counters_equal_the_solver_stats() {
    for (name, prog) in examples() {
        for mm in MemoryModel::ALL {
            for sweep in [false, true] {
                let rec = Recorder::default();
                let mut opts = VerifyOptions::new(mm, Strategy::Zpre);
                opts.recorder = Some(rec.clone());
                let out = if sweep {
                    opts.max_bound = 4;
                    try_verify_sweep_full(&prog, &opts)
                } else {
                    try_verify(&prog, &opts)
                }
                .unwrap_or_else(|e| panic!("{name} {mm}: {e}"));
                let s = &out.stats;
                let snap = rec.snapshot();
                let c = &snap.counters;
                let at = format!("{name} {mm} sweep={sweep}");
                assert_eq!(c.total_decisions(), s.decisions, "{at}");
                assert_eq!(c.decisions, s.class_decisions, "{at}");
                assert_eq!(c.guided, s.class_guided, "{at}");
                assert_eq!(s.class_decisions.iter().sum::<u64>(), s.decisions, "{at}");
                assert_eq!(
                    s.class_guided.iter().sum::<u64>(),
                    s.guided_decisions,
                    "{at}"
                );
                for (counter, stat) in [
                    (Counter::Conflicts, s.conflicts),
                    (Counter::Restarts, s.restarts),
                    (Counter::Reductions, s.reductions),
                ] {
                    assert_eq!(c[counter], stat, "{at}: {}", counter.name());
                }
                ndjson::validate(&ndjson::to_ndjson(&snap)).unwrap_or_else(|e| panic!("{at}: {e}"));
            }
        }
    }
}
