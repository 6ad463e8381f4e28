//! Incremental bound-sweep verification: one solver across unwind bounds.
//!
//! Where [`crate::verify_bmc`] builds a fresh solver per bound, this driver
//! encodes the program **once** at the sweep horizon `K`
//! (`VerifyOptions::max_bound`) with unwinding markers and derives each
//! bound `k = 1..=K` as an assumption *frame* (see `zpre_encoder::sweep`):
//! frame `k` is solved with `solve_with_assumptions([g_k, ¬g_1, …,
//! ¬g_{k−1}])`, so learnt clauses, saved phases, EVSIDS activity, and the
//! order theory's fixed program-order skeleton and topological levels all
//! carry over from the bounds already refuted.
//!
//! Loop-free programs collapse to a single frame — every bound yields the
//! same instance, the same deduplication [`crate::verify_bmc`] applies.

use crate::errors::VerifyError;
use crate::session::Session;
use crate::verifier::{FrameOutcome, Verdict, VerifyOptions, VerifyOutcome};
use std::time::{Duration, Instant};
use zpre_encoder::SweepFrames;
use zpre_obs::{Counter, Hist, Phase};
use zpre_prog::{to_ssa_traced, unroll_program_sweep, Program};

/// Runs an incremental bound sweep over `1..=opts.max_bound`, reporting
/// failures as typed errors.
///
/// Certification is not supported on sweeps (the proof log would span
/// several assumption solves): with `opts.certify` set this fails closed
/// with [`VerifyError::Certification`] (stage `"sweep"`) before encoding,
/// as do the other sweep entry points.
pub fn try_verify_sweep(
    prog: &Program,
    opts: &VerifyOptions,
) -> Result<VerifyOutcome, VerifyError> {
    sweep_impl(prog, opts, true, 1, &mut |_| {})
}

/// Like [`try_verify_sweep`], but solves **every** frame `1..=max_bound`
/// instead of stopping at the first violating bound — the paper's
/// evaluation protocol, where each benchmark is solved at every unroll
/// bound. The overall verdict and bound still report the first non-`Safe`
/// frame (a violation stays reachable at every larger bound, so later
/// frames confirm rather than revise it). Frames after a budget-exhausted
/// (`Unknown`) frame are still skipped: their budgets would exhaust the
/// same way.
///
/// A counterexample trace, when requested, is extracted from the *last*
/// solved frame's model, which may witness a deeper unrolling than the
/// reported bound.
pub fn try_verify_sweep_full(
    prog: &Program,
    opts: &VerifyOptions,
) -> Result<VerifyOutcome, VerifyError> {
    sweep_impl(prog, opts, false, 1, &mut |_| {})
}

/// Resumable sweep: starts solving at `start_bound` (frames below it are
/// encoded but not solved — the caller already knows their verdicts, e.g.
/// from a checkpoint journal), and reports each solved frame to `on_frame`
/// *before* moving on, so a caller can journal per-frame progress and a
/// later resume can skip exactly the frames that finished.
///
/// Reusing journaled frame verdicts across runs is sound because a frame's
/// verdict depends only on (program, memory model, bound) — not on the
/// strategy, the sweep horizon, or what other frames ran first (the frame
/// equisatisfiability invariant of `zpre_encoder::sweep`, cross-checked by
/// the `sweep_equivalence` integration suite).
///
/// The returned outcome's `frames` contain only the frames this call
/// solved; `verdict`/`bound` summarize those frames alone, with bounds
/// below `start_bound` assumed `Safe` (a sweep only proceeds past a frame
/// it proved safe).
pub fn try_verify_sweep_resumed(
    prog: &Program,
    opts: &VerifyOptions,
    start_bound: u32,
    on_frame: &mut dyn FnMut(&FrameOutcome),
) -> Result<VerifyOutcome, VerifyError> {
    sweep_impl(prog, opts, true, start_bound.max(1), on_frame)
}

/// The one fail-closed check for certified sweeps, shared by every sweep
/// entry point and the portfolio race over sweeps.
pub(crate) fn refuse_certified(opts: &VerifyOptions) -> Result<(), VerifyError> {
    if opts.certify {
        return Err(VerifyError::Certification {
            stage: "sweep",
            reason: "sweep verdicts cannot be certified (the proof log would span \
                     several assumption solves)"
                .to_string(),
        });
    }
    Ok(())
}

fn sweep_impl(
    prog: &Program,
    opts: &VerifyOptions,
    stop_early: bool,
    start_bound: u32,
    on_frame: &mut dyn FnMut(&FrameOutcome),
) -> Result<VerifyOutcome, VerifyError> {
    refuse_certified(opts)?;
    let t0 = Instant::now();
    let rec = opts.recorder.as_ref();
    let max_bound = opts.max_bound.max(1);

    let sw = {
        let _span = rec.map(|r| r.span_labeled(Phase::Unroll, Some("sweep")));
        unroll_program_sweep(prog, max_bound)
    };
    let ssa = to_ssa_traced(&sw.program, rec)?;
    // One session at the horizon serves every bound: static pruning's
    // justifications rest on fixed program-order edges and guard
    // implications, which frames never weaken, and the H1–H4 order covers
    // every frame's interference variables (DESIGN.md §6d).
    let mut session = Session::new(&ssa, opts)?;
    let mut sweep = SweepFrames::new(&session.enc, max_bound);

    let encode_time = t0.elapsed();
    let num_events = ssa.events.len();
    let class_counts = session.enc.registry.class_counts();

    // Loop-free programs have no markers: frame 1 already is the full
    // instance, and every other bound would re-solve it verbatim.
    let last_bound = if prog.has_loops() { max_bound } else { 1 };
    let start = start_bound.min(last_bound);
    let mut frames: Vec<FrameOutcome> = Vec::new();
    let mut verdict = Verdict::Safe;
    let mut decided = last_bound;
    let mut solve_time = Duration::ZERO;

    // Frames must exist in order 1..=K for the assumption prefixes; on a
    // resume, the already-decided bounds are encoded without being solved.
    for k in 1..=last_bound {
        sweep.encode_frame(k, &mut session.enc, &mut session.solver);
        if k < start {
            continue;
        }
        // The state this frame inherits from earlier ones.
        let reused = *session.solver.stats();
        if let Some(r) = rec {
            r.add(Counter::Frames, 1);
            r.add(Counter::FrameReusedLearnts, reused.learnt_clauses);
            r.add(Counter::FrameReusedConflicts, reused.conflicts);
        }
        let label = format!("k={k}");
        let (frame_verdict, frame_time, delta) =
            session.solve(&sweep.assumptions(k), Some(&label))?;
        solve_time += frame_time;
        if let Some(r) = rec {
            r.observe(Hist::FrameSolveUs, frame_time.as_micros() as u64);
        }
        frames.push(FrameOutcome {
            bound: k,
            verdict: frame_verdict,
            solve_time: frame_time,
            conflicts: delta.conflicts,
            decisions: delta.decisions,
            propagations: delta.propagations,
            reused_learnts: reused.learnt_clauses,
            reused_conflicts: reused.conflicts,
            exhaustion: session.solver.exhaustion(),
        });
        on_frame(frames.last().expect("frame just pushed"));
        // The overall verdict is the first non-Safe frame's; a full sweep
        // keeps solving later frames without revising it.
        if verdict == Verdict::Safe {
            decided = k;
            verdict = frame_verdict;
        }
        if frame_verdict == Verdict::Unknown || (stop_early && frame_verdict != Verdict::Safe) {
            break;
        }
    }
    // A loop-free sweep's single frame answers for the whole horizon; the
    // reported bound stays 1, matching `verify_bmc`'s deduplicated loop.

    let trace = (verdict == Verdict::Unsafe && opts.want_trace)
        .then(|| crate::trace::extract_trace(&ssa, &session.enc, &session.solver, opts.mm));

    Ok(VerifyOutcome {
        verdict,
        bound: decided,
        exhaustion: frames.last().and_then(|f| f.exhaustion),
        frames,
        stats: session.stats(),
        encode_time,
        solve_time,
        num_events,
        class_counts,
        num_solver_vars: session.solver.num_vars(),
        trace,
        certificate: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bmc::verify_bmc;
    use crate::strategy::Strategy;
    use zpre_prog::build::*;
    use zpre_prog::MemoryModel;
    use zpre_sat::ExhaustionReason;

    /// `k* = 3`: the loop must run three times before the bug is reachable.
    fn kstar3() -> Program {
        ProgramBuilder::new("kstar3")
            .width(8)
            .shared("x", 0)
            .main(vec![
                while_(lt(v("x"), c(3)), vec![assign("x", add(v("x"), c(1)))]),
                assert_(ne(v("x"), c(3))),
            ])
            .build()
    }

    fn racy() -> Program {
        let inc = vec![assign("r", v("cnt")), assign("cnt", add(v("r"), c(1)))];
        ProgramBuilder::new("race")
            .shared("cnt", 0)
            .thread("w1", inc.clone())
            .thread("w2", inc)
            .main(vec![
                spawn(1),
                spawn(2),
                join(1),
                join(2),
                assert_(eq(v("cnt"), c(2))),
            ])
            .build()
    }

    #[test]
    fn sweep_finds_kstar_and_matches_scratch() {
        let mut opts = VerifyOptions::new(MemoryModel::Sc, Strategy::Zpre);
        opts.max_bound = 6;
        let sweep = try_verify_sweep(&kstar3(), &opts).unwrap();
        assert_eq!(sweep.verdict, Verdict::Unsafe);
        assert_eq!(sweep.bound, 3, "k* = 3");
        assert_eq!(sweep.frames.len(), 3);

        let scratch = verify_bmc(&kstar3(), 6, &opts).unwrap();
        assert_eq!(scratch.verdict, Verdict::Unsafe);
        assert_eq!(scratch.bound, sweep.bound);
        for (f, s) in sweep.frames.iter().zip(&scratch.frames) {
            assert_eq!(f.bound, s.bound);
            assert_eq!(f.verdict, s.verdict, "bound {}", f.bound);
        }
    }

    /// The full sweep keeps solving past the violating bound: a bug at
    /// `k* = 3` is confirmed by every deeper frame (violations are
    /// monotone in the bound — a deeper frame only enables more
    /// iterations), while the reported verdict and bound stay `k*`.
    #[test]
    fn full_sweep_solves_every_frame() {
        let mut opts = VerifyOptions::new(MemoryModel::Sc, Strategy::Zpre);
        opts.max_bound = 5;
        let sweep = try_verify_sweep_full(&kstar3(), &opts).unwrap();
        assert_eq!(sweep.verdict, Verdict::Unsafe);
        assert_eq!(sweep.bound, 3, "first violating frame decides");
        assert_eq!(sweep.frames.len(), 5, "full sweep solves every bound");
        for f in &sweep.frames {
            let expect = if f.bound < 3 {
                Verdict::Safe
            } else {
                Verdict::Unsafe
            };
            assert_eq!(f.verdict, expect, "bound {}", f.bound);
        }
    }

    #[test]
    fn later_frames_inherit_solver_state() {
        let mut opts = VerifyOptions::new(MemoryModel::Sc, Strategy::Zpre);
        opts.max_bound = 4;
        let sweep = try_verify_sweep(&kstar3(), &opts).unwrap();
        assert!(sweep.frames.len() >= 2);
        assert_eq!(sweep.frames[0].reused_learnts, 0);
        assert_eq!(sweep.frames[0].reused_conflicts, 0);
        // Frame telemetry is cumulative-consistent: what frame k+1 sees at
        // entry is what frames 1..=k spent.
        for w in sweep.frames.windows(2) {
            assert_eq!(
                w[1].reused_conflicts,
                w[0].reused_conflicts + w[0].conflicts
            );
        }
    }

    #[test]
    fn loop_free_sweep_solves_one_frame() {
        let mut opts = VerifyOptions::new(MemoryModel::Sc, Strategy::Zpre);
        opts.max_bound = 6;
        let sweep = try_verify_sweep(&racy(), &opts).unwrap();
        assert!(!racy().has_loops());
        assert_eq!(sweep.frames.len(), 1);
        assert_eq!(sweep.verdict, Verdict::Unsafe);
    }

    #[test]
    fn safe_program_is_safe_at_every_bound() {
        let p = ProgramBuilder::new("safe-loop")
            .width(8)
            .shared("x", 0)
            .main(vec![
                while_(lt(v("x"), c(3)), vec![assign("x", add(v("x"), c(1)))]),
                assert_(le(v("x"), c(3))),
            ])
            .build();
        let mut opts = VerifyOptions::new(MemoryModel::Sc, Strategy::Zpre);
        opts.max_bound = 5;
        let sweep = try_verify_sweep(&p, &opts).unwrap();
        assert_eq!(sweep.verdict, Verdict::Safe);
        assert_eq!(sweep.bound, 5);
        assert_eq!(sweep.frames.len(), 5);
        assert!(sweep.frames.iter().all(|f| f.verdict == Verdict::Safe));
    }

    #[test]
    fn sweep_trace_extraction_works() {
        let mut opts = VerifyOptions::new(MemoryModel::Sc, Strategy::Zpre);
        opts.max_bound = 4;
        opts.want_trace = true;
        let sweep = try_verify_sweep(&kstar3(), &opts).unwrap();
        assert_eq!(sweep.verdict, Verdict::Unsafe);
        let trace = sweep.trace.expect("trace requested");
        assert!(!trace.steps.is_empty());
    }

    #[test]
    fn resumed_sweep_matches_uninterrupted_tail() {
        let mut opts = VerifyOptions::new(MemoryModel::Sc, Strategy::Zpre);
        opts.max_bound = 6;
        let full = try_verify_sweep(&kstar3(), &opts).unwrap();
        assert_eq!(full.frames.len(), 3, "k*=3 under stop-early");

        // Resume from bound 3 as if frames 1–2 came from a journal: the
        // solved tail must reproduce the same per-bound verdicts.
        let mut seen: Vec<(u32, Verdict)> = Vec::new();
        let resumed = try_verify_sweep_resumed(&kstar3(), &opts, 3, &mut |f| {
            seen.push((f.bound, f.verdict));
        })
        .unwrap();
        assert_eq!(resumed.verdict, Verdict::Unsafe);
        assert_eq!(resumed.bound, 3);
        assert_eq!(resumed.frames.len(), 1);
        assert_eq!(resumed.frames[0].bound, 3);
        assert_eq!(resumed.frames[0].verdict, Verdict::Unsafe);
        assert_eq!(
            seen,
            vec![(3, Verdict::Unsafe)],
            "callback per solved frame"
        );
    }

    #[test]
    fn frame_exhaustion_is_reported() {
        let mut opts = VerifyOptions::new(MemoryModel::Sc, Strategy::Zpre);
        opts.max_bound = 4;
        opts.max_conflicts = Some(0);
        // The pruned encoding of kstar3 solves within zero conflicts; this
        // test is about exhaustion reporting, so keep the instance hard.
        opts.prune = false;
        let sweep = try_verify_sweep(&kstar3(), &opts).unwrap();
        assert_eq!(sweep.verdict, Verdict::Unknown);
        let last = sweep.frames.last().unwrap();
        assert_eq!(last.verdict, Verdict::Unknown);
        assert_eq!(last.exhaustion, Some(ExhaustionReason::Conflicts));
        assert_eq!(sweep.exhaustion, last.exhaustion);
    }

    #[test]
    fn certified_sweep_fails_closed() {
        let mut opts = VerifyOptions::new(MemoryModel::Sc, Strategy::Zpre);
        opts.max_bound = 3;
        opts.certify = true;
        let full = try_verify_sweep_full(&kstar3(), &opts);
        let resumed = try_verify_sweep_resumed(&kstar3(), &opts, 2, &mut |_| {
            panic!("no frame may be solved")
        });
        for result in [try_verify_sweep(&kstar3(), &opts), full, resumed] {
            match result {
                Err(VerifyError::Certification { stage: "sweep", .. }) => {}
                other => panic!("expected a sweep certification error, got {other:?}"),
            }
        }
    }

    #[test]
    fn per_frame_budget_is_not_cumulative() {
        // A conflict budget generous enough for any single frame must let
        // the sweep finish even though the *sum* over frames exceeds it.
        let mut opts = VerifyOptions::new(MemoryModel::Sc, Strategy::Zpre);
        opts.max_bound = 6;
        opts.max_conflicts = None;
        let free = try_verify_sweep(&kstar3(), &opts).unwrap();
        let worst = free.frames.iter().map(|f| f.conflicts).max().unwrap();
        let total: u64 = free.frames.iter().map(|f| f.conflicts).sum();
        if total > worst {
            opts.max_conflicts = Some(worst + 1);
            let capped = try_verify_sweep(&kstar3(), &opts).unwrap();
            assert_eq!(capped.verdict, free.verdict);
            assert_eq!(capped.bound, free.bound);
        }
    }
}
