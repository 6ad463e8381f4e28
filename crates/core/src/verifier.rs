//! The end-to-end verifier: program → BMC unrolling → SSA → partial-order
//! encoding → interference-guided CDCL(T) solving → verdict.
//!
//! This is the `ZPRE` pipeline of the paper with the strategy pluggable
//! (baseline VSIDS / `ZPRE⁻` / `ZPRE` / ablations). On a `Sat` answer the
//! extracted concurrent execution is replayed through the concrete machine
//! (`crate::certify`) and must fire an assertion — a deep end-to-end check
//! that the solver, theory, blaster, and encoder agree.

use crate::certify::{certify_safe, Certificate};
use crate::errors::VerifyError;
use crate::faults::Fault;
use crate::session::Session;
use crate::strategy::Strategy;
use std::time::{Duration, Instant};
use zpre_obs::Recorder;
use zpre_prog::{to_ssa_traced, unroll_program_traced, MemoryModel, Program, SsaProgram};
use zpre_sat::{CancelToken, ExhaustionReason, ShareSpec, Stats};
use zpre_smt::ClassCounts;

/// Verification verdict.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub enum Verdict {
    /// The property holds for all executions within the unroll bound
    /// (the SMT instance is unsatisfiable) — SV-COMP "true".
    Safe,
    /// A violating execution exists (satisfiable) — SV-COMP "false".
    Unsafe,
    /// Budget exhausted (or no verdict reached yet).
    #[default]
    Unknown,
}

impl std::fmt::Display for Verdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Verdict::Safe => "safe",
            Verdict::Unsafe => "unsafe",
            Verdict::Unknown => "unknown",
        };
        f.write_str(s)
    }
}

/// Options for a verification run.
#[derive(Clone, Debug)]
pub struct VerifyOptions {
    /// Memory model.
    pub mm: MemoryModel,
    /// Solving strategy.
    pub strategy: Strategy,
    /// BMC loop unroll bound.
    pub unroll_bound: u32,
    /// Sweep horizon for [`crate::try_verify_sweep`]: bounds `1..=max_bound`
    /// are checked incrementally in one solver. Ignored by [`verify`],
    /// which solves the single bound `unroll_bound`.
    pub max_bound: u32,
    /// Deterministic conflict budget (`None` = unlimited).
    pub max_conflicts: Option<u64>,
    /// Wall-clock budget.
    pub timeout: Option<Duration>,
    /// Byte-accounted memory budget. When set, two guards engage: a
    /// pre-blast CNF size estimate refuses pathological encodings up front
    /// ([`zpre_encoder::EncodeError::EncodingTooLarge`]), and the solver
    /// polls its own footprint on the budget stride, aborting with
    /// `Unknown` / [`ExhaustionReason::Memory`] instead of letting the
    /// allocator kill the process.
    pub max_memory: Option<u64>,
    /// Seed for the random polarity of each interference variable's first
    /// guided decision (later decisions on it reuse its saved phase).
    pub seed: u64,
    /// Run the static interference-pruning pass (`zpre-analysis`) before
    /// encoding: must-happen-before, lockset and thread-locality analyses
    /// shrink `V_rf`/`V_ws` and refine the `#write` counts H4 sees.
    /// Default on; `false` (`--no-prune`) reproduces the historic unpruned
    /// encoding.
    pub prune: bool,
    /// Extract a readable counterexample trace on `Unsafe` answers.
    pub want_trace: bool,
    /// Shared cooperative-cancellation token: tripping it makes the solve
    /// return [`Verdict::Unknown`] within a bounded work stride. This is
    /// how [`crate::portfolio`] stops losing strategies.
    pub cancel: Option<CancelToken>,
    /// Certify definitive verdicts: RUP-check the proof (with every theory
    /// lemma's cycle independently re-derived from its clause) on `Safe`.
    /// The outcome then carries a [`Certificate`]; a proof that does not
    /// check out becomes a [`VerifyError::Certification`]. On `Unsafe` the
    /// certificate reports the witness replay every `Unsafe` answer goes
    /// through with or without this option.
    pub certify: bool,
    /// Fault-injection hook for the certification test harness: corrupts
    /// one pipeline artifact before certification (see [`Fault`]). `None`
    /// in production use.
    pub fault: Option<Fault>,
    /// Trace recorder: with one installed, the pipeline records phase spans
    /// (unroll, SSA, encode, blast, solve, replay, certify) and the
    /// solver/theory stream structured events into it. `None` (the default)
    /// disables all instrumentation at the cost of one branch per site.
    pub recorder: Option<Recorder>,
    /// Learnt-clause sharing endpoint for portfolio members. All members of
    /// one portfolio run solve the same CNF+theory instance (identical SSA,
    /// encoding, and variable numbering), so any clause one member learns is
    /// a logical consequence for every other — the endpoint exports learnt
    /// clauses and EOG-cycle lemmas to a shared pool and imports foreign
    /// ones at root-level exchange points. `None` (the default) disables
    /// sharing entirely.
    pub share: Option<ShareSpec>,
}

impl Default for VerifyOptions {
    fn default() -> VerifyOptions {
        VerifyOptions {
            mm: MemoryModel::Sc,
            strategy: Strategy::Zpre,
            unroll_bound: 2,
            max_bound: 6,
            max_conflicts: None,
            timeout: None,
            max_memory: None,
            seed: 0xC0FFEE,
            prune: true,
            want_trace: false,
            cancel: None,
            certify: false,
            fault: None,
            recorder: None,
            share: None,
        }
    }
}

impl VerifyOptions {
    /// Convenience constructor.
    pub fn new(mm: MemoryModel, strategy: Strategy) -> VerifyOptions {
        VerifyOptions {
            mm,
            strategy,
            ..VerifyOptions::default()
        }
    }
}

impl Verdict {
    /// Inverse of the `Display` rendering, for journal parsing.
    pub fn from_name(s: &str) -> Option<Verdict> {
        Some(match s {
            "safe" => Verdict::Safe,
            "unsafe" => Verdict::Unsafe,
            "unknown" => Verdict::Unknown,
            _ => return None,
        })
    }
}

/// Result of a verification run over one bound or several, with the
/// search statistics the paper's Table 2 reports. Every bound driver
/// returns it: a single bound ([`try_verify`]), the incremental sweep
/// ([`crate::try_verify_sweep`]), the per-bound `--bmc` loop
/// ([`crate::verify_bmc`]) and a portfolio race of any of them.
#[derive(Clone, Debug, Default)]
pub struct VerifyOutcome {
    /// The verdict: `Unsafe` as soon as some bound is satisfiable, `Safe`
    /// if every bound is unsatisfiable, `Unknown` if a bound's budget ran
    /// out.
    pub verdict: Verdict,
    /// The bound that decided the verdict: the paper's `k*` for `Unsafe`,
    /// the last bound for `Safe` (1 for a loop-free sweep, whose single
    /// frame answers for every bound), `unroll_bound` for a single bound.
    pub bound: u32,
    /// One frame per solved bound, in increasing bound order.
    pub frames: Vec<FrameOutcome>,
    /// Solver search statistics: cumulative over a sweep's frames; the
    /// deciding bound's alone under the `--bmc` loop, which builds a fresh
    /// solver per bound.
    pub stats: Stats,
    /// Time spent in `solve()` (every frame of a sweep).
    pub solve_time: Duration,
    /// Time spent unrolling + SSA + encoding.
    pub encode_time: Duration,
    /// Number of global events.
    pub num_events: usize,
    /// Variable counts per class.
    pub class_counts: ClassCounts,
    /// Total solver variables (including a sweep's frame activation vars).
    pub num_solver_vars: usize,
    /// Counterexample trace (on `Unsafe`, when requested).
    pub trace: Option<crate::trace::Trace>,
    /// Certification evidence (on definitive verdicts, when requested).
    pub certificate: Option<Certificate>,
    /// Which budget was exhausted when the verdict is `Unknown` (the last
    /// frame's reason: only an `Unknown` frame ends a run early); `None` on
    /// definitive answers.
    pub exhaustion: Option<ExhaustionReason>,
}

/// One frame (= one bound) of a run: a sweep's assumption frame or one
/// bound of the `--bmc` loop.
#[derive(Clone, Debug, Default)]
pub struct FrameOutcome {
    /// The unroll bound this frame restricted the instance to.
    pub bound: u32,
    /// Frame verdict: `Safe` = unsatisfiable at this bound.
    pub verdict: Verdict,
    /// Time spent in this frame's solve call.
    pub solve_time: Duration,
    /// Conflicts spent by this frame alone.
    pub conflicts: u64,
    /// Decisions spent by this frame alone.
    pub decisions: u64,
    /// Propagations spent by this frame alone.
    pub propagations: u64,
    /// Learnt clauses already in the database when this frame's solve
    /// started — the state inherited from earlier frames (0 for a fresh
    /// solver).
    pub reused_learnts: u64,
    /// Conflicts spent by earlier frames when this frame's solve started.
    pub reused_conflicts: u64,
    /// Which budget ran out when the frame verdict is `Unknown`; `None` on
    /// definitive frames.
    pub exhaustion: Option<ExhaustionReason>,
}

/// Verifies `prog` under `opts`.
///
/// # Panics
///
/// Panics on any [`VerifyError`] — use [`try_verify`] for a typed result.
pub fn verify(prog: &Program, opts: &VerifyOptions) -> VerifyOutcome {
    match try_verify(prog, opts) {
        Ok(out) => out,
        Err(e) => panic!("{e}"),
    }
}

/// Verifies `prog` under `opts`, reporting failures as typed errors.
pub fn try_verify(prog: &Program, opts: &VerifyOptions) -> Result<VerifyOutcome, VerifyError> {
    let t0 = Instant::now();
    let (unrolled, ssa) = front_end(prog, opts)?;
    verify_unrolled(&unrolled, &ssa, opts, t0)
}

/// Unrolls `prog` to `opts.unroll_bound` and converts it to SSA, returning
/// both: an `Unsafe` answer replays its witness through the unrolled
/// program. A program that fails validation is
/// [`VerifyError::InvalidProgram`].
pub(crate) fn front_end(
    prog: &Program,
    opts: &VerifyOptions,
) -> Result<(Program, SsaProgram), VerifyError> {
    let rec = opts.recorder.as_ref();
    let unrolled = unroll_program_traced(prog, opts.unroll_bound, rec);
    let ssa = to_ssa_traced(&unrolled, rec)?;
    Ok((unrolled, ssa))
}

/// One session solving the empty frame of `ssa`, the SSA form of
/// `unrolled`, then certification of its verdict.
pub(crate) fn verify_unrolled(
    unrolled: &Program,
    ssa: &SsaProgram,
    opts: &VerifyOptions,
    t0: Instant,
) -> Result<VerifyOutcome, VerifyError> {
    let mut session = Session::new(unrolled, ssa, opts)?;
    let encode_time = t0.elapsed();
    let (verdict, solve_time, _, witness) = session.solve(&[], None)?;

    let certificate = if opts.certify {
        match &witness {
            Some(w) => Some(Certificate::Unsafe {
                replayed_steps: w.replayed_steps,
            }),
            None if verdict == Verdict::Safe => Some(certify_safe(
                &mut session.solver,
                opts.fault,
                opts.recorder.as_ref(),
            )?),
            None => None,
        }
    } else {
        None
    };

    // Debug oracle: on small instances, re-verify with the pruning pass
    // disabled and assert verdict equivalence. Catches any unsound prune
    // rule in every debug-build test run, not just the dedicated
    // equivalence suite. Gated off for fault-injection, portfolio members
    // (share/cancel), and inconclusive verdicts.
    #[cfg(debug_assertions)]
    if opts.prune
        && opts.fault.is_none()
        && opts.share.is_none()
        && opts.cancel.is_none()
        && verdict != Verdict::Unknown
        && ssa.events.len() <= 64
    {
        let mut oracle = opts.clone();
        oracle.prune = false;
        oracle.certify = false;
        oracle.want_trace = false;
        oracle.recorder = None;
        let unpruned = verify_unrolled(unrolled, ssa, &oracle, Instant::now())?;
        if unpruned.verdict != Verdict::Unknown {
            assert_eq!(
                verdict, unpruned.verdict,
                "pruned and unpruned encodings disagree (mm={}, strategy={})",
                opts.mm, opts.strategy
            );
        }
    }

    let stats = session.stats();
    let exhaustion = session.solver.exhaustion();
    Ok(VerifyOutcome {
        verdict,
        bound: opts.unroll_bound,
        frames: vec![FrameOutcome {
            bound: opts.unroll_bound,
            verdict,
            solve_time,
            conflicts: stats.conflicts,
            decisions: stats.decisions,
            propagations: stats.propagations,
            exhaustion,
            ..FrameOutcome::default()
        }],
        stats,
        solve_time,
        encode_time,
        num_events: ssa.events.len(),
        class_counts: session.enc.registry.class_counts(),
        num_solver_vars: session.solver.num_vars(),
        trace: witness.map(|w| w.trace).filter(|_| opts.want_trace),
        certificate,
        exhaustion,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use zpre_encoder::EncodeError;
    use zpre_prog::build::*;

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

    /// A builder-made program that fails `Program::validate` is a typed
    /// error on the single-bound and the sweep entry points, not a panic.
    #[test]
    fn invalid_program_is_a_typed_error() {
        let p = ProgramBuilder::new("bad")
            .shared("x", 0)
            .mutex("m")
            .main(vec![unlock("m"), assert_(eq(v("x"), c(0)))])
            .build();
        let opts = VerifyOptions::new(MemoryModel::Sc, Strategy::Zpre);
        let sweeps = [
            crate::incremental::try_verify_sweep,
            crate::incremental::try_verify_sweep_full,
        ];
        for got in std::iter::once(try_verify(&p, &opts)).chain(sweeps.map(|f| f(&p, &opts))) {
            assert!(
                matches!(&got, Err(VerifyError::InvalidProgram(m)) if m.contains("unlock")),
                "{got:?}"
            );
        }
    }

    fn locked() -> Program {
        let inc = vec![
            lock("m"),
            assign("r", v("cnt")),
            assign("cnt", add(v("r"), c(1))),
            unlock("m"),
        ];
        ProgramBuilder::new("locked")
            .shared("cnt", 0)
            .mutex("m")
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
    fn all_strategies_agree_on_racy() {
        for mm in MemoryModel::ALL {
            for strat in Strategy::ALL {
                let out = verify(&racy(), &VerifyOptions::new(mm, strat));
                assert_eq!(out.verdict, Verdict::Unsafe, "{mm} {strat}");
            }
        }
    }

    #[test]
    fn all_strategies_agree_on_locked() {
        for mm in MemoryModel::ALL {
            for strat in Strategy::MAIN {
                let out = verify(&locked(), &VerifyOptions::new(mm, strat));
                assert_eq!(out.verdict, Verdict::Safe, "{mm} {strat}");
            }
        }
    }

    #[test]
    fn guided_decisions_are_counted() {
        let out = verify(
            &racy(),
            &VerifyOptions::new(MemoryModel::Sc, Strategy::Zpre),
        );
        // The guide must actually have driven decisions.
        assert!(out.stats.guided_decisions > 0);
        let base = verify(
            &racy(),
            &VerifyOptions::new(MemoryModel::Sc, Strategy::Baseline),
        );
        assert_eq!(base.stats.guided_decisions, 0);
    }

    #[test]
    fn conflict_budget_yields_unknown() {
        let mut opts = VerifyOptions::new(MemoryModel::Sc, Strategy::Baseline);
        opts.max_conflicts = Some(1);
        let out = verify(&locked(), &opts);
        assert_eq!(out.verdict, Verdict::Unknown);
        assert_eq!(out.exhaustion, Some(ExhaustionReason::Conflicts));
    }

    #[test]
    fn definitive_verdict_has_no_exhaustion() {
        let out = verify(
            &racy(),
            &VerifyOptions::new(MemoryModel::Sc, Strategy::Zpre),
        );
        assert_eq!(out.verdict, Verdict::Unsafe);
        assert_eq!(out.exhaustion, None);
    }

    #[test]
    fn tiny_memory_cap_rejects_encoding_up_front() {
        let mut opts = VerifyOptions::new(MemoryModel::Sc, Strategy::Zpre);
        opts.max_memory = Some(64);
        match try_verify(&racy(), &opts) {
            Err(VerifyError::Encode(EncodeError::EncodingTooLarge {
                estimated_bytes,
                cap_bytes: 64,
            })) => assert!(estimated_bytes > 64),
            other => panic!("expected EncodingTooLarge, got {other:?}"),
        }
    }

    #[test]
    fn generous_memory_cap_does_not_perturb_verdicts() {
        let mut opts = VerifyOptions::new(MemoryModel::Sc, Strategy::Zpre);
        opts.max_memory = Some(1 << 30);
        assert_eq!(verify(&racy(), &opts).verdict, Verdict::Unsafe);
        assert_eq!(verify(&locked(), &opts).verdict, Verdict::Safe);
    }

    #[test]
    fn outcome_carries_instance_metrics() {
        let out = verify(
            &racy(),
            &VerifyOptions::new(MemoryModel::Sc, Strategy::Zpre),
        );
        assert!(out.num_events > 0);
        assert!(out.class_counts.rf > 0);
        assert!(out.class_counts.ws > 0);
        assert!(out.num_solver_vars > 0);
    }

    #[test]
    fn deterministic_across_runs_with_same_seed() {
        let opts = VerifyOptions::new(MemoryModel::Sc, Strategy::Zpre);
        let a = verify(&racy(), &opts);
        let b = verify(&racy(), &opts);
        assert_eq!(a.stats.decisions, b.stats.decisions);
        assert_eq!(a.stats.conflicts, b.stats.conflicts);
        assert_eq!(a.verdict, b.verdict);
    }
}
