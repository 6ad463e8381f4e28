//! The end-to-end verifier: program → BMC unrolling → SSA → partial-order
//! encoding → interference-guided CDCL(T) solving → verdict.
//!
//! This is the `ZPRE` pipeline of the paper with the strategy pluggable
//! (baseline VSIDS / `ZPRE⁻` / `ZPRE` / ablations). On a `Sat` answer the
//! extracted concurrent execution is optionally re-validated against the
//! axioms (EOG acyclicity, read-from/from-read consistency, mutual
//! exclusion, atomicity, and the violated assertion) — a deep end-to-end
//! check that the solver, theory, blaster, and encoder agree.

use crate::certify::{certify_safe, certify_unsafe, Certificate};
use crate::errors::VerifyError;
use crate::faults::Fault;
use crate::session::Session;
use crate::strategy::Strategy;
use crate::trace::ModelView;
use std::time::{Duration, Instant};
use zpre_encoder::Encoded;
use zpre_obs::Recorder;
use zpre_prog::{
    flatten, to_ssa_traced, unroll_program_traced, FlatProgram, MemoryModel, Program, SsaProgram,
};
use zpre_sat::{CancelToken, ExhaustionReason, PriorityListGuide, ShareSpec, Solver, Stats};
use zpre_smt::{ClassCounts, OrderTheory};

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
    /// Seed for the random decision polarity of interference variables.
    pub seed: u64,
    /// Run the static interference-pruning pass (`zpre-analysis`) before
    /// encoding: must-happen-before, lockset and thread-locality analyses
    /// shrink `V_rf`/`V_ws` and refine the `#write` counts H4 sees.
    /// Default on; `false` (`--no-prune`) reproduces the historic unpruned
    /// encoding.
    pub prune: bool,
    /// Re-validate extracted executions on `Unsafe` answers.
    pub validate_models: bool,
    /// Extract a readable counterexample trace on `Unsafe` answers.
    pub want_trace: bool,
    /// Shared cooperative-cancellation token: tripping it makes the solve
    /// return [`Verdict::Unknown`] within a bounded work stride. This is
    /// how [`crate::portfolio`] stops losing strategies.
    pub cancel: Option<CancelToken>,
    /// Certify definitive verdicts: RUP-check the proof (with every theory
    /// lemma's cycle independently re-derived from its clause) on `Safe`, replay the witness
    /// through the concrete interpreter on `Unsafe`. The outcome then
    /// carries a [`Certificate`]; a verdict whose evidence does not check
    /// out becomes a [`VerifyError::Certification`].
    pub certify: bool,
    /// Fault-injection hook for the certification test harness: corrupts
    /// one pipeline artifact before certification (see [`Fault`]). `None`
    /// in production use.
    pub fault: Option<Fault>,
    /// Trace recorder: with one installed, the pipeline records phase spans
    /// (unroll, SSA, encode, blast, solve, validate, certify, replay) and the
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
            validate_models: true,
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
    let (ssa, flat) = front_end(prog, opts)?;
    verify_ssa_inner(&ssa, opts, t0, flat.as_ref())
}

/// Unrolls `prog` to `opts.unroll_bound` and converts it to SSA. Under
/// `certify` it also lowers the same unrolled program to the flat form a
/// certified `Unsafe` verdict replays its witness through. A program that
/// fails validation is [`VerifyError::InvalidProgram`].
pub(crate) fn front_end(
    prog: &Program,
    opts: &VerifyOptions,
) -> Result<(SsaProgram, Option<FlatProgram>), VerifyError> {
    let rec = opts.recorder.as_ref();
    let unrolled = unroll_program_traced(prog, opts.unroll_bound, rec);
    let ssa = to_ssa_traced(&unrolled, rec)?;
    let flat = opts.certify.then(|| flatten(&unrolled));
    Ok((ssa, flat))
}

/// Verifies an already-converted SSA program, reporting failures as typed
/// errors.
///
/// Without the original [`Program`] there is no flat lowering to replay
/// against, so a certified `Unsafe` verdict fails closed here; use
/// [`try_verify`] (or [`crate::verify_portfolio`]) for certified runs.
pub fn try_verify_ssa(
    ssa: &SsaProgram,
    opts: &VerifyOptions,
) -> Result<VerifyOutcome, VerifyError> {
    verify_ssa_inner(ssa, opts, Instant::now(), None)
}

/// One session solving the empty frame, then trace extraction and
/// certification of its verdict.
pub(crate) fn verify_ssa_inner(
    ssa: &SsaProgram,
    opts: &VerifyOptions,
    t0: Instant,
    flat: Option<&FlatProgram>,
) -> Result<VerifyOutcome, VerifyError> {
    let mut session = Session::new(ssa, opts)?;
    let encode_time = t0.elapsed();
    let (verdict, solve_time, _) = session.solve(&[], None)?;
    let rec = opts.recorder.as_ref();
    let trace = (verdict == Verdict::Unsafe && (opts.want_trace || opts.certify))
        .then(|| crate::trace::extract_trace(ssa, &session.enc, &session.solver, opts.mm));

    let certificate = if opts.certify {
        match verdict {
            Verdict::Safe => Some(certify_safe(&mut session.solver, opts.fault, rec)?),
            Verdict::Unsafe => {
                let Some(flat) = flat else {
                    return Err(VerifyError::Certification {
                        stage: "replay",
                        reason: "no flat program available for witness replay \
                                 (certified Unsafe verdicts need the original program)"
                            .to_string(),
                    });
                };
                let trace = trace.as_ref().expect("trace extracted for certification");
                Some(certify_unsafe(
                    ssa,
                    &session.enc,
                    &session.solver,
                    opts.mm,
                    flat,
                    trace,
                    opts.fault,
                    rec,
                )?)
            }
            Verdict::Unknown => None,
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
        let unpruned = verify_ssa_inner(ssa, &oracle, Instant::now(), None)?;
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
        trace: trace.filter(|_| opts.want_trace),
        certificate,
        exhaustion,
    })
}

/// Re-validates the satisfying model as a concrete concurrent execution.
pub(crate) fn validate_model(
    ssa: &SsaProgram,
    enc: &Encoded,
    solver: &Solver<OrderTheory, PriorityListGuide>,
    mm: MemoryModel,
) -> Result<(), String> {
    let model = ModelView::new(ssa, enc, solver);
    let event_value = |eid: usize| -> u64 {
        model
            .event_value(eid)
            .unwrap_or_else(|| panic!("event {eid} carries no value variable"))
    };
    let guard_of = |eid: usize| model.guard(eid);

    // 1. Rebuild the event order graph from the model and compute clocks.
    let clocks = model
        .clocks(mm)
        .ok_or_else(|| "event order graph of the model is cyclic".to_string())?;

    // 2. Read-from consistency.
    for e in &ssa.events {
        if !e.kind.is_read() || !guard_of(e.id) {
            continue;
        }
        let var = e.kind.var().expect("read has a variable");
        let chosen: Vec<usize> = enc
            .rf_vars
            .iter()
            .filter(|rf| rf.read == e.id && solver.model_var_value(rf.var).is_true())
            .map(|rf| rf.write)
            .collect();
        let sources: Vec<usize> = if chosen.is_empty() {
            // A read the pruning pass resolved has no rf selectors; its
            // source is the last executed write of its static chain, and
            // the same read-from/from-read axioms must hold for it.
            let Some(rr) = enc.resolved_reads.iter().find(|rr| rr.read == e.id) else {
                return Err(format!("executed read {} has no read-from edge", e.id));
            };
            let Some(&w) = rr.chain.iter().rev().find(|&&w| guard_of(w)) else {
                return Err(format!(
                    "resolved read {} has no executed chain write",
                    e.id
                ));
            };
            vec![w]
        } else {
            chosen
        };
        for w in sources {
            if !guard_of(w) {
                return Err(format!("read {} reads from unexecuted write {w}", e.id));
            }
            if event_value(e.id) != event_value(w) {
                return Err(format!(
                    "read {} value {} != write {w} value {}",
                    e.id,
                    event_value(e.id),
                    event_value(w)
                ));
            }
            if clocks[w] >= clocks[e.id] {
                return Err(format!(
                    "read-from order violated: write {w} after read {}",
                    e.id
                ));
            }
            // From-read: no other executed write to the same variable
            // between the write and the read.
            for other in &ssa.events {
                if other.kind.is_write()
                    && other.kind.var() == Some(var)
                    && other.id != w
                    && guard_of(other.id)
                    && clocks[w] < clocks[other.id]
                    && clocks[other.id] < clocks[e.id]
                {
                    return Err(format!(
                        "write {} intervenes between write {w} and read {}",
                        other.id, e.id
                    ));
                }
            }
        }
    }

    // 3. Mutual exclusion: critical sections on one mutex do not overlap.
    for (i, &(t1, m1, l1, u1)) in enc.critical_sections.iter().enumerate() {
        for &(t2, m2, l2, u2) in &enc.critical_sections[i + 1..] {
            if m1 != m2 || t1 == t2 || !guard_of(l1) || !guard_of(l2) {
                continue;
            }
            let disjoint = clocks[u1] < clocks[l2] || clocks[u2] < clocks[l1];
            if !disjoint {
                return Err(format!(
                    "critical sections {l1}..{u1} and {l2}..{u2} on mutex {m1} overlap"
                ));
            }
        }
    }

    // 4. Atomicity: no external same-variable access inside a block.
    for blk in &ssa.atomic_blocks {
        if !guard_of(blk.begin) {
            continue;
        }
        for e in &ssa.events {
            if e.thread == blk.thread || !guard_of(e.id) {
                continue;
            }
            let Some(v) = e.kind.var() else { continue };
            if !blk.vars.contains(&v) {
                continue;
            }
            if clocks[e.id] > clocks[blk.begin] && clocks[e.id] < clocks[blk.end] {
                return Err(format!(
                    "event {} intrudes into atomic block {}..{}",
                    e.id, blk.begin, blk.end
                ));
            }
        }
    }

    // 5. The error condition really fires: some assertion has a true guard
    //    and a false condition under the extracted values.
    let ts = &ssa.store;
    let bv_val = |name: &str| model.bv_val(name);
    let bool_val = |name: &str| model.bool_val(name);
    let violated = ssa.assertions.iter().any(|&(g, cond)| {
        ts.eval(g, &bv_val, &bool_val).as_bool() && !ts.eval(cond, &bv_val, &bool_val).as_bool()
    });
    if !violated {
        return Err("model does not violate any assertion".to_string());
    }
    Ok(())
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
