//! The pipeline session: the one solver set-up and the one solve step that
//! every driver shares.
//!
//! [`Session::new`] turns an SSA program and its [`VerifyOptions`] into a
//! ready CDCL(T) instance: the order theory with the strategy's engine
//! toggles, the solver (proof logging and the lemma journal under
//! `certify`), the memory pre-check, static pruning and symmetry
//! breaking, the encoding, the
//! solver's variable classes, the recorder's event sinks, the portfolio
//! share endpoint, and the strategy's decision order and polarity guide.
//! [`Session::solve`] then answers one assumption frame: single-bound
//! verification solves the empty frame, the bound sweep one frame per
//! bound (DESIGN.md §6j). It copies each solve call's search counters
//! into the recorder, their one way in (DESIGN.md §6b).

use crate::decision_order::decision_order;
use crate::errors::VerifyError;
use crate::faults::Fault;
use crate::strategy::Strategy;
use crate::verifier::{validate_model, Verdict, VerifyOptions};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};
use zpre_encoder::{estimate_cnf, try_encode_opts, EncodeError, Encoded};
use zpre_obs::{Counter, Phase, Recorder, VarClass};
use zpre_prog::SsaProgram;
use zpre_sat::{Budget, Lit, PriorityListGuide, SolveResult, Solver, Stats};
use zpre_smt::OrderTheory;

/// One encoded instance and the solver that answers its frames.
pub(crate) struct Session<'a> {
    ssa: &'a SsaProgram,
    opts: &'a VerifyOptions,
    /// The solver, with the theory, guide and observers installed.
    pub solver: Solver<OrderTheory, PriorityListGuide>,
    /// The encoding (frames register their activation variables here).
    pub enc: Encoded,
}

impl<'a> Session<'a> {
    /// Builds the solver for `ssa` under `opts` and encodes it.
    pub fn new(ssa: &'a SsaProgram, opts: &'a VerifyOptions) -> Result<Session<'a>, VerifyError> {
        let mut theory = OrderTheory::new();
        if opts.strategy == Strategy::ZpreNoReverseProp {
            theory.set_propagate_reverse(false);
        }
        if opts.strategy == Strategy::ZpreDfsCheck {
            theory.set_full_dfs_check(true);
        }
        if opts.certify {
            theory.enable_lemma_journal();
        }
        let guide = PriorityListGuide::new(Vec::new(), opts.seed);
        let mut solver: Solver<OrderTheory, PriorityListGuide> = Solver::with_parts(theory, guide);
        if opts.certify {
            solver.enable_proof_logging();
        }
        let rec = opts.recorder.as_ref();
        // Pre-blast guard: refuse an encoding whose estimated footprint already
        // exceeds the memory budget, before allocating any of it.
        if let Some(cap) = opts.max_memory {
            let est = estimate_cnf(ssa, opts.mm)?;
            if est.bytes() > cap {
                return Err(VerifyError::Encode(EncodeError::EncodingTooLarge {
                    estimated_bytes: est.bytes(),
                    cap_bytes: cap,
                }));
            }
        }
        // Static interference pruning and symmetry detection: run the
        // analysis pass, surface its counters, and — under `--certify` —
        // re-verify every justification and symmetry witness with the
        // independent checker before trusting the smaller encoding.
        let report = if opts.prune {
            let span = rec.map(|r| r.span(Phase::Analysis));
            let mut rep = zpre_analysis::analyze(ssa, opts.mm);
            drop(span);
            if opts.fault == Some(Fault::ForgeSymmetry) {
                crate::faults::forge_symmetry(ssa, &mut rep);
            }
            if let Some(r) = rec {
                let c = &rep.counters;
                for (counter, n) in [
                    (Counter::PrRfPruned, c.rf_pruned),
                    (Counter::PrRfKept, c.rf_kept),
                    (Counter::PrWsPruned, c.ws_pruned),
                    (Counter::PrWsSerialized, c.ws_serialized),
                    (Counter::PrReadsResolved, c.reads_resolved),
                    (Counter::PrLocalVars, c.local_vars),
                    (Counter::PrSymPairs, c.sym_pairs),
                ] {
                    r.add(counter, n);
                }
            }
            if opts.certify {
                zpre_analysis::check_report(ssa, &rep).map_err(|reason| {
                    VerifyError::Certification {
                        stage: "prune",
                        reason,
                    }
                })?;
            }
            Some(rep)
        } else {
            None
        };
        let enc = try_encode_opts(ssa, opts.mm, &mut solver, rec, report.as_ref())?;

        // The solver's class table splits its decision counts and gives
        // external-RF clauses the relaxed share-export cap.
        for (v, info) in enc.registry.iter() {
            solver.set_var_class(v, info.kind.class());
        }
        if let Some(r) = rec {
            let sink: Arc<dyn zpre_obs::EventSink> = Arc::new(r.clone());
            solver.set_event_sink(Some(sink.clone()));
            solver.theory.set_event_sink(Some(sink));
        }
        if let Some(spec) = &opts.share {
            solver.set_share(spec);
        }

        // Install the decision order for the chosen strategy. It is
        // horizon-wide: a sweep's frames add no interference variables, so
        // the list installed here serves every frame.
        let mut order: Vec<u32> = if opts.strategy.uses_interference_order() {
            decision_order(&enc.registry, opts.strategy.refinements())
        } else if opts.strategy == Strategy::BranchCond {
            // Guard variables in event order, deduplicated.
            let mut seen = std::collections::HashSet::new();
            enc.guard_lits
                .iter()
                .map(|l| l.var().index() as u32)
                .filter(|v| seen.insert(*v))
                .collect()
        } else {
            Vec::new()
        };
        if opts.fault == Some(Fault::ShuffleGuideOrder) {
            // Benign control fault: the heuristic order is scrambled, but the
            // verdict and its certificate must come out unchanged.
            order.reverse();
        }
        let mut guide = PriorityListGuide::new(order, opts.seed);
        if opts.strategy == Strategy::ZpreFixedTrue {
            guide = guide.with_fixed_polarity(true);
        }
        solver.guide = guide;
        Ok(Session {
            ssa,
            opts,
            solver,
            enc,
        })
    }

    /// Solves one frame under `assumptions` with a fresh budget (so the
    /// conflict cap and the deadline are per frame), inside a `Solve` span
    /// labelled `label`, and copies the call's [`Stats`] delta into the
    /// recorder. Re-validates an `Unsafe` model when the options ask for
    /// it. Returns the verdict, the time spent in the solver and the delta.
    pub fn solve(
        &mut self,
        assumptions: &[Lit],
        label: Option<&str>,
    ) -> Result<(Verdict, Duration, Stats), VerifyError> {
        let opts = self.opts;
        let rec = opts.recorder.as_ref();
        let mut budget = Budget::with_limits(opts.max_conflicts, opts.timeout);
        if let Some(token) = &opts.cancel {
            budget = budget.with_cancel(token.clone());
        }
        if let Some(cap) = opts.max_memory {
            budget = budget.with_max_memory(cap);
        }
        self.solver.set_budget(budget);

        let span = rec.map(|r| r.span_labeled(Phase::Solve, label));
        let before = self.stats();
        let t0 = Instant::now();
        // A panicking solve still copies its counters, so the trace its
        // events went into stays consistent with its summary.
        let result = catch_unwind(AssertUnwindSafe(|| {
            self.solver.solve_with_assumptions(assumptions)
        }));
        let solve_time = t0.elapsed();
        if let Some(s) = span {
            s.close();
        }
        let delta = self.stats().since(&before);
        if let Some(r) = rec {
            record_search(r, &delta);
        }
        let result = result.unwrap_or_else(|panic| resume_unwind(panic));

        let verdict = match result {
            SolveResult::Sat => Verdict::Unsafe,
            SolveResult::Unsat => Verdict::Safe,
            SolveResult::Unknown => Verdict::Unknown,
        };
        if verdict == Verdict::Unsafe && opts.validate_models {
            let _validate_span = rec.map(|r| r.span(Phase::Validate));
            validate_model(self.ssa, &self.enc, &self.solver, opts.mm)
                .map_err(VerifyError::ModelValidation)?;
        }
        Ok((verdict, solve_time, delta))
    }

    /// The solver's cumulative statistics, with the order theory's
    /// cycle-check counters copied in (the solver itself doesn't know about
    /// the theory's engine).
    pub fn stats(&self) -> Stats {
        let mut stats = *self.solver.stats();
        let cs = self.solver.theory.cycle_stats();
        stats.eog_checks = cs.checks;
        stats.eog_accepted_o1 = cs.accepted_o1;
        stats.eog_visited = cs.visited;
        stats.eog_promoted = cs.promoted;
        stats
    }
}

/// Copies one solve call's search counters into the recorder.
fn record_search(r: &Recorder, d: &Stats) {
    for class in VarClass::ALL {
        let i = class.index();
        r.add_decisions(class, d.class_decisions[i], d.class_guided[i]);
    }
    for (counter, n) in [
        (Counter::Conflicts, d.conflicts),
        (Counter::Restarts, d.restarts),
        (Counter::Reductions, d.reductions),
        (Counter::CycleChecks, d.eog_checks),
        (Counter::CycleAcceptedO1, d.eog_accepted_o1),
        (Counter::CycleSearched, d.eog_checks - d.eog_accepted_o1),
        (Counter::CycleVisited, d.eog_visited),
        (Counter::CyclePromoted, d.eog_promoted),
        (Counter::ShExported, d.sh_exported),
        (Counter::ShExportedTheory, d.sh_exported_theory),
        (Counter::ShExportedRf, d.sh_exported_rf),
        (Counter::ShImported, d.sh_imported),
        (Counter::ShDropped, d.sh_dropped),
        (Counter::ShImportHits, d.sh_import_hits),
    ] {
        r.add(counter, n);
    }
}
