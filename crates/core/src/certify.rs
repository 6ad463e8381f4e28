//! Verdict certification: independent evidence checking for both verdicts.
//!
//! A verifier bug should never silently become a wrong verdict. With
//! [`crate::VerifyOptions::certify`] enabled, each definitive verdict is
//! re-established from first principles by machinery that shares as little
//! code as possible with the solving pipeline:
//!
//! - **Safe** — the solver's DRAT proof is re-checked by forward RUP over
//!   the logged input CNF. Theory lemmas (clauses the order theory asserted
//!   from event-order-graph cycles) are not trusted: each one must carry a
//!   journaled justification — the cycle itself — that the standalone
//!   re-walker in `zpre_smt::certcheck` confirms edge by edge. Once every
//!   lemma is re-justified, `CNF ∧ lemmas ⊢ ⊥` propositionally, which is
//!   exactly unsatisfiability of the verification condition.
//! - **Unsafe** — the extracted witness is replayed through the concrete
//!   buffered-store machine in `zpre_prog::replay`: the model's event order
//!   becomes a schedule, its nondeterministic inputs become concrete
//!   values, and the replay must drive the flat program into an assertion
//!   that concretely fires.
//!
//! Both checks fail closed: any divergence is a typed
//! [`VerifyError::Certification`], and the fault-injection matrix in
//! `tests/` exercises exactly these rejection paths.

use crate::errors::VerifyError;
use crate::faults::{self, Fault};
use crate::trace::{ModelView, Trace};
use std::collections::{HashMap, HashSet};
use zpre_encoder::Encoded;
use zpre_obs::{Phase, Recorder};
use zpre_prog::{replay, FlatProgram, MemoryModel, ReplayOp, ScheduleStep, SsaProgram};
use zpre_sat::{Lit, PriorityListGuide, ProofStep, Solver};
use zpre_smt::{check_lemma_against, OrderTheory, TheoryLemma};

/// Independent evidence that a verdict is correct.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Certificate {
    /// The Safe verdict's proof was RUP-checked end to end.
    Safe {
        /// Distinct theory lemmas whose justifying cycles were re-walked.
        lemmas_checked: usize,
        /// Total steps of the checked proof.
        proof_steps: usize,
    },
    /// The Unsafe verdict's witness was replayed concretely.
    Unsafe {
        /// Scheduled global events the replay confirmed.
        replayed_steps: usize,
    },
}

impl Certificate {
    /// One-line human-readable summary.
    pub fn summary(&self) -> String {
        match self {
            Certificate::Safe {
                lemmas_checked,
                proof_steps,
            } => format!(
                "proof RUP-checked ({proof_steps} steps, {lemmas_checked} theory lemmas re-justified)"
            ),
            Certificate::Unsafe { replayed_steps } => {
                format!("witness replayed concretely ({replayed_steps} scheduled events)")
            }
        }
    }
}

fn norm(clause: &[Lit]) -> Vec<Lit> {
    let mut c = clause.to_vec();
    c.sort_unstable();
    c.dedup();
    c
}

/// Certifies a Safe verdict: re-justifies every theory lemma via the
/// standalone cycle checker, then forward-RUP-checks the full proof
/// against the logged CNF with the validated lemmas as axioms.
pub(crate) fn certify_safe(
    solver: &mut Solver<OrderTheory, PriorityListGuide>,
    fault: Option<Fault>,
    rec: Option<&Recorder>,
) -> Result<Certificate, VerifyError> {
    let _certify_span = rec.map(|r| r.span(Phase::Certify));
    let reject = |stage, reason: String| VerifyError::Certification { stage, reason };
    let mut proof = solver
        .take_proof()
        .ok_or_else(|| reject("proof", "proof logging was not enabled".to_string()))?;
    let mut journal = solver.theory.take_lemmas();
    if let Some(f) = fault {
        faults::corrupt_proof(f, &mut proof, &mut journal);
    }

    // Index the journal by normalized clause: certification matches lemma
    // proof steps to justifications by content, so stale journal entries
    // (from branches the solver later backtracked) are harmless extras.
    let mut by_clause: HashMap<Vec<Lit>, Vec<&TheoryLemma>> = HashMap::new();
    for lemma in &journal {
        by_clause
            .entry(norm(&lemma.clause))
            .or_default()
            .push(lemma);
    }

    // Re-justify every lemma step. The theory has backtracked to the root
    // by now, so only atom registrations and fixed program-order edges
    // remain — exactly the ground truth the re-walker needs.
    let mut valid: HashSet<Vec<Lit>> = HashSet::new();
    let mut lemmas_checked = 0usize;
    for step in &proof.steps {
        let ProofStep::Lemma(clause) = step else {
            continue;
        };
        let key = norm(clause);
        if valid.contains(&key) {
            continue;
        }
        let entries = by_clause.get(&key).map(Vec::as_slice).unwrap_or(&[]);
        if entries.is_empty() {
            return Err(reject(
                "lemma",
                format!("theory lemma {clause:?} has no journaled justification"),
            ));
        }
        let mut last_reason = String::new();
        let ok = entries
            .iter()
            .any(|l| match check_lemma_against(&solver.theory, l) {
                Ok(()) => true,
                Err(e) => {
                    last_reason = e;
                    false
                }
            });
        if !ok {
            return Err(reject(
                "lemma",
                format!("theory lemma {clause:?} rejected: {last_reason}"),
            ));
        }
        valid.insert(key);
        lemmas_checked += 1;
    }

    let proof_steps = proof.steps.len();
    zpre_sat::proof::check_with_lemmas(solver.logged_cnf(), &proof, |clause| {
        valid.contains(&norm(clause))
    })
    .map_err(|i| {
        let reason = if i == proof_steps {
            "proof never derives the empty clause".to_string()
        } else {
            format!("RUP check failed at proof step {i} of {proof_steps}")
        };
        reject("proof", reason)
    })?;

    Ok(Certificate::Safe {
        lemmas_checked,
        proof_steps,
    })
}

/// Certifies an Unsafe verdict: turns the extracted trace into a schedule
/// plus concrete nondeterministic inputs and replays it through the
/// buffered-store machine; the replay must end in a fired assertion.
#[allow(clippy::too_many_arguments)]
pub(crate) fn certify_unsafe(
    ssa: &SsaProgram,
    enc: &Encoded,
    solver: &Solver<OrderTheory, PriorityListGuide>,
    mm: MemoryModel,
    flat: &FlatProgram,
    trace: &Trace,
    fault: Option<Fault>,
    rec: Option<&Recorder>,
) -> Result<Certificate, VerifyError> {
    let _certify_span = rec.map(|r| r.span(Phase::Certify));
    let reject = |reason: String| VerifyError::Certification {
        stage: "replay",
        reason,
    };
    if ssa.shared_names != flat.shared_names {
        return Err(reject(
            "flat program and SSA program disagree on shared variables".to_string(),
        ));
    }

    // The schedule: the model's executed events in clock order, minus the
    // initializer writes (the flat program has no initializer instructions;
    // `shared_init` supplies those values, and every scheduled event is
    // ordered after the initializers by construction).
    let num_inits = ssa.shared_names.len();
    let mut schedule: Vec<ScheduleStep> = trace
        .steps
        .iter()
        .filter(|s| s.event >= num_inits)
        .map(|s| ScheduleStep {
            thread: s.thread,
            op: s.op.clone(),
        })
        .collect();

    if fault == Some(Fault::FlipModelBit) {
        let target = schedule.iter_mut().find_map(|s| match &mut s.op {
            ReplayOp::Write { value, .. } | ReplayOp::Read { value, .. } => Some(value),
            _ => None,
        });
        if let Some(value) = target {
            *value ^= 1;
        }
    }

    // Concrete nondeterministic inputs, read off the model. SSA names a
    // nondet `nd!{name}` / `ndb!{name}`; the flat lowering binds the same
    // occurrence to the local `%nd_{name}` / `%nb_{name}`.
    let model = ModelView::new(ssa, enc, solver);
    let mut nondet_ints: HashMap<String, u64> = HashMap::new();
    for full in &ssa.nondet_names {
        let name = full.strip_prefix("nd!").unwrap_or(full);
        nondet_ints.insert(format!("%nd_{name}"), model.bv_val(full));
    }
    let mut nondet_bools: HashMap<String, bool> = HashMap::new();
    for full in enc.blaster.bool_inputs.keys() {
        if let Some(name) = full.strip_prefix("ndb!") {
            nondet_bools.insert(format!("%nb_{name}"), model.bool_val(full));
        }
    }

    let _replay_span = rec.map(|r| r.span(Phase::Replay));
    match replay(flat, mm, &schedule, &nondet_ints, &nondet_bools) {
        Ok(_violation) => Ok(Certificate::Unsafe {
            replayed_steps: schedule.len(),
        }),
        Err(e) => Err(reject(e.to_string())),
    }
}
