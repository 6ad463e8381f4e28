//! Fault injection for the certification layer.
//!
//! Certification is only worth its overhead if it actually *rejects*
//! corrupted evidence. This module defines a small set of injectable
//! faults — each corrupting one artifact the certifier relies on — and the
//! hooks [`crate::verifier`] uses to apply them. The test matrix in
//! `tests/` runs every fault against Safe and Unsafe programs and asserts
//! the certifier fails closed (a typed [`crate::VerifyError::Certification`],
//! never a crash, never a silently accepted verdict).
//!
//! Faults are applied *inside* the pipeline, after solving but before
//! certification (except [`Fault::ShuffleGuideOrder`], which perturbs the
//! decision heuristic before solving — a benign control demonstrating the
//! certificate does not depend on heuristic luck — and
//! [`Fault::ForgeSymmetry`], which corrupts the analysis report before it
//! is checked).

use zpre_analysis::{PruneReport, SymPair};
use zpre_prog::ssa::{Event, SsaProgram};
use zpre_sat::{Lit, Proof, ProofStep, Var};

/// One injectable fault.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Fault {
    /// Reverse the interference decision order before solving. Benign:
    /// the verdict and its certificate must be unaffected.
    ShuffleGuideOrder,
    /// Empty every theory-lemma clause of the proof, as if the solver had
    /// logged its lemmas without their literals. An empty clause asserts no
    /// edge, and the fixed edges are acyclic, so no cycle justifies it.
    DropLemmas,
    /// Forge an unjustified theory lemma into the proof: a unit clause over
    /// variable 0, an SSA bit and not an ordering atom.
    ForgeLemma,
    /// Drop the last `n` proof steps, as if the proof log was cut short.
    TruncateProof(usize),
    /// Flip the low bit of the first scheduled access value of the
    /// witness, as if the model extraction misread the assignment.
    FlipModelBit,
    /// Admit a symmetry pair between `main` and the last thread, which are
    /// not identical, as if the detector had matched two different
    /// threads. Applied to the analysis report before it is checked.
    ForgeSymmetry,
}

impl Fault {
    /// Every fault kind, for test matrices.
    pub const ALL: [Fault; 6] = [
        Fault::ShuffleGuideOrder,
        Fault::DropLemmas,
        Fault::ForgeLemma,
        Fault::TruncateProof(1),
        Fault::FlipModelBit,
        Fault::ForgeSymmetry,
    ];

    /// Short display name.
    pub fn name(&self) -> &'static str {
        match self {
            Fault::ShuffleGuideOrder => "shuffle-guide-order",
            Fault::DropLemmas => "drop-lemmas",
            Fault::ForgeLemma => "forge-lemma",
            Fault::TruncateProof(_) => "truncate-proof",
            Fault::FlipModelBit => "flip-model-bit",
            Fault::ForgeSymmetry => "forge-symmetry",
        }
    }
}

/// One injectable batch-harness fault (see [`crate::harness`]): where
/// [`Fault`] corrupts certification artifacts inside one pipeline run,
/// these stress the resilience layer *around* runs — resource pressure,
/// clock trouble, and checkpoint damage. The chaos matrix in `tests/`
/// runs every one of them and asserts the harness fails closed: a faulted
/// batch may degrade tasks to `Unknown`, but never flips a `Safe`/`Unsafe`
/// verdict and never dies.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum BatchFault {
    /// Squeeze every rung under a pathologically small memory cap, as if
    /// the machine were out of memory: encodings are refused up front and
    /// solves abort with `Memory` exhaustion.
    MemberOom,
    /// Arm every rung with an already-expired deadline, as if the clock
    /// had jumped past the budget: solves abort with `Time` exhaustion.
    DeadlineSkew,
    /// Kill the batch at the `n`-th journal append (the append is refused
    /// and the run stops), simulating `kill -9` mid-run at a deterministic
    /// write boundary. `--resume` must complete the remaining work.
    MidBatchKill(u64),
    /// Tear the journal's final line in half before a resume scan reads
    /// it, simulating a crash mid-append. The scan must drop the torn
    /// line and re-derive its content.
    CorruptJournal,
}

impl BatchFault {
    /// Every batch fault kind, for test matrices (the kill fires after 3
    /// journal writes — early enough to leave work behind on any example).
    pub const ALL: [BatchFault; 4] = [
        BatchFault::MemberOom,
        BatchFault::DeadlineSkew,
        BatchFault::MidBatchKill(3),
        BatchFault::CorruptJournal,
    ];

    /// Short display name.
    pub fn name(&self) -> &'static str {
        match self {
            BatchFault::MemberOom => "member-oom",
            BatchFault::DeadlineSkew => "deadline-skew",
            BatchFault::MidBatchKill(_) => "mid-batch-kill",
            BatchFault::CorruptJournal => "corrupt-journal",
        }
    }
}

/// Applies a proof-side fault to the proof of a Safe certification.
pub(crate) fn corrupt_proof(fault: Fault, proof: &mut Proof) {
    match fault {
        Fault::DropLemmas => {
            for step in &mut proof.steps {
                if let ProofStep::Lemma(clause) = step {
                    clause.clear();
                }
            }
        }
        Fault::ForgeLemma => proof
            .steps
            .push(ProofStep::Lemma(vec![Lit::new(Var::new(0), true)])),
        Fault::TruncateProof(n) => {
            let keep = proof.steps.len().saturating_sub(n);
            proof.steps.truncate(keep);
        }
        Fault::ShuffleGuideOrder | Fault::FlipModelBit | Fault::ForgeSymmetry => {}
    }
}

/// [`Fault::ForgeSymmetry`]: pairs `main` with the last thread event by
/// event, value term by value term, and their first events as the anchors.
pub(crate) fn forge_symmetry(ssa: &SsaProgram, report: &mut PruneReport) {
    let last = ssa.num_threads().saturating_sub(1);
    let events: Vec<(&Event, &Event)> = ssa.thread_events(0).zip(ssa.thread_events(last)).collect();
    report.sym_pairs.push(SymPair {
        first: 0,
        second: last,
        anchors: events.first().map_or((0, 0), |(a, b)| (a.id, b.id)),
        events: events.iter().map(|(a, b)| (a.id, b.id)).collect(),
        leaves: events
            .iter()
            .filter_map(|(a, b)| Some((a.kind.value()?, b.kind.value()?)))
            .collect(),
    });
    report.counters.sym_pairs += 1;
}
