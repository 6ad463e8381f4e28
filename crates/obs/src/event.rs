//! Structured solver/theory event taxonomy and the `EventSink` trait.
//!
//! The solver and the order theory know nothing about variable *classes*
//! (external-RF / internal-RF / WS / …): that mapping lives in the encoder's
//! `VarRegistry`. They therefore emit events keyed by raw variable index, and
//! the [`Recorder`](crate::Recorder) resolves the class at record time from a
//! table installed by the verifier after encoding.

/// A structured event emitted by the SAT solver or the order theory.
///
/// Variables are raw solver indices; class resolution happens in the sink.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// A branching decision. `guided` is true when the decision came from the
    /// installed `DecisionGuide` (the paper's priority list) rather than VSIDS.
    Decision { var: u32, level: u32, guided: bool },
    /// A conflict, reported after analysis so the learnt clause's LBD is known.
    /// `level` is the decision level at which the conflict occurred.
    Conflict { level: u32, lbd: u32 },
    /// An order-theory lemma blocking an EOG cycle of `cycle_len` edges.
    TheoryLemma { cycle_len: u32 },
    /// A solver restart. `conflicts` is the restart interval: conflicts
    /// resolved since the previous restart (or since solving began), the
    /// raw observation behind the restart-interval histogram.
    Restart { conflicts: u64 },
    /// A learnt-database reduction that removed `removed` clauses.
    Reduction { removed: u64 },
    /// One EOG cycle check by the order theory. `accepted_o1` is true when
    /// the topological-level invariant accepted the edge without any search;
    /// otherwise `visited` nodes were touched by the bounded two-way search
    /// and `promoted` nodes had their level raised. Folded into counters
    /// only — never stored in the event stream (it fires per asserted atom).
    CycleCheck {
        visited: u32,
        promoted: u32,
        accepted_o1: bool,
    },
    /// Clause-sharing traffic deltas, emitted by a portfolio member at
    /// exchange points (root-level imports) and once at solve exit. All
    /// fields are increments since the member's previous `Share` event.
    /// Folded into counters only — never stored in the event stream.
    Share {
        /// Clauses offered to the pool (any class).
        exported: u64,
        /// Subset of `exported` that were theory cycle lemmas.
        exported_theory: u64,
        /// Subset of `exported` that touched external-RF variables.
        exported_rf: u64,
        /// Foreign clauses attached by this member.
        imported: u64,
        /// Foreign clauses rejected (duplicate, ring overrun, root-satisfied,
        /// or policy-filtered).
        dropped: u64,
        /// Times an imported clause propagated or conflicted here.
        import_hits: u64,
    },
}

/// Receiver for solver/theory events. Implementations must be cheap: the
/// solver calls [`EventSink::emit`] on its hot paths whenever a sink is
/// installed (the disabled path is a branch on an `Option` and never calls
/// this).
pub trait EventSink: Send + Sync {
    fn emit(&self, ev: Event);
}
