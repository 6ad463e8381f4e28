//! Structured solver/theory event taxonomy and the `EventSink` trait.
//!
//! Events carry only what the event stream or a histogram needs. Every
//! search counter (decisions per class, conflicts, restarts, cycle checks,
//! share traffic) lives in the solver's `Stats`, which the session copies
//! into the [`Recorder`](crate::Recorder) once per solve call. The solver
//! holds the variable-class table, so a `Decision` arrives already
//! classified and a `Conflict` carries its closed decision window.

use crate::vocab::VarClass;

/// A structured event emitted by the SAT solver or the order theory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// A branching decision on solver variable `var` of `class`. `guided`
    /// is true when the decision came from the installed `DecisionGuide`
    /// (the paper's priority list) rather than VSIDS.
    Decision {
        var: u32,
        class: VarClass,
        level: u32,
        guided: bool,
    },
    /// A conflict, reported after analysis so the learnt clause's LBD is known.
    /// `level` is the decision level at which the conflict occurred; `window`
    /// counts this solver's decisions per class (indexed by
    /// `VarClass::index()`) since its previous conflict.
    Conflict {
        level: u32,
        lbd: u32,
        window: [u64; VarClass::COUNT],
    },
    /// An order-theory lemma blocking an EOG cycle of `cycle_len` edges.
    TheoryLemma { cycle_len: u32 },
    /// A solver restart. `conflicts` is the restart interval: conflicts
    /// resolved since the previous restart (or since solving began), the
    /// raw observation behind the restart-interval histogram.
    Restart { conflicts: u64 },
    /// A learnt-database reduction that removed `removed` clauses.
    Reduction { removed: u64 },
    /// One EOG cycle check that ran the bounded search (O(1)-accepted
    /// checks emit nothing), touching `visited` nodes. Feeds the
    /// `cycle_visited` histogram only; never stored in the event stream.
    CycleCheck { visited: u32 },
    /// Imported-clause hits since the member's previous share exchange,
    /// emitted at an exchange point (or solve exit) when non-zero. Feeds the
    /// `sh_import_hits` histogram only; never stored in the event stream.
    Share { import_hits: u64 },
}

/// Receiver for solver/theory events. Implementations must be cheap: the
/// solver calls [`EventSink::emit`] on its hot paths whenever a sink is
/// installed (the disabled path is a branch on an `Option` and never calls
/// this).
pub trait EventSink: Send + Sync {
    fn emit(&self, ev: Event);
}
