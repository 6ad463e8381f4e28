//! The telemetry vocabulary: every variable class, phase, scalar counter and
//! histogram the recorder keeps, declared once here with its NDJSON name. The summary
//! writer and parser, snapshot aggregation, `trace stats`, the validator's
//! histogram reconciliation and the diff gate all loop over these tables,
//! so a new piece of telemetry is one new row.

use crate::diff::Direction::{self, HigherBetter, Info, LowerBetter};
use Presence::{Lenient, Required};

/// Declares one vocabulary enum: its variants in NDJSON order, each with a
/// stable name and, in the `Name: Spec` form, a row of further columns
/// that `spec()` returns.
macro_rules! vocabulary {
    ($(#[$meta:meta])* $ty:ident: $spec:ty {
        $($(#[$doc:meta])* $var:ident = $name:literal => $row:expr;)+
    }) => {
        vocabulary!($(#[$meta])* $ty { $($(#[$doc])* $var = $name;)+ });

        impl $ty {
            fn spec(self) -> $spec {
                match self {
                    $($ty::$var => $row,)+
                }
            }
        }
    };
    ($(#[$meta:meta])* $ty:ident {
        $($(#[$doc:meta])* $var:ident = $name:literal;)+
    }) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum $ty {
            $($(#[$doc])* $var,)+
        }

        impl $ty {
            /// Every variant, in declaration (and NDJSON) order.
            pub const ALL: [$ty; [$($name),+].len()] = [$($ty::$var),+];
            /// Number of variants.
            pub const COUNT: usize = Self::ALL.len();

            /// The stable NDJSON name.
            pub fn name(self) -> &'static str {
                match self {
                    $($ty::$var => $name,)+
                }
            }

            /// Inverse of [`Self::name`].
            pub fn from_name(s: &str) -> Option<$ty> {
                Self::ALL.into_iter().find(|v| v.name() == s)
            }

            /// Position in [`Self::ALL`]: the variant's slot in a table.
            pub fn index(self) -> usize {
                self as usize
            }
        }
    };
}

/// Whether a trace's summary line may leave a counter out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Presence {
    /// In every summary line since the first trace format.
    Required,
    /// Added later: traces that predate it omit the key, which parses as 0.
    Lenient,
}

vocabulary! {
    /// Interference-oriented classification of a solver variable, mirroring
    /// the paper's taxonomy: read-from choices crossing threads (`V_rf`
    /// external), read-from choices within a thread, write-serialization
    /// order (`V_ws`), and everything else (SSA values, guards, ordering
    /// atoms, auxiliaries). The name keys per-class summary fields
    /// (`dec_rf_ext`) and `decision` lines; the index sizes per-class arrays.
    #[derive(PartialOrd, Ord)]
    VarClass {
        ExternalRf = "rf_ext";
        InternalRf = "rf_int";
        Ws = "ws";
        Other = "other";
    }
}

impl VarClass {
    /// True for the interference classes the paper's H1 heuristic front-loads.
    pub fn is_interference(self) -> bool {
        !matches!(self, VarClass::Other)
    }
}

vocabulary! {
    /// Pipeline phases tracked by the recorder, one per stage; `Encode`
    /// spans carry the memory model in their label.
    Phase {
        Parse = "parse";
        Unroll = "unroll";
        Ssa = "ssa";
        /// The static interference-pruning pass (`zpre_analysis::analyze`),
        /// once per encoding.
        Analysis = "analysis";
        Encode = "encode";
        Blast = "blast";
        Solve = "solve";
        /// The RUP check of a certified `Safe` proof.
        Certify = "certify";
        /// The replay of an `Unsafe` frame's witness through the concrete
        /// machine, which every satisfiable answer goes through.
        Replay = "replay";
        /// One task of a resilient batch run (`zpre-cli batch`); the span
        /// label carries the task key (program × memory model × mode).
        Batch = "batch";
    }
}

vocabulary! {
    /// The scalar counters of [`Counters`](crate::Counters), in summary-line
    /// order. Each row gives the summary key, whether older traces may omit
    /// it, and the direction the diff gate judges it in.
    Counter: (Presence, Direction) {
        /// Conflicts analysed by the solver.
        Conflicts = "conflicts" => (Required, LowerBetter);
        /// Order-theory lemmas, each blocking one EOG cycle.
        Lemmas = "lemmas" => (Required, LowerBetter);
        /// Sum of EOG cycle lengths over all theory lemmas (for the mean).
        LemmaCycleEdges = "lemma_cycle_edges" => (Required, Info);
        /// Solver restarts.
        Restarts = "restarts" => (Required, LowerBetter);
        /// Learnt-database reductions.
        Reductions = "reductions" => (Required, LowerBetter);
        /// Learnt clauses removed by those reductions.
        ClausesRemoved = "clauses_removed" => (Required, Info);
        /// EOG cycle checks run by the order theory (one per asserted edge).
        CycleChecks = "cc_total" => (Required, Info);
        /// Cycle checks accepted in O(1) by the topological-level invariant.
        CycleAcceptedO1 = "cc_o1" => (Required, HigherBetter);
        /// Cycle checks that ran the bounded two-way search.
        CycleSearched = "cc_searched" => (Required, LowerBetter);
        /// Nodes visited across all cycle-check searches.
        CycleVisited = "cc_visited" => (Required, LowerBetter);
        /// Node-level promotions performed by cycle-check forward passes.
        CyclePromoted = "cc_promoted" => (Required, LowerBetter);
        /// Decision events dropped by the sampling knob (still counted).
        DroppedEvents = "dropped" => (Required, Info);
        /// Frame solves of an incremental bound sweep.
        Frames = "frames" => (Lenient, Info);
        /// Learnt clauses already in the database at frame-solve entry,
        /// summed over frames: the state reuse an incremental sweep buys.
        FrameReusedLearnts = "fr_learnts" => (Lenient, Info);
        /// Conflicts spent by earlier frames at frame-solve entry, summed
        /// over frames.
        FrameReusedConflicts = "fr_conflicts" => (Lenient, Info);
        /// Batch-harness tasks started.
        BatchTasks = "batch_tasks" => (Lenient, Info);
        /// Batch-harness retries (re-runs of a rung after exhaustion, before
        /// moving down the ladder).
        BatchRetries = "batch_retries" => (Lenient, Info);
        /// Batch-harness degradations (moves to a lower rung of the ladder).
        BatchDegraded = "batch_degraded" => (Lenient, Info);
        /// Batch-harness checkpoint records appended to the journal.
        BatchCheckpoints = "batch_checkpoints" => (Lenient, Info);
        /// Clauses exported to the portfolio share pool (any class).
        ShExported = "sh_exported" => (Lenient, Info);
        /// Subset of the exports that were order-theory cycle lemmas.
        ShExportedTheory = "sh_exported_theory" => (Lenient, Info);
        /// Subset of the exports that touched external-RF variables.
        ShExportedRf = "sh_exported_rf" => (Lenient, Info);
        /// Foreign clauses imported and attached by portfolio members.
        ShImported = "sh_imported" => (Lenient, Info);
        /// Foreign clauses rejected at export or import (duplicate, ring
        /// overrun, root-satisfied, policy-filtered).
        ShDropped = "sh_dropped" => (Lenient, Info);
        /// Times an imported clause propagated or conflicted in its importer.
        ShImportHits = "sh_import_hits" => (Lenient, Info);
        /// Interference pruning: rf pairs removed by the static pass (beyond
        /// plain candidate filtering).
        PrRfPruned = "pr_rf_pruned" => (Lenient, Info);
        /// Interference pruning: rf selectors the encoder still emits.
        PrRfKept = "pr_rf_kept" => (Lenient, Info);
        /// Interference pruning: ws pairs with a statically fixed polarity.
        PrWsPruned = "pr_ws_pruned" => (Lenient, Info);
        /// Interference pruning: ws pairs demoted to plain ordering atoms by
        /// mutual exclusion.
        PrWsSerialized = "pr_ws_serialized" => (Lenient, Info);
        /// Interference pruning: reads resolved directly in Φ_ssa.
        PrReadsResolved = "pr_reads_resolved" => (Lenient, Info);
        /// Interference pruning: shared variables local to one thread.
        PrLocalVars = "pr_local_vars" => (Lenient, Info);
        /// Symmetry breaking: adjacent symmetric thread pairs, each worth
        /// one lex-leader clause.
        PrSymPairs = "pr_sym_pairs" => (Lenient, Info);
    }
}

impl Counter {
    /// Whether a summary line may omit this counter.
    pub fn presence(self) -> Presence {
        self.spec().0
    }

    /// How the diff gate judges a change in this counter.
    pub fn direction(self) -> Direction {
        self.spec().1
    }
}

vocabulary! {
    /// The scalar distributions of [`Hists`](crate::Hists), in `hist`-line
    /// order. Each row names the counter that every observation tracks one
    /// for one (a present histogram's count must equal it) and the
    /// direction the diff gate judges its percentiles and maximum in.
    Hist: (Option<Counter>, Direction) {
        /// LBD of each learnt conflict clause.
        ConflictLbd = "conflict_lbd" => (Some(Counter::Conflicts), LowerBetter);
        /// Edge count of each EOG cycle blocked by a theory lemma.
        LemmaCycleLen = "lemma_cycle_len" => (Some(Counter::Lemmas), LowerBetter);
        /// Nodes visited by each cycle check that ran the bounded search
        /// (O(1)-accepted checks are not observed: they visit nothing).
        CycleVisited = "cycle_visited" => (Some(Counter::CycleSearched), LowerBetter);
        /// Restart interval: conflicts between consecutive restarts.
        RestartInterval = "restart_interval" => (Some(Counter::Restarts), Info);
        /// Wall-clock microseconds of each incremental-sweep frame solve.
        FrameSolveUs = "frame_solve_us" => (None, Info);
        /// Imported-clause hits per share exchange, observed once per
        /// exchange that had any.
        ShImportHits = "sh_import_hits" => (None, Info);
    }
}

impl Hist {
    /// The counter this histogram observes once per increment, if any.
    pub fn counter(self) -> Option<Counter> {
        self.spec().0
    }

    /// How the diff gate judges this histogram's percentiles and maximum.
    pub fn direction(self) -> Direction {
        self.spec().1
    }
}
