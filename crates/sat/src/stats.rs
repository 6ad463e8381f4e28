//! Search statistics and resource budgets.
//!
//! The statistics mirror what Table 2 of the paper reports (decisions,
//! propagations, conflicts) plus bookkeeping useful for diagnosing the
//! solver itself. The budget supports a deterministic conflict cap
//! (reproducible "timeouts"), a wall-clock deadline, and a shared
//! [`CancelToken`] for cooperative cross-thread cancellation (the hook the
//! portfolio engine in the `zpre` core crate uses to stop losing solvers).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use zpre_obs::VarClass;

/// Counters accumulated during search.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Stats {
    /// Number of decisions (guided + VSIDS).
    pub decisions: u64,
    /// Decisions answered by the installed [`crate::DecisionGuide`].
    pub guided_decisions: u64,
    /// `decisions` split by the decided variable's class (indexed by
    /// [`VarClass::index`]; see [`crate::Solver::set_var_class`]).
    pub class_decisions: [u64; VarClass::COUNT],
    /// `guided_decisions` split by class.
    pub class_guided: [u64; VarClass::COUNT],
    /// Implied assignments (Boolean unit propagation + theory propagation).
    pub propagations: u64,
    /// Conflicts encountered (Boolean + theory).
    pub conflicts: u64,
    /// Conflicts raised by the theory.
    pub theory_conflicts: u64,
    /// Literals assigned by theory propagation.
    pub theory_propagations: u64,
    /// Restarts performed.
    pub restarts: u64,
    /// Learnt clauses recorded.
    pub learnt_clauses: u64,
    /// Total literals across learnt clauses (after minimization).
    pub learnt_literals: u64,
    /// Literals removed by clause minimization.
    pub minimized_lits: u64,
    /// Learnt-database reductions.
    pub reductions: u64,
    /// EOG cycle checks run by the order theory (one per asserted edge).
    pub eog_checks: u64,
    /// Cycle checks accepted in O(1) by the topological-level invariant.
    pub eog_accepted_o1: u64,
    /// Nodes visited by cycle-check searches.
    pub eog_visited: u64,
    /// Node-level promotions performed by cycle-check forward passes.
    pub eog_promoted: u64,
    /// Clauses exported to the share pool (all classes).
    pub sh_exported: u64,
    /// Order-theory cycle lemmas among the exports.
    pub sh_exported_theory: u64,
    /// External-RF interference clauses among the exports.
    pub sh_exported_rf: u64,
    /// Foreign clauses imported and attached from the share pool.
    pub sh_imported: u64,
    /// Share-pool clauses dropped (filter, duplicate, or ring eviction).
    pub sh_dropped: u64,
    /// Times an imported clause propagated or participated in a conflict.
    pub sh_import_hits: u64,
}

impl Stats {
    /// Component-wise sum, for aggregating across tasks.
    pub fn accumulate(&mut self, other: &Stats) {
        self.combine(other, |a, b| *a += b);
    }

    /// Component-wise difference from an `earlier` reading of the same
    /// counters: the work done in between.
    pub fn since(&self, earlier: &Stats) -> Stats {
        let mut delta = *self;
        delta.combine(earlier, |a, b| *a -= b);
        delta
    }

    /// Applies `f` to every counter of `self` paired with the same counter
    /// of `other`.
    ///
    /// The exhaustive destructuring (no `..` rest pattern) makes this fail to
    /// compile when a counter is added to `Stats` without being combined
    /// here — a field can never again be silently dropped from aggregation.
    fn combine(&mut self, other: &Stats, f: impl Fn(&mut u64, u64)) {
        let Stats {
            decisions,
            guided_decisions,
            class_decisions,
            class_guided,
            propagations,
            conflicts,
            theory_conflicts,
            theory_propagations,
            restarts,
            learnt_clauses,
            learnt_literals,
            minimized_lits,
            reductions,
            eog_checks,
            eog_accepted_o1,
            eog_visited,
            eog_promoted,
            sh_exported,
            sh_exported_theory,
            sh_exported_rf,
            sh_imported,
            sh_dropped,
            sh_import_hits,
        } = *other;
        for (a, b) in [
            (&mut self.decisions, decisions),
            (&mut self.guided_decisions, guided_decisions),
            (&mut self.propagations, propagations),
            (&mut self.conflicts, conflicts),
            (&mut self.theory_conflicts, theory_conflicts),
            (&mut self.theory_propagations, theory_propagations),
            (&mut self.restarts, restarts),
            (&mut self.learnt_clauses, learnt_clauses),
            (&mut self.learnt_literals, learnt_literals),
            (&mut self.minimized_lits, minimized_lits),
            (&mut self.reductions, reductions),
            (&mut self.eog_checks, eog_checks),
            (&mut self.eog_accepted_o1, eog_accepted_o1),
            (&mut self.eog_visited, eog_visited),
            (&mut self.eog_promoted, eog_promoted),
            (&mut self.sh_exported, sh_exported),
            (&mut self.sh_exported_theory, sh_exported_theory),
            (&mut self.sh_exported_rf, sh_exported_rf),
            (&mut self.sh_imported, sh_imported),
            (&mut self.sh_dropped, sh_dropped),
            (&mut self.sh_import_hits, sh_import_hits),
        ] {
            f(a, b);
        }
        let mine = self
            .class_decisions
            .iter_mut()
            .chain(&mut self.class_guided);
        for (a, b) in mine.zip(class_decisions.into_iter().chain(class_guided)) {
            f(a, b);
        }
    }
}

/// Why a solve stopped without a verdict.
///
/// Produced by [`Budget::exhausted_reason`] / [`Budget::interrupted_reason`]
/// and surfaced by the solver (and every layer above it: sweep frames,
/// portfolio members, the batch harness) whenever a call returns
/// [`crate::SolveResult::Unknown`]. `Quarantined` is never produced by the
/// solver itself — it is assigned by supervising layers (portfolio, batch
/// harness) when a worker panicked and was caught.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExhaustionReason {
    /// The deterministic conflict cap was reached.
    Conflicts,
    /// The wall-clock deadline passed.
    Time,
    /// The byte-accounted memory cap was exceeded (clause arena + trail +
    /// per-variable bookkeeping), or a pre-blast size estimate rejected the
    /// encoding outright.
    Memory,
    /// A shared [`CancelToken`] was tripped by another thread.
    Cancelled,
    /// The task panicked and was caught by a supervising layer.
    Quarantined,
}

impl ExhaustionReason {
    /// Stable lowercase identifier, used in journals, traces, and JSON.
    pub fn name(self) -> &'static str {
        match self {
            ExhaustionReason::Conflicts => "conflicts",
            ExhaustionReason::Time => "time",
            ExhaustionReason::Memory => "memory",
            ExhaustionReason::Cancelled => "cancelled",
            ExhaustionReason::Quarantined => "quarantined",
        }
    }

    /// Inverse of [`ExhaustionReason::name`], for journal/trace parsing.
    pub fn from_name(s: &str) -> Option<ExhaustionReason> {
        Some(match s {
            "conflicts" => ExhaustionReason::Conflicts,
            "time" => ExhaustionReason::Time,
            "memory" => ExhaustionReason::Memory,
            "cancelled" => ExhaustionReason::Cancelled,
            "quarantined" => ExhaustionReason::Quarantined,
            _ => return None,
        })
    }

    /// Every variant, for exhaustive tests and chaos matrices.
    pub const ALL: [ExhaustionReason; 5] = [
        ExhaustionReason::Conflicts,
        ExhaustionReason::Time,
        ExhaustionReason::Memory,
        ExhaustionReason::Cancelled,
        ExhaustionReason::Quarantined,
    ];
}

impl std::fmt::Display for ExhaustionReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A shared cooperative-cancellation flag.
///
/// Cloning the token shares the underlying flag: any clone may
/// [`cancel`](CancelToken::cancel) and every solver whose [`Budget`] carries
/// a clone observes the trip at its next budget check (a bounded
/// propagation stride away, even on conflict-free instances) and returns
/// [`crate::SolveResult::Unknown`]. This is the mechanism the portfolio
/// verifier uses to stop losing strategies once a winner finishes.
#[derive(Debug, Default, Clone)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, untripped token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Trips the token. Irrevocable; all clones observe it.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Release);
    }

    /// `true` once any clone has called [`cancel`](CancelToken::cancel).
    #[inline]
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }
}

/// Resource limits for a `solve` call. An exhausted budget makes the solver
/// return [`crate::SolveResult::Unknown`].
///
/// The conflict cap stays deterministic: it is consulted against the
/// conflict counter, which only moves at conflict points. The wall-clock
/// deadline and the cancellation token are *also* polled on a periodic
/// propagation stride inside the search loop, so propagation-heavy or
/// conflict-free solves still stop promptly.
#[derive(Debug, Default, Clone)]
pub struct Budget {
    /// Absolute cap on total conflicts (deterministic "timeout").
    pub max_conflicts: Option<u64>,
    /// Wall-clock allowance, measured from [`Budget::start`].
    pub timeout: Option<Duration>,
    /// Shared cooperative-cancellation flag, if any.
    pub cancel: Option<CancelToken>,
    /// Work units (propagations + decisions) between periodic deadline /
    /// cancellation polls in the search loop. `None` uses
    /// [`Budget::DEFAULT_CHECK_STRIDE`].
    pub check_stride: Option<u64>,
    /// Byte-accounted memory cap. The solver estimates its resident
    /// footprint (clause arena — problem plus learnt — trail capacity, and
    /// per-variable bookkeeping) on the same periodic stride as the
    /// deadline poll; exceeding the cap aborts the solve with
    /// [`ExhaustionReason::Memory`] instead of letting the allocator kill
    /// the process.
    pub max_memory_bytes: Option<u64>,
    deadline: Option<Instant>,
}

impl Budget {
    /// Default work-unit stride between deadline/cancellation polls.
    pub const DEFAULT_CHECK_STRIDE: u64 = 1024;

    /// No limits.
    pub fn unlimited() -> Budget {
        Budget::default()
    }

    /// Limits total conflicts to `n`.
    pub fn with_max_conflicts(n: u64) -> Budget {
        Budget {
            max_conflicts: Some(n),
            ..Budget::default()
        }
    }

    /// Limits wall-clock time.
    pub fn with_timeout(t: Duration) -> Budget {
        Budget {
            timeout: Some(t),
            ..Budget::default()
        }
    }

    /// Combines a conflict cap and a wall-clock limit.
    pub fn with_limits(max_conflicts: Option<u64>, timeout: Option<Duration>) -> Budget {
        Budget {
            max_conflicts,
            timeout,
            ..Budget::default()
        }
    }

    /// Attaches a shared cancellation token.
    pub fn with_cancel(mut self, token: CancelToken) -> Budget {
        self.cancel = Some(token);
        self
    }

    /// Overrides the periodic check stride (mainly for tests; the default
    /// amortizes the `Instant::now()` cost to noise).
    pub fn with_check_stride(mut self, stride: u64) -> Budget {
        self.check_stride = Some(stride.max(1));
        self
    }

    /// Caps the solver's estimated resident footprint at `bytes`.
    pub fn with_max_memory(mut self, bytes: u64) -> Budget {
        self.max_memory_bytes = Some(bytes);
        self
    }

    /// `true` when a memory cap is set and `estimated_bytes` exceeds it.
    #[inline]
    pub fn memory_exceeded(&self, estimated_bytes: u64) -> bool {
        matches!(self.max_memory_bytes, Some(cap) if estimated_bytes > cap)
    }

    /// The effective periodic check stride.
    pub fn stride(&self) -> u64 {
        self.check_stride.unwrap_or(Self::DEFAULT_CHECK_STRIDE)
    }

    /// Arms the wall-clock deadline on the first call; later calls are
    /// no-ops. Nested or re-entrant `solve` calls sharing a budget therefore
    /// cannot silently push the deadline out — re-arming is explicit via
    /// [`Budget::restart_deadline`].
    pub fn start(&mut self) {
        if self.deadline.is_none() {
            self.deadline = self.timeout.map(|t| Instant::now() + t);
        }
    }

    /// Explicitly re-arms the wall-clock deadline from *now*, granting a
    /// fresh `timeout` allowance. Used by retry paths (e.g. the portfolio's
    /// bounded baseline retry) that intentionally start a new attempt.
    pub fn restart_deadline(&mut self) {
        self.deadline = self.timeout.map(|t| Instant::now() + t);
    }

    /// `true` once any limit is hit or the cancel token is tripped.
    pub fn exhausted(&self, conflicts: u64) -> bool {
        self.exhausted_reason(conflicts).is_some()
    }

    /// Like [`Budget::exhausted`], but reports *which* limit was hit. The
    /// conflict cap is checked first (deterministic reasons beat wall-clock
    /// ones when both trip in the same poll).
    pub fn exhausted_reason(&self, conflicts: u64) -> Option<ExhaustionReason> {
        if let Some(max) = self.max_conflicts {
            if conflicts >= max {
                return Some(ExhaustionReason::Conflicts);
            }
        }
        self.interrupted_reason()
    }

    /// The non-deterministic half of [`Budget::exhausted`]: cancellation and
    /// the wall-clock deadline, ignoring the conflict cap. This is what the
    /// periodic in-search poll consults.
    pub fn interrupted(&self) -> bool {
        self.interrupted_reason().is_some()
    }

    /// Like [`Budget::interrupted`], but reports the cause. Cancellation is
    /// checked before the deadline: when a portfolio winner cancels the
    /// losers, the loser should report `Cancelled` even if its own deadline
    /// happened to pass in the same stride.
    pub fn interrupted_reason(&self) -> Option<ExhaustionReason> {
        if let Some(tok) = &self.cancel {
            if tok.is_cancelled() {
                return Some(ExhaustionReason::Cancelled);
            }
        }
        if let Some(d) = self.deadline {
            if Instant::now() >= d {
                return Some(ExhaustionReason::Time);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_never_exhausts() {
        let mut b = Budget::unlimited();
        b.start();
        assert!(!b.exhausted(u64::MAX - 1));
    }

    #[test]
    fn conflict_cap() {
        let mut b = Budget::with_max_conflicts(10);
        b.start();
        assert!(!b.exhausted(9));
        assert!(b.exhausted(10));
        assert!(b.exhausted(11));
    }

    #[test]
    fn deadline_in_past_exhausts() {
        let mut b = Budget::with_timeout(Duration::from_nanos(1));
        b.start();
        std::thread::sleep(Duration::from_millis(2));
        assert!(b.exhausted(0));
    }

    #[test]
    fn timeout_not_armed_until_start() {
        let b = Budget::with_timeout(Duration::from_nanos(1));
        // Without start() there is no deadline.
        assert!(!b.exhausted(0));
    }

    #[test]
    fn start_arms_only_once() {
        let mut b = Budget::with_timeout(Duration::from_millis(1));
        b.start();
        std::thread::sleep(Duration::from_millis(3));
        assert!(b.exhausted(0));
        // A nested/re-entrant start() must not grant a fresh allowance: the
        // original deadline stays in force.
        b.start();
        assert!(b.exhausted(0));
    }

    #[test]
    fn restart_deadline_rearms_explicitly() {
        let mut b = Budget::with_timeout(Duration::from_secs(3600));
        b.start();
        assert!(!b.exhausted(0));
        // Simulate an expired deadline, then explicitly re-arm for a retry.
        b.timeout = Some(Duration::from_nanos(1));
        b.restart_deadline();
        std::thread::sleep(Duration::from_millis(2));
        assert!(b.exhausted(0));
        b.timeout = Some(Duration::from_secs(3600));
        b.restart_deadline();
        assert!(!b.exhausted(0));
    }

    #[test]
    fn exhaustion_reason_names_round_trip() {
        for r in ExhaustionReason::ALL {
            assert_eq!(ExhaustionReason::from_name(r.name()), Some(r));
            assert_eq!(format!("{r}"), r.name());
        }
        assert_eq!(ExhaustionReason::from_name("bogus"), None);
    }

    #[test]
    fn conflict_cap_wins_over_deadline() {
        let mut b = Budget::with_limits(Some(5), Some(Duration::from_nanos(1)));
        b.start();
        std::thread::sleep(Duration::from_millis(2));
        // Both tripped; the deterministic reason is reported.
        assert_eq!(b.exhausted_reason(5), Some(ExhaustionReason::Conflicts));
        assert_eq!(b.exhausted_reason(0), Some(ExhaustionReason::Time));
    }

    #[test]
    fn cancel_reported_before_deadline() {
        let tok = CancelToken::new();
        let mut b = Budget::with_timeout(Duration::from_nanos(1)).with_cancel(tok.clone());
        b.start();
        std::thread::sleep(Duration::from_millis(2));
        assert_eq!(b.interrupted_reason(), Some(ExhaustionReason::Time));
        tok.cancel();
        assert_eq!(b.interrupted_reason(), Some(ExhaustionReason::Cancelled));
    }

    #[test]
    fn memory_cap() {
        let b = Budget::unlimited().with_max_memory(1024);
        assert!(!b.memory_exceeded(1024));
        assert!(b.memory_exceeded(1025));
        assert!(!Budget::unlimited().memory_exceeded(u64::MAX));
    }

    #[test]
    fn stats_accumulate() {
        let mut a = Stats {
            decisions: 1,
            conflicts: 2,
            ..Stats::default()
        };
        let b = Stats {
            decisions: 10,
            propagations: 5,
            ..Stats::default()
        };
        a.accumulate(&b);
        assert_eq!(a.decisions, 11);
        assert_eq!(a.conflicts, 2);
        assert_eq!(a.propagations, 5);
    }

    #[test]
    fn stats_accumulate_covers_every_field() {
        // Compile guard: both the literal below and the exhaustive
        // destructuring (no `..` rest pattern) break the build when a counter
        // is added to `Stats`, forcing this test — and `accumulate`, which
        // destructures the same way — to be updated in the same change.
        let one = Stats {
            decisions: 1,
            guided_decisions: 1,
            class_decisions: [1; VarClass::COUNT],
            class_guided: [1; VarClass::COUNT],
            propagations: 1,
            conflicts: 1,
            theory_conflicts: 1,
            theory_propagations: 1,
            restarts: 1,
            learnt_clauses: 1,
            learnt_literals: 1,
            minimized_lits: 1,
            reductions: 1,
            eog_checks: 1,
            eog_accepted_o1: 1,
            eog_visited: 1,
            eog_promoted: 1,
            sh_exported: 1,
            sh_exported_theory: 1,
            sh_exported_rf: 1,
            sh_imported: 1,
            sh_dropped: 1,
            sh_import_hits: 1,
        };
        let mut acc = Stats::default();
        acc.accumulate(&one);
        acc.accumulate(&one);
        let Stats {
            decisions,
            guided_decisions,
            class_decisions,
            class_guided,
            propagations,
            conflicts,
            theory_conflicts,
            theory_propagations,
            restarts,
            learnt_clauses,
            learnt_literals,
            minimized_lits,
            reductions,
            eog_checks,
            eog_accepted_o1,
            eog_visited,
            eog_promoted,
            sh_exported,
            sh_exported_theory,
            sh_exported_rf,
            sh_imported,
            sh_dropped,
            sh_import_hits,
        } = acc;
        for (name, v) in [
            ("decisions", decisions),
            ("guided_decisions", guided_decisions),
            ("propagations", propagations),
            ("conflicts", conflicts),
            ("theory_conflicts", theory_conflicts),
            ("theory_propagations", theory_propagations),
            ("restarts", restarts),
            ("learnt_clauses", learnt_clauses),
            ("learnt_literals", learnt_literals),
            ("minimized_lits", minimized_lits),
            ("reductions", reductions),
            ("eog_checks", eog_checks),
            ("eog_accepted_o1", eog_accepted_o1),
            ("eog_visited", eog_visited),
            ("eog_promoted", eog_promoted),
            ("sh_exported", sh_exported),
            ("sh_exported_theory", sh_exported_theory),
            ("sh_exported_rf", sh_exported_rf),
            ("sh_imported", sh_imported),
            ("sh_dropped", sh_dropped),
            ("sh_import_hits", sh_import_hits),
        ] {
            assert_eq!(v, 2, "field {name} dropped from accumulate");
        }
        for c in VarClass::ALL {
            assert_eq!(class_decisions[c.index()], 2, "class_decisions {c:?}");
            assert_eq!(class_guided[c.index()], 2, "class_guided {c:?}");
        }
        // `since` undoes `accumulate` field by field.
        assert_eq!(acc.since(&one), one);
        assert_eq!(acc.since(&acc), Stats::default());
    }
}
