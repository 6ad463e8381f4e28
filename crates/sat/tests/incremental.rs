//! Regression tests for incremental (multi-call) solver use: per-call
//! conflict budgets, assumption-prefix restarts, and learnt-cap rescaling.
//!
//! Each test fails on the pre-fix code:
//! - the budget used the *lifetime* conflict counter, pre-exhausting the
//!   second call;
//! - restarts cancelled to level 0, re-deciding every assumption after
//!   every restart;
//! - `max_learnts` armed once behind an `== 0.0` guard, so clauses added
//!   between calls never grew the learnt-DB cap.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use zpre_obs::{Event, EventSink};
use zpre_sat::{Budget, Lit, SolveResult, Solver, Var};

fn vars(s: &mut Solver, n: usize) -> Vec<Var> {
    (0..n).map(|_| s.new_var()).collect()
}

/// PHP(pigeons, holes) clauses, each guarded by `¬g ∨ …` so the instance
/// is only active under the assumption `g` and the solver stays reusable
/// after the Unsat answer.
fn add_guarded_php(s: &mut Solver, g: Lit, pigeons: usize, holes: usize) {
    let x: Vec<Vec<Var>> = (0..pigeons).map(|_| vars(s, holes)).collect();
    for p in &x {
        let mut clause: Vec<Lit> = vec![!g];
        clause.extend(p.iter().map(|v| v.positive()));
        assert!(s.add_clause(&clause));
    }
    for h in 0..holes {
        let hole: Vec<Lit> = x.iter().map(|p| p[h].negative()).collect();
        for (i, &a) in hole.iter().enumerate() {
            for &b in &hole[i + 1..] {
                assert!(s.add_clause(&[!g, a, b]));
            }
        }
    }
}

/// Builds the two-instance solver used by the budget regression: a hard
/// PHP(7,6) behind `g1` and an easy PHP(3,2) behind `g2`.
fn budget_fixture() -> (Solver, Lit, Lit) {
    let mut s = Solver::new();
    let g1 = s.new_var().positive();
    let g2 = s.new_var().positive();
    add_guarded_php(&mut s, g1, 7, 6);
    add_guarded_php(&mut s, g2, 3, 2);
    (s, g1, g2)
}

/// The conflict budget is per solve call, not per solver lifetime: after a
/// first call that spends `c1` conflicts, a second call under the same
/// `max_conflicts` cap must still get its full budget.
#[test]
fn conflict_budget_is_per_call() {
    // Measure the hard call's conflict count on an identically-built
    // solver — the search is deterministic.
    let (mut probe, g1, _) = budget_fixture();
    assert_eq!(probe.solve_with_assumptions(&[g1]), SolveResult::Unsat);
    let c1 = probe.stats().conflicts;
    assert!(c1 >= 2, "hard instance must produce conflicts, got {c1}");

    let (mut s, g1, g2) = budget_fixture();
    // c1 + 1: the final budget check of call 1 runs after its last
    // conflict, so the cap must sit strictly above c1 for it to complete.
    s.set_budget(Budget::with_max_conflicts(c1 + 1));
    assert_eq!(s.solve_with_assumptions(&[g1]), SolveResult::Unsat);
    assert_eq!(s.stats().conflicts, c1);
    assert!(s.assumption_core().contains(&g1));

    // The easy instance needs far fewer than c1 conflicts. With a lifetime
    // counter this call starts pre-exhausted and reports Unknown at its
    // first conflict.
    assert_eq!(s.solve_with_assumptions(&[g2]), SolveResult::Unsat);
    assert!(s.assumption_core().contains(&g2));
    let c2 = s.stats().conflicts - c1;
    assert!(c2 >= 1 && c2 <= c1, "easy call spent {c2} conflicts");
}

/// Counts solver decisions on a contiguous variable range, plus restarts.
struct DecisionCounter {
    lo: u32,
    hi: u32,
    decisions: AtomicU64,
    restarts: AtomicU64,
}

impl EventSink for DecisionCounter {
    fn emit(&self, ev: Event) {
        match ev {
            Event::Decision { var, .. } if var >= self.lo && var < self.hi => {
                self.decisions.fetch_add(1, Ordering::Relaxed);
            }
            Event::Restart { .. } => {
                self.restarts.fetch_add(1, Ordering::Relaxed);
            }
            _ => {}
        }
    }
}

/// Restarts back off to the assumption-prefix level, not the root: the
/// assumptions stay assigned, so they are not re-decided after every
/// restart. Verdict, core, and restart accounting are unchanged.
#[test]
fn restarts_keep_the_assumption_prefix_assigned() {
    const A: usize = 50;
    let mut s = Solver::new();
    // The assumption variables come first (dense indices 0..A) and appear
    // in no clause, so conflict analysis never touches them: any re-decide
    // beyond the first descent (or a unit-learnt backjump to the root) is
    // restart churn.
    let asm_vars = vars(&mut s, A);
    let assumptions: Vec<Lit> = asm_vars.iter().map(|v| v.positive()).collect();
    let g = s.new_var().positive();
    // PHP(8,7) at the default restart base restarts a couple of dozen
    // times, enough for prefix churn to dominate pre-fix.
    add_guarded_php(&mut s, g, 8, 7);

    let counter = Arc::new(DecisionCounter {
        lo: 0,
        hi: A as u32,
        decisions: AtomicU64::new(0),
        restarts: AtomicU64::new(0),
    });
    s.set_event_sink(Some(counter.clone()));

    let mut all = assumptions.clone();
    all.push(g);
    assert_eq!(s.solve_with_assumptions(&all), SolveResult::Unsat);
    // Core preserved: only the guard is responsible, never the free vars.
    assert_eq!(s.assumption_core(), &[g]);

    let restarts = counter.restarts.load(Ordering::Relaxed);
    assert_eq!(restarts, s.stats().restarts, "restart telemetry preserved");
    assert!(restarts >= 10, "PHP(8,7) must restart often: {restarts}");

    // Pre-fix every restart re-decides all A assumptions, giving at least
    // A * restarts decisions on the prefix range; post-fix only the first
    // descent and root-level backjumps (unit learnts) do.
    let asm_decisions = counter.decisions.load(Ordering::Relaxed);
    assert!(
        asm_decisions < (A as u64) * restarts / 2,
        "assumption prefix re-decided on restarts: {asm_decisions} decisions \
         over {restarts} restarts"
    );

    // A satisfiable call under the same prefix still works and honors it.
    s.set_event_sink(None);
    assert_eq!(s.solve_with_assumptions(&assumptions), SolveResult::Sat);
    for a in &assumptions {
        assert!(s.model_value(*a).is_true());
    }
}

/// The learnt-DB cap rescales against the problem size at every solve
/// entry: clauses added between incremental calls grow the cap instead of
/// leaving a first-call-sized cap to thrash `reduce_db`.
#[test]
fn learnt_cap_rescales_with_clause_growth() {
    let mut s = Solver::new();
    let a = s.new_var();
    assert!(s.add_clause(&[a.positive()]));
    assert_eq!(s.solve(), SolveResult::Sat);
    assert_eq!(s.learnt_cap(), 2000.0, "floor cap after a tiny first call");

    // Grow the problem 10×-plus between calls: 30k binary clauses.
    let v = vars(&mut s, 600);
    let mut added = 0usize;
    'outer: for i in 0..v.len() {
        for j in i + 1..v.len() {
            assert!(s.add_clause(&[v[i].positive(), v[j].positive()]));
            added += 1;
            if added == 30_000 {
                break 'outer;
            }
        }
    }
    assert_eq!(s.solve(), SolveResult::Sat);
    assert!(
        s.learnt_cap() >= 30_000.0 / 3.0,
        "cap must track problem growth, got {}",
        s.learnt_cap()
    );
}

/// The cap never shrinks: growth earned by `reduce_db` pressure survives
/// later solve entries (monotone max).
#[test]
fn learnt_cap_is_monotone() {
    let mut s = Solver::new();
    let v = vars(&mut s, 60);
    for i in 0..v.len() - 1 {
        assert!(s.add_clause(&[v[i].positive(), v[i + 1].positive()]));
    }
    assert_eq!(s.solve(), SolveResult::Sat);
    let cap1 = s.learnt_cap();
    assert_eq!(s.solve(), SolveResult::Sat);
    assert!(s.learnt_cap() >= cap1);
}
