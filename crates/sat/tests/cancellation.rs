//! Cooperative cancellation and wall-clock deadlines.
//!
//! The budget's non-deterministic limits (deadline, cancel token) are polled
//! on a periodic work-unit stride inside the search loop, so they must fire
//! promptly even on instances that never conflict. These tests drive the
//! solver through a deliberately slow theory to make "wall-clock time per
//! work unit" large and observable.

use std::time::{Duration, Instant};
use zpre_sat::{Budget, CancelToken, Lit, SolveResult, Solver, Theory, TheoryConflict, TheoryOut};

/// A theory that accepts everything but sleeps on each assertion: a stand-in
/// for expensive theory propagation, making solves slow without conflicts.
struct SleepyTheory {
    nap: Duration,
}

impl Theory for SleepyTheory {
    fn assert_lit(&mut self, _lit: Lit, _out: &mut TheoryOut) -> Result<(), TheoryConflict> {
        std::thread::sleep(self.nap);
        Ok(())
    }
    fn new_level(&mut self) {}
    fn backtrack_to(&mut self, _level: u32) {}
    fn explain(&mut self, _lit: Lit) -> &[Lit] {
        unreachable!("SleepyTheory never propagates")
    }
}

/// A solver over `n` free theory variables: zero conflicts, one decision +
/// one slow theory assertion per variable.
fn slow_conflict_free_solver(n: usize, nap: Duration) -> Solver<SleepyTheory, zpre_sat::NoGuide> {
    let mut s = Solver::with_parts(SleepyTheory { nap }, zpre_sat::NoGuide);
    for _ in 0..n {
        let v = s.new_var();
        s.mark_theory_var(v);
    }
    s
}

#[test]
fn conflict_free_solve_honors_short_deadline() {
    // Untimed, this solve would take ~4000 x 500 us = 2 s of theory naps.
    let mut s = slow_conflict_free_solver(4000, Duration::from_micros(500));
    s.set_budget(Budget::with_timeout(Duration::from_millis(50)).with_check_stride(16));
    let t0 = Instant::now();
    let result = s.solve();
    let elapsed = t0.elapsed();
    assert_eq!(result, SolveResult::Unknown);
    assert_eq!(s.stats().conflicts, 0, "instance must be conflict-free");
    // Overshoot is bounded by one check stride of work (16 units x 500 us
    // naps = 8 ms); anything near the untimed runtime means the deadline was
    // only honored at conflicts.
    assert!(
        elapsed < Duration::from_millis(500),
        "deadline overshoot: solve ran {elapsed:?} against a 50 ms deadline"
    );
}

#[test]
fn pre_tripped_token_stops_before_any_search() {
    let mut s = slow_conflict_free_solver(100, Duration::from_micros(100));
    let token = CancelToken::new();
    token.cancel();
    s.set_budget(Budget::unlimited().with_cancel(token));
    assert_eq!(s.solve(), SolveResult::Unknown);
    assert_eq!(
        s.stats().decisions,
        0,
        "cancelled before the first decision"
    );
    assert_eq!(s.stats().propagations, 0);
}

#[test]
fn cross_thread_cancellation_fires_mid_solve() {
    let token = CancelToken::new();
    let cancel_after = Duration::from_millis(20);
    let (result, elapsed) = std::thread::scope(|scope| {
        let solver_token = token.clone();
        let handle = scope.spawn(move || {
            // Untimed runtime ~4000 x 500 us = 2 s.
            let mut s = slow_conflict_free_solver(4000, Duration::from_micros(500));
            s.set_budget(
                Budget::unlimited()
                    .with_cancel(solver_token)
                    .with_check_stride(16),
            );
            let t0 = Instant::now();
            let r = s.solve();
            (r, t0.elapsed())
        });
        std::thread::sleep(cancel_after);
        token.cancel();
        handle.join().expect("solver thread panicked")
    });
    assert_eq!(result, SolveResult::Unknown);
    assert!(
        elapsed < Duration::from_millis(500),
        "cancellation latency too high: solver ran {elapsed:?} after a 20 ms cancel"
    );
}

#[test]
fn conflict_cap_determinism_is_stride_independent() {
    // The periodic poll only consults the non-deterministic limits, so the
    // deterministic conflict cap must yield identical stats at any stride.
    fn php_solver(stride: u64) -> (SolveResult, u64) {
        let mut s: Solver = Solver::new();
        // Pigeonhole PHP(6,5): unsatisfiable, needs many conflicts.
        let holes = 5;
        let pigeons = 6;
        let vars: Vec<Vec<_>> = (0..pigeons)
            .map(|_| (0..holes).map(|_| s.new_var()).collect())
            .collect();
        for p in &vars {
            let clause: Vec<Lit> = p.iter().map(|v| v.positive()).collect();
            s.add_clause(&clause);
        }
        for (i, p1) in vars.iter().enumerate() {
            for p2 in &vars[i + 1..] {
                for (a, b) in p1.iter().zip(p2) {
                    s.add_clause(&[a.negative(), b.negative()]);
                }
            }
        }
        s.set_budget(Budget::with_max_conflicts(20).with_check_stride(stride));
        let r = s.solve();
        (r, s.stats().conflicts)
    }
    let (r1, c1) = php_solver(1);
    let (r2, c2) = php_solver(Budget::DEFAULT_CHECK_STRIDE);
    assert_eq!(r1, SolveResult::Unknown);
    assert_eq!(r1, r2);
    assert_eq!(
        c1, c2,
        "conflict cap must stay deterministic across strides"
    );
}
