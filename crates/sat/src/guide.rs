//! Pluggable decision guides — the hook the paper's *enhanced `decide()`*
//! (Fig. 5 of the paper) plugs into.
//!
//! Before falling back to its default VSIDS + phase-saving heuristic, the
//! solver asks the installed [`DecisionGuide`] for the next decision. The
//! ZPRE guide (in the `zpre` core crate) answers with the first unassigned
//! interference variable under the generated decision order; once all
//! interference variables are assigned it answers `None` and the default
//! heuristics take over — exactly the paper's enhanced DPLL(T) loop.
//!
//! One divergence from the paper: it gives each interference variable "a
//! random Boolean value" at every decision. [`PriorityListGuide`] flips the
//! coin only for a variable's first decision; every later decision on it
//! (after a backjump or restart) reuses its saved phase, the value the
//! solver last assigned it. Re-drawing discarded the rf/ws choice the search
//! last found consistent and multiplied conflicts on unstructured programs.

use crate::lit::{LBool, Lit, Var};

/// A read-only view of the current variable assignment.
#[derive(Copy, Clone)]
pub struct AssignView<'a> {
    /// The value of every literal, indexed by [`Lit::code`].
    lit_values: &'a [LBool],
    /// The saved phase of every variable: the polarity it was last
    /// assigned, by decision or propagation (`false` if never assigned).
    phase: &'a [bool],
}

impl<'a> AssignView<'a> {
    pub(crate) fn new(lit_values: &'a [LBool], phase: &'a [bool]) -> AssignView<'a> {
        AssignView { lit_values, phase }
    }

    /// Value of variable with dense index `var_index`.
    #[inline]
    pub fn var_value(&self, var_index: usize) -> LBool {
        self.lit_values[Var::new(var_index as u32).positive().code()]
    }

    /// Saved phase of variable with dense index `var_index`.
    #[inline]
    pub fn saved_phase(&self, var_index: usize) -> bool {
        self.phase[var_index]
    }

    /// Number of variables in the solver.
    #[inline]
    pub fn num_vars(&self) -> usize {
        self.lit_values.len() / 2
    }
}

/// A decision heuristic consulted before the solver's built-in VSIDS.
pub trait DecisionGuide {
    /// Returns the next decision literal, or `None` to defer to VSIDS.
    /// The returned literal's variable must be unassigned.
    fn next_decision(&mut self, view: AssignView<'_>) -> Option<Lit>;

    /// A new decision level was opened (after the decision was enqueued).
    fn on_new_level(&mut self) {}

    /// The solver backtracked to `level`.
    fn on_backtrack(&mut self, level: u32) {
        let _ = level;
    }

    /// The solver restarted. Under assumptions the restart backtracks to
    /// the assumption-prefix level, not the root, so levels may still be
    /// open when this fires (always after the matching `on_backtrack`).
    fn on_restart(&mut self) {}
}

/// The default guide: always defers to VSIDS.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoGuide;

impl DecisionGuide for NoGuide {
    fn next_decision(&mut self, _view: AssignView<'_>) -> Option<Lit> {
        None
    }
}

/// A guide driven by an explicit priority list of variables.
///
/// `next_decision` returns the first unassigned variable of the list. Its
/// first decision on a list position draws the polarity from a seeded
/// xorshift RNG (the paper assigns interference variables "a random Boolean
/// value"); every later one reuses the variable's saved phase. A cursor with
/// per-level snapshots makes the scan amortized O(1) per decision.
#[derive(Debug, Clone)]
pub struct PriorityListGuide {
    /// Variable indices in decision-priority order (highest priority first).
    order: Vec<u32>,
    /// Scan cursor: everything before it is assigned at the current level.
    cursor: usize,
    /// Cursor snapshots, one per open decision level.
    saved: Vec<usize>,
    /// Per list position: has its first decision drawn a polarity yet?
    /// Restarts, backtracking and sweep frames leave it alone.
    drawn: Vec<bool>,
    /// xorshift64* state for polarity choice.
    rng_state: u64,
    /// If `Some(p)`, always use polarity `p` (the `zpre-fixed-true` ablation).
    fixed_polarity: Option<bool>,
}

impl PriorityListGuide {
    /// Creates a guide deciding `order` (highest priority first), drawing
    /// first-decision polarities from `seed`.
    pub fn new(order: Vec<u32>, seed: u64) -> PriorityListGuide {
        PriorityListGuide {
            drawn: vec![false; order.len()],
            order,
            cursor: 0,
            saved: Vec::new(),
            // xorshift must not start at 0.
            rng_state: seed | 1,
            fixed_polarity: None,
        }
    }

    /// Forces a fixed decision polarity instead of a drawn or saved one.
    pub fn with_fixed_polarity(mut self, polarity: bool) -> PriorityListGuide {
        self.fixed_polarity = Some(polarity);
        self
    }

    fn next_bool(&mut self) -> bool {
        // xorshift64* — tiny, deterministic, good enough for polarity noise.
        let mut x = self.rng_state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng_state = x;
        (x.wrapping_mul(0x2545F4914F6CDD1D) >> 63) & 1 == 1
    }
}

impl DecisionGuide for PriorityListGuide {
    fn next_decision(&mut self, view: AssignView<'_>) -> Option<Lit> {
        while self.cursor < self.order.len() {
            let v = self.order[self.cursor] as usize;
            if view.var_value(v).is_undef() {
                let polarity = match self.fixed_polarity {
                    Some(p) => p,
                    None if self.drawn[self.cursor] => view.saved_phase(v),
                    None => {
                        self.drawn[self.cursor] = true;
                        self.next_bool()
                    }
                };
                return Some(crate::lit::Var::new(v as u32).lit(polarity));
            }
            self.cursor += 1;
        }
        None
    }

    fn on_new_level(&mut self) {
        self.saved.push(self.cursor);
    }

    fn on_backtrack(&mut self, level: u32) {
        let level = level as usize;
        if level < self.saved.len() {
            self.cursor = self.saved[level];
            self.saved.truncate(level);
        }
    }

    fn on_restart(&mut self) {
        // Rescan from the front. Levels may still be open (a restart under
        // assumptions keeps the prefix), so zero the snapshots instead of
        // dropping them: a cursor at or before the first unassigned list
        // variable is always valid, it just re-skips assigned vars.
        self.cursor = 0;
        for s in &mut self.saved {
            *s = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The literal-indexed table a view reads, from per-variable values.
    fn lit_table(assigns: &[LBool]) -> Vec<LBool> {
        assigns.iter().flat_map(|&a| [a.negate(), a]).collect()
    }

    /// All-false saved phases, enough for every test's variables.
    static NO_PHASE: [bool; 16] = [false; 16];

    fn view(lit_values: &[LBool]) -> AssignView<'_> {
        AssignView::new(lit_values, &NO_PHASE[..lit_values.len() / 2])
    }

    #[test]
    fn no_guide_defers() {
        let assigns = vec![LBool::Undef; 4];
        assert!(NoGuide.next_decision(view(&lit_table(&assigns))).is_none());
    }

    #[test]
    fn priority_guide_picks_first_unassigned() {
        let mut assigns = vec![LBool::Undef; 4];
        let mut g = PriorityListGuide::new(vec![2, 0, 3], 7).with_fixed_polarity(true);
        assert_eq!(
            g.next_decision(view(&lit_table(&assigns))),
            Some(Var::new(2).positive())
        );
        assigns[2] = LBool::True;
        assert_eq!(
            g.next_decision(view(&lit_table(&assigns))),
            Some(Var::new(0).positive())
        );
        assigns[0] = LBool::False;
        assigns[3] = LBool::True;
        assert_eq!(g.next_decision(view(&lit_table(&assigns))), None);
    }

    #[test]
    fn cursor_restores_on_backtrack() {
        let mut assigns = vec![LBool::Undef; 3];
        let mut g = PriorityListGuide::new(vec![0, 1, 2], 7).with_fixed_polarity(false);
        // level 0 decision: var 0
        assert_eq!(
            g.next_decision(view(&lit_table(&assigns))),
            Some(Var::new(0).negative())
        );
        assigns[0] = LBool::False;
        g.on_new_level();
        assert_eq!(
            g.next_decision(view(&lit_table(&assigns))),
            Some(Var::new(1).negative())
        );
        assigns[1] = LBool::False;
        g.on_new_level();
        assert_eq!(
            g.next_decision(view(&lit_table(&assigns))),
            Some(Var::new(2).negative())
        );
        // Backtrack to level 1: vars 1,2 unassigned again.
        assigns[1] = LBool::Undef;
        assigns[2] = LBool::Undef;
        g.on_backtrack(1);
        assert_eq!(
            g.next_decision(view(&lit_table(&assigns))),
            Some(Var::new(1).negative())
        );
    }

    #[test]
    fn restart_rescans_from_front() {
        let mut assigns = vec![LBool::Undef; 2];
        let mut g = PriorityListGuide::new(vec![0, 1], 7).with_fixed_polarity(true);
        assigns[0] = LBool::True;
        assert_eq!(
            g.next_decision(view(&lit_table(&assigns))),
            Some(Var::new(1).positive())
        );
        assigns[0] = LBool::Undef;
        g.on_restart();
        assert_eq!(
            g.next_decision(view(&lit_table(&assigns))),
            Some(Var::new(0).positive())
        );
    }

    #[test]
    fn restart_with_open_assumption_levels_keeps_snapshots_valid() {
        // Mirror of the solver's assumption-prefix restart: backtrack to
        // level 1 (not 0), then on_restart with a level still open.
        let mut assigns = vec![LBool::Undef; 3];
        let mut g = PriorityListGuide::new(vec![0, 1, 2], 7).with_fixed_polarity(true);
        assigns[0] = LBool::True; // assumption at level 1
        g.on_new_level();
        assert_eq!(
            g.next_decision(view(&lit_table(&assigns))),
            Some(Var::new(1).positive())
        );
        assigns[1] = LBool::True;
        g.on_new_level();
        assigns[2] = LBool::True;
        // Restart keeping the assumption: levels 2.. are undone.
        assigns[1] = LBool::Undef;
        assigns[2] = LBool::Undef;
        g.on_backtrack(1);
        g.on_restart();
        assert_eq!(
            g.next_decision(view(&lit_table(&assigns))),
            Some(Var::new(1).positive())
        );
        // A later backtrack to level 1 must restore a valid cursor.
        assigns[1] = LBool::True;
        g.on_new_level();
        assigns[2] = LBool::True;
        assigns[1] = LBool::Undef;
        assigns[2] = LBool::Undef;
        g.on_backtrack(1);
        assert_eq!(
            g.next_decision(view(&lit_table(&assigns))),
            Some(Var::new(1).positive())
        );
    }

    #[test]
    fn random_polarity_is_deterministic_per_seed() {
        let assigns = vec![LBool::Undef; 1];
        let mut g1 = PriorityListGuide::new(vec![0], 42);
        let mut g2 = PriorityListGuide::new(vec![0], 42);
        assert_eq!(
            g1.next_decision(view(&lit_table(&assigns))),
            g2.next_decision(view(&lit_table(&assigns)))
        );
    }

    #[test]
    fn first_decision_draws_from_the_rng() {
        let assigns = lit_table(&[LBool::Undef; 2]);
        for seed in [1, 7, 42, 0xDECADE] {
            let mut g = PriorityListGuide::new(vec![1, 0], seed);
            let drawn = g.clone().next_bool();
            // The saved phase disagrees with the draw; the draw wins.
            let phase = [!drawn; 2];
            assert_eq!(
                g.next_decision(AssignView::new(&assigns, &phase)),
                Some(Var::new(1).lit(drawn))
            );
        }
    }

    #[test]
    fn redecision_after_backtrack_reuses_saved_phase() {
        let mut assigns = vec![LBool::Undef; 2];
        let mut g = PriorityListGuide::new(vec![0, 1], 7);
        let first = g.next_decision(view(&lit_table(&assigns))).unwrap();
        assert_eq!(first.var(), Var::new(0));
        g.on_new_level();
        assigns[0] = LBool::from_bool(first.sign());
        g.on_backtrack(0);
        assigns[0] = LBool::Undef;
        let rng_before = g.rng_state;
        for polarity in [true, false] {
            let phase = [polarity, false];
            let mut probe = g.clone();
            assert_eq!(
                probe.next_decision(AssignView::new(&lit_table(&assigns), &phase)),
                Some(Var::new(0).lit(polarity))
            );
            assert_eq!(probe.rng_state, rng_before, "a re-decision draws nothing");
        }
    }

    #[test]
    fn drawn_survives_restart() {
        let mut assigns = vec![LBool::Undef; 1];
        let mut g = PriorityListGuide::new(vec![0], 7);
        let first = g.next_decision(view(&lit_table(&assigns))).unwrap();
        g.on_new_level();
        assigns[0] = LBool::from_bool(first.sign());
        g.on_backtrack(0);
        g.on_restart();
        assigns[0] = LBool::Undef;
        assert!(g.drawn[0]);
        let phase = [!first.sign()];
        assert_eq!(
            g.next_decision(AssignView::new(&lit_table(&assigns), &phase)),
            Some(Var::new(0).lit(!first.sign()))
        );
    }

    #[test]
    fn fixed_polarity_ignores_saved_phase() {
        let assigns = lit_table(&[LBool::Undef; 1]);
        let mut g = PriorityListGuide::new(vec![0], 7).with_fixed_polarity(true);
        let phase = [false];
        for _ in 0..3 {
            assert_eq!(
                g.next_decision(AssignView::new(&assigns, &phase)),
                Some(Var::new(0).positive())
            );
            g.on_new_level();
            g.on_backtrack(0);
            g.on_restart();
        }
    }

    /// Property: after any interleaving of decisions, propagations,
    /// backtracks, and restarts (sequenced exactly as the solver sequences
    /// its guide callbacks), `next_decision` equals a naive scan-from-zero
    /// over the priority list. Guards the per-level cursor snapshots.
    mod cursor_semantics {
        use super::*;
        use proptest::prelude::*;

        /// Solver-side mirror: assignment array + per-variable level.
        struct Sim {
            assigns: Vec<LBool>,
            assigned_level: Vec<usize>,
            level: usize,
        }

        impl Sim {
            fn new(num_vars: usize) -> Sim {
                Sim {
                    assigns: vec![LBool::Undef; num_vars],
                    assigned_level: vec![0; num_vars],
                    level: 0,
                }
            }

            fn assign(&mut self, v: usize) {
                self.assigns[v] = LBool::True;
                self.assigned_level[v] = self.level;
            }

            fn first_unassigned(&self) -> Option<usize> {
                self.assigns.iter().position(|a| a.is_undef())
            }

            fn undo_above(&mut self, target: usize) {
                for v in 0..self.assigns.len() {
                    if !self.assigns[v].is_undef() && self.assigned_level[v] > target {
                        self.assigns[v] = LBool::Undef;
                    }
                }
            }
        }

        /// The specification `next_decision` must match: first variable of
        /// the priority list unassigned in the current view.
        fn naive_scan(order: &[u32], assigns: &[LBool]) -> Option<usize> {
            order
                .iter()
                .map(|&v| v as usize)
                .find(|&v| assigns[v].is_undef())
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            #[test]
            fn next_decision_matches_naive_scan(
                num_vars in 4usize..10,
                // Priority list over a subset of the vars; duplicates are
                // harmless and stress the skip-assigned path.
                order in prop::collection::vec(0u32..10, 1..12),
                // (op kind, operand) pairs; operands are reduced modulo
                // whatever is legal when the op runs.
                ops in prop::collection::vec((0usize..5, 0usize..16), 1..60),
            ) {
                let order: Vec<u32> =
                    order.into_iter().filter(|&v| (v as usize) < num_vars).collect();
                prop_assume!(!order.is_empty());
                let mut g =
                    PriorityListGuide::new(order.clone(), 0xDECADE).with_fixed_polarity(true);
                let mut sim = Sim::new(num_vars);
                for &(op, operand) in &ops {
                    match op {
                        // Decision: guide consulted first, then the level
                        // opens (on_new_level), then the enqueue — the
                        // solver's decide() ordering.
                        0 => {
                            let got = g.next_decision(view(&lit_table(&sim.assigns)));
                            let expect = naive_scan(&order, &sim.assigns);
                            prop_assert_eq!(
                                got.map(|l| l.var().index()),
                                expect,
                                "decision disagrees with naive scan"
                            );
                            let decided = got.map(|l| l.var().index()).or_else(|| {
                                // VSIDS fallback decides some non-list var.
                                sim.first_unassigned()
                            });
                            if let Some(v) = decided {
                                g.on_new_level();
                                sim.level += 1;
                                sim.assign(v);
                            }
                        }
                        // Propagation: an implied assignment at the current
                        // level, no guide callback.
                        1 => {
                            let unassigned: Vec<usize> = (0..num_vars)
                                .filter(|&v| sim.assigns[v].is_undef())
                                .collect();
                            if !unassigned.is_empty() {
                                sim.assign(unassigned[operand % unassigned.len()]);
                            }
                        }
                        // Backtrack to a strictly lower level.
                        2 => {
                            if sim.level > 0 {
                                let target = operand % sim.level;
                                sim.undo_above(target);
                                sim.level = target;
                                g.on_backtrack(target as u32);
                            }
                        }
                        // Restart: cancel_until(0) then on_restart, as in
                        // the solver's assumption-free restart path.
                        3 => {
                            if sim.level > 0 {
                                sim.undo_above(0);
                                sim.level = 0;
                                g.on_backtrack(0);
                            }
                            g.on_restart();
                        }
                        // Assumption-prefix restart: backtrack to some
                        // still-open level, then on_restart — levels stay
                        // open across the restart.
                        _ => {
                            if sim.level > 0 {
                                let target = operand % sim.level;
                                sim.undo_above(target);
                                sim.level = target;
                                g.on_backtrack(target as u32);
                            }
                            g.on_restart();
                        }
                    }
                    // Invariant after every op, probed on a clone so the
                    // check itself cannot mask cursor corruption.
                    let mut probe = g.clone();
                    let got = probe.next_decision(view(&lit_table(&sim.assigns)));
                    let expect = naive_scan(&order, &sim.assigns);
                    prop_assert_eq!(got.map(|l| l.var().index()), expect);
                    if let Some(lit) = got {
                        prop_assert!(lit.sign(), "fixed polarity true must be honored");
                    }
                }
            }
        }
    }
}
