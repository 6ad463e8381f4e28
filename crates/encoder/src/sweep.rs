//! Frame encoding for incremental bound sweeps.
//!
//! A sweep encodes the program **once** at the horizon bound `K` (the
//! marker-instrumented unrolling from `zpre_prog::unroll_program_sweep`)
//! and then derives every bound `k = 1..=K` as a *frame*: a fresh
//! activation variable `g_k` plus the guarded clauses
//!
//! ```text
//! g_k → ¬m    for every unwinding marker m with remaining count ≤ K − k
//! ```
//!
//! solved under the assumptions `[g_k, ¬g_1, …, ¬g_{k−1}]`. Forcing a
//! marker false forces its iteration's path guard false (the SSA `assume`
//! contributes `guard → m`), which is exactly the unwinding assumption
//! `parent_guard → ¬cond` the scratch bound-`k` unrolling would emit — at
//! every nesting depth, because nested loops unroll to their enclosing
//! copy's remaining count. The frames are therefore equisatisfiable with
//! the per-bound scratch encodings while sharing one solver: learnt
//! clauses, saved phases, EVSIDS activity, and the order theory's fixed
//! program-order skeleton all carry over between bounds.
//!
//! Soundness of the shared base instance (see DESIGN.md §6d):
//!
//! - every memory-model constraint (`rf`, `rf_some`, `ws`, `fr`, mutex and
//!   atomic serialization) is conditioned on event guards, so events of
//!   disabled iterations impose nothing;
//! - the error disjunction `⋁ (guard ∧ ¬cond)` over the horizon-`K`
//!   assertions collapses under a frame to the bound-`k` disjunction (the
//!   extra disjuncts have false guards), so the base encoding's unit
//!   `err` assert needs no per-frame re-emission;
//! - `rf_some` covering clauses likewise need no re-emission: candidate
//!   writes of disabled iterations are excluded by their `rf → guard(w)`
//!   clauses, and the enabled candidates are a superset of none — they
//!   match the scratch candidate set up to provably-impossible pruning;
//! - enabled markers stay free inputs: a model that sets one false simply
//!   describes an execution whose loop exits early, which the scratch
//!   encoding admits too.

use crate::encode::Encoded;
use zpre_prog::sweep_marker_remaining;
use zpre_sat::{DecisionGuide, Lit, Solver};
use zpre_smt::{OrderTheory, VarKind};

/// The per-bound frame state of a sweep over a horizon-`K` base encoding.
/// The base itself comes from the ordinary encoder ([`crate::try_encode_opts`]
/// on the marker-instrumented unrolling); this only adds the frames.
pub struct SweepFrames {
    /// The sweep horizon `K`.
    max_bound: u32,
    /// `(remaining count, literal)` of every unwinding marker found in the
    /// blasted instance, i.e. every boolean input named `ndb!zpre!uw!…`.
    markers: Vec<(u32, Lit)>,
    /// Activation literal `g_k` of each encoded frame (`frames[k-1]`).
    frames: Vec<Lit>,
}

impl SweepFrames {
    /// Collects the unwinding markers of `base`, the horizon-`K` encoding.
    ///
    /// Static pruning of the base is frame-sound for the same reason the
    /// base instance is (DESIGN.md §6d): every pruning justification rests
    /// on fixed program-order edges and guard implications, neither of
    /// which a frame's `g_k → ¬m` clauses weaken — frames only remove
    /// models, which preserves both directions of the pruned/unpruned
    /// equisatisfiability argument.
    pub fn new(base: &Encoded, max_bound: u32) -> SweepFrames {
        let mut markers: Vec<(u32, Lit)> = base
            .blaster
            .bool_inputs
            .iter()
            .filter_map(|(name, &lit)| sweep_marker_remaining(name).map(|r| (r, lit)))
            .collect();
        // Deterministic clause emission order regardless of hash-map iteration.
        markers.sort_by_key(|&(r, l)| (r, l.var().index()));
        SweepFrames {
            max_bound,
            markers,
            frames: Vec::new(),
        }
    }

    /// Encodes frame `k` (bounds must be encoded in order `1..=K`): creates
    /// the activation variable `g_k`, registers it in `base`, and asserts
    /// `g_k → ¬m` for every marker with remaining count `≤ K − k`.
    ///
    /// The clauses are permanent, but inactive frames cost nothing: solved
    /// under `¬g_j` their guarded clauses are satisfied outright.
    pub fn encode_frame<G: DecisionGuide>(
        &mut self,
        k: u32,
        base: &mut Encoded,
        solver: &mut Solver<OrderTheory, G>,
    ) {
        assert!(
            k >= 1 && k <= self.max_bound,
            "frame {k} outside the sweep horizon {}",
            self.max_bound
        );
        assert_eq!(
            self.frames.len() as u32 + 1,
            k,
            "frames must be encoded in order"
        );
        let v = solver.new_var();
        base.registry.register(v, VarKind::Ssa);
        let g = v.positive();
        let cutoff = self.max_bound - k;
        for &(r, m) in &self.markers {
            if r <= cutoff {
                solver.add_clause(&[!g, !m]);
            }
        }
        self.frames.push(g);
    }

    /// The assumption set for frame `k`: `[g_k, ¬g_1, …, ¬g_{k−1}]`. The
    /// frame must already be encoded.
    pub fn assumptions(&self, k: u32) -> Vec<Lit> {
        let idx = k as usize - 1;
        let g = self.frames[idx];
        let mut asm = vec![g];
        asm.extend(self.frames[..idx].iter().map(|&f| !f));
        asm
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zpre_prog::build::*;
    use zpre_prog::{to_ssa, unroll_program, unroll_program_sweep, MemoryModel, Program};
    use zpre_sat::{NoGuide, SolveResult};

    /// `x` starts at 0 and is incremented while `x < 3`; the assertion
    /// `x != 3` fails exactly at bound k* = 3.
    fn kstar3() -> Program {
        ProgramBuilder::new("kstar3")
            .width(8)
            .shared("x", 0)
            .main(vec![
                while_(lt(v("x"), c(3)), vec![assign("x", add(v("x"), c(1)))]),
                assert_(ne(v("x"), c(3))),
            ])
            .build()
    }

    /// Encodes `p`'s horizon-`k_max` sweep unrolling into a fresh solver.
    fn horizon(p: &Program, k_max: u32) -> (Encoded, SweepFrames, Solver<OrderTheory, NoGuide>) {
        let ssa = to_ssa(&unroll_program_sweep(p, k_max).program);
        let mut solver: Solver<OrderTheory, NoGuide> =
            Solver::with_parts(OrderTheory::new(), NoGuide);
        let base = crate::encode(&ssa, MemoryModel::Sc, &mut solver);
        let frames = SweepFrames::new(&base, k_max);
        (base, frames, solver)
    }

    fn scratch_verdict(p: &Program, k: u32) -> SolveResult {
        let ssa = to_ssa(&unroll_program(p, k));
        let mut solver: Solver<OrderTheory, NoGuide> =
            Solver::with_parts(OrderTheory::new(), NoGuide);
        crate::encode(&ssa, MemoryModel::Sc, &mut solver);
        solver.solve()
    }

    #[test]
    fn frames_match_scratch_bounds() {
        const K: u32 = 5;
        let p = kstar3();
        let (mut base, mut frames, mut solver) = horizon(&p, K);
        assert_eq!(frames.markers.len(), K as usize, "one marker per iteration");
        for k in 1..=K {
            frames.encode_frame(k, &mut base, &mut solver);
            let got = solver.solve_with_assumptions(&frames.assumptions(k));
            let want = scratch_verdict(&p, k);
            assert_eq!(got, want, "bound {k}");
            // k* = 3: the violation needs exactly three iterations.
            let expect = if k >= 3 {
                SolveResult::Sat
            } else {
                SolveResult::Unsat
            };
            assert_eq!(got, expect, "bound {k}");
        }
    }

    #[test]
    fn frames_can_revisit_lower_bounds() {
        // Assumption literals are per-call, so bounds can be re-solved in
        // any order once their frames exist.
        const K: u32 = 4;
        let (mut base, mut frames, mut solver) = horizon(&kstar3(), K);
        for k in 1..=K {
            frames.encode_frame(k, &mut base, &mut solver);
        }
        assert_eq!(
            solver.solve_with_assumptions(&frames.assumptions(4)),
            SolveResult::Sat
        );
        assert_eq!(
            solver.solve_with_assumptions(&frames.assumptions(2)),
            SolveResult::Unsat
        );
        assert_eq!(
            solver.solve_with_assumptions(&frames.assumptions(3)),
            SolveResult::Sat
        );
    }

    #[test]
    fn loop_free_program_has_no_markers() {
        let p = ProgramBuilder::new("straight")
            .shared("x", 0)
            .main(vec![assign("x", c(1)), assert_(eq(v("x"), c(1)))])
            .build();
        let (mut base, mut frames, mut solver) = horizon(&p, 3);
        assert!(frames.markers.is_empty());
        for k in 1..=3 {
            frames.encode_frame(k, &mut base, &mut solver);
            assert_eq!(
                solver.solve_with_assumptions(&frames.assumptions(k)),
                SolveResult::Unsat,
                "bound {k}"
            );
        }
    }
}
