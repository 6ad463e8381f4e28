//! Decision-order generation (§4.1 of the paper).
//!
//! The frontend names interference variables in a special fashion
//! (`rf_<rt>_<ri>_<wt>_<wi>` / `ws_…`) and records their class and
//! `#write` counts; this module turns that metadata into the *decision
//! order* — a priority list consumed by the enhanced `decide()` (a
//! [`zpre_sat::PriorityListGuide`] consulted before VSIDS):
//!
//! - **H1** — interference variables before everything else (implicit: only
//!   interference variables enter the list; everything else falls through
//!   to the solver's default heuristics, exactly as in Fig. 5);
//! - **H2** — read-from variables before write-serialization variables;
//! - **H3** — external RF (read/write in different threads) before
//!   internal RF;
//! - **H4** — among RF variables, larger `#write` first.
//!
//! `ZPRE⁻` applies H1 only (interference variables in registration order);
//! `ZPRE` applies H1–H4.

use zpre_sat::Var;
use zpre_smt::{VarKind, VarRegistry};

/// Which refinements to apply on top of H1.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct Refinements {
    /// H2: RF variables before WS variables.
    pub rf_before_ws: bool,
    /// H3: external RF before internal RF.
    pub external_first: bool,
    /// H4: RF variables with more candidate writes first.
    pub more_writes_first: bool,
}

impl Refinements {
    /// All refinements on — the full `ZPRE` order.
    pub fn all() -> Refinements {
        Refinements {
            rf_before_ws: true,
            external_first: true,
            more_writes_first: true,
        }
    }

    /// No refinements — the `ZPRE⁻` order (H1 only).
    pub fn none() -> Refinements {
        Refinements {
            rf_before_ws: false,
            external_first: false,
            more_writes_first: false,
        }
    }
}

/// The paper's `prior_to(v₁, v₂)`: `true` when `v₁` must be decided before
/// `v₂`. Both must be interference variables.
pub fn prior_to(k1: VarKind, k2: VarKind, refinements: Refinements) -> bool {
    debug_assert!(k1.is_interference() && k2.is_interference());
    match (k1, k2) {
        // Case 1: RF variables are prior to WS variables.
        (VarKind::Rf { .. }, VarKind::Ws) => refinements.rf_before_ws,
        (VarKind::Ws, VarKind::Rf { .. }) => false,
        // Cases 2–3: among RF variables.
        (
            VarKind::Rf {
                external: e1,
                writes: n1,
            },
            VarKind::Rf {
                external: e2,
                writes: n2,
            },
        ) => {
            if refinements.external_first && e1 != e2 {
                return e1;
            }
            if refinements.more_writes_first && n1 != n2 {
                return n1 > n2;
            }
            false
        }
        // Case 4 (default): no priority between WS variables.
        (VarKind::Ws, VarKind::Ws) => false,
        _ => false,
    }
}

/// Builds the decision order: interference variables sorted by
/// [`prior_to`], stable in registration order (so `Refinements::none()`
/// yields exactly the `ZPRE⁻` list). Returns raw variable indices for a
/// [`zpre_sat::PriorityListGuide`].
pub fn decision_order(registry: &VarRegistry, refinements: Refinements) -> Vec<u32> {
    let mut vars: Vec<(Var, VarKind)> = registry.interference_vars().collect();
    // `prior_to` is a strict *partial* order, so comparing incomparable
    // pairs by index does not give `sort_by` the total order it requires
    // (e.g. under H4-only, rf(w=5, idx 100) < rf(w=2, idx 1) < ws(idx 50)
    // < rf(w=5, idx 100) is a cycle). Instead sort by a tiered key — kind
    // tier, locality, descending writes, index — which is total by
    // construction and linearly extends `prior_to` for every refinement
    // combination: inactive refinements contribute a constant, and
    // incomparable pairs fall through to the registration index.
    vars.sort_by_key(|&(v, k)| {
        let (tier, locality, writes_rank) = match k {
            VarKind::Rf { external, writes } => (
                0u8,
                u8::from(refinements.external_first && !external),
                if refinements.more_writes_first {
                    u32::MAX - writes
                } else {
                    0
                },
            ),
            _ => (u8::from(refinements.rf_before_ws), 0, 0),
        };
        (tier, locality, writes_rank, v.index())
    });
    vars.into_iter().map(|(v, _)| v.index() as u32).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use zpre_smt::VarRegistry;

    /// Registers `var` under `kind`, with `name` when `kind` is an
    /// interference class (the only variables the registry names).
    fn register(reg: &mut VarRegistry, var: Var, kind: VarKind, name: impl Into<String>) {
        if kind.is_interference() {
            reg.register_interference(var, kind, name.into());
        } else {
            reg.register(var, kind);
        }
    }

    fn rf(external: bool, writes: u32) -> VarKind {
        VarKind::Rf { external, writes }
    }

    #[test]
    fn rf_prior_to_ws() {
        let r = Refinements::all();
        assert!(prior_to(rf(true, 1), VarKind::Ws, r));
        assert!(!prior_to(VarKind::Ws, rf(true, 1), r));
    }

    #[test]
    fn external_prior_to_internal() {
        let r = Refinements::all();
        assert!(prior_to(rf(true, 1), rf(false, 9), r));
        assert!(!prior_to(rf(false, 9), rf(true, 1), r));
    }

    #[test]
    fn more_writes_first_within_same_locality() {
        let r = Refinements::all();
        assert!(prior_to(rf(true, 5), rf(true, 2), r));
        assert!(!prior_to(rf(true, 2), rf(true, 5), r));
        assert!(!prior_to(rf(true, 3), rf(true, 3), r));
    }

    #[test]
    fn prior_to_is_a_strict_partial_order() {
        // Irreflexive and asymmetric over a sample of kinds; transitivity
        // by exhaustive triples.
        let kinds = [
            rf(true, 3),
            rf(true, 1),
            rf(false, 3),
            rf(false, 1),
            VarKind::Ws,
        ];
        let r = Refinements::all();
        for &a in &kinds {
            assert!(!prior_to(a, a, r), "irreflexive {a:?}");
            for &b in &kinds {
                assert!(
                    !(prior_to(a, b, r) && prior_to(b, a, r)),
                    "asymmetric {a:?} {b:?}"
                );
                for &c in &kinds {
                    if prior_to(a, b, r) && prior_to(b, c, r) {
                        assert!(prior_to(a, c, r), "transitive {a:?} {b:?} {c:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn no_refinements_keeps_registration_order() {
        let mut reg = VarRegistry::new();
        register(&mut reg, Var::new(0), VarKind::Ws, "ws_0");
        register(&mut reg, Var::new(1), rf(true, 2), "rf_1");
        register(&mut reg, Var::new(2), VarKind::Ssa, "ssa");
        register(&mut reg, Var::new(3), rf(false, 1), "rf_3");
        let order = decision_order(&reg, Refinements::none());
        assert_eq!(order, vec![0, 1, 3]); // interference only, as registered
    }

    #[test]
    fn full_order_sorts_by_heuristics() {
        let mut reg = VarRegistry::new();
        register(&mut reg, Var::new(0), VarKind::Ws, "ws_a");
        register(&mut reg, Var::new(1), rf(false, 4), "rf_int");
        register(&mut reg, Var::new(2), rf(true, 1), "rf_ext_small");
        register(&mut reg, Var::new(3), rf(true, 7), "rf_ext_big");
        register(&mut reg, Var::new(4), VarKind::Ssa, "ssa");
        let order = decision_order(&reg, Refinements::all());
        // external big, external small, internal, ws.
        assert_eq!(order, vec![3, 2, 1, 0]);
    }

    /// Every `Refinements` combination, one randomized registry each: the
    /// produced order must be a permutation of the interference variables
    /// that linearly extends `prior_to` (no pair may appear in an order the
    /// partial order forbids). Regression for the old non-total `sort_by`
    /// comparator, which could panic or mis-order under partial refinement
    /// combinations.
    #[test]
    fn every_refinement_combo_linearly_extends_prior_to() {
        let all_combos = (0..8).map(|bits| Refinements {
            rf_before_ws: bits & 1 != 0,
            external_first: bits & 2 != 0,
            more_writes_first: bits & 4 != 0,
        });
        for (combo_idx, refinements) in all_combos.enumerate() {
            // Deterministic xorshift64* stream per combination.
            let mut state: u64 = 0x9E37_79B9 + combo_idx as u64;
            let mut next = move || {
                state ^= state >> 12;
                state ^= state << 25;
                state ^= state >> 27;
                state.wrapping_mul(0x2545_F491_4F6C_DD1D)
            };
            let mut reg = VarRegistry::new();
            let mut kinds: Vec<Option<VarKind>> = Vec::new();
            for i in 0..60u32 {
                let kind = match next() % 4 {
                    0 => VarKind::Ws,
                    1 => VarKind::Ssa,
                    _ => rf(next() % 2 == 0, (next() % 6) as u32),
                };
                register(&mut reg, Var::new(i), kind, format!("v{i}"));
                kinds.push(if kind.is_interference() {
                    Some(kind)
                } else {
                    None
                });
            }
            let order = decision_order(&reg, refinements);
            // Permutation of exactly the interference variables.
            let mut expected: Vec<u32> = (0..60).filter(|&i| kinds[i as usize].is_some()).collect();
            let mut got = order.clone();
            got.sort_unstable();
            expected.sort_unstable();
            assert_eq!(got, expected, "combo {refinements:?} lost/duplicated vars");
            // Linear extension: no later element may be prior to an
            // earlier one.
            for i in 0..order.len() {
                for j in (i + 1)..order.len() {
                    let (ka, kb) = (
                        kinds[order[i] as usize].unwrap(),
                        kinds[order[j] as usize].unwrap(),
                    );
                    assert!(
                        !prior_to(kb, ka, refinements),
                        "combo {refinements:?}: {kb:?} (pos {j}) is prior_to \
                         {ka:?} (pos {i}) but ordered after it"
                    );
                }
            }
        }
    }

    /// The exact cycle from the issue report: under H4-only (plus
    /// `rf_before_ws: false`), the old comparator had
    /// rf(w=5) < rf(w=2) < ws < rf(w=5). The tiered key must order the two
    /// RF variables by writes regardless of where WS lands.
    #[test]
    fn h4_only_cycle_from_issue_is_ordered_consistently() {
        let refinements = Refinements {
            rf_before_ws: false,
            external_first: false,
            more_writes_first: true,
        };
        let mut reg = VarRegistry::new();
        register(&mut reg, Var::new(1), rf(false, 2), "rf_small");
        register(&mut reg, Var::new(50), VarKind::Ws, "ws");
        register(&mut reg, Var::new(100), rf(false, 5), "rf_big");
        let order = decision_order(&reg, refinements);
        let pos = |v: u32| order.iter().position(|&x| x == v).unwrap();
        assert!(
            pos(100) < pos(1),
            "rf with more writes must precede rf with fewer: {order:?}"
        );
    }

    #[test]
    fn h4_only_orders_by_writes_ignoring_locality() {
        let mut reg = VarRegistry::new();
        register(&mut reg, Var::new(0), rf(false, 9), "rf_int_big");
        register(&mut reg, Var::new(1), rf(true, 2), "rf_ext_small");
        let refinements = Refinements {
            rf_before_ws: true,
            external_first: false,
            more_writes_first: true,
        };
        let order = decision_order(&reg, refinements);
        assert_eq!(order, vec![0, 1]);
    }
}
