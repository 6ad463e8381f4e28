//! Solving strategies: the baseline, `ZPRE⁻`, `ZPRE`, and the ablations.
//! A strategy is a decision heuristic and nothing else: theory propagation
//! and the cycle check run the same way under every one.

use crate::decision_order::Refinements;

/// A solving strategy — which decision heuristics drive the search.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum Strategy {
    /// The solver's default heuristics only (VSIDS + phase saving) — the
    /// "Z3" role in the paper's comparison.
    Baseline,
    /// H1 only: interference variables first, in registration order
    /// (the paper's `ZPRE⁻`).
    ZpreMinus,
    /// H1–H4: the full interference-relation decision order (`ZPRE`).
    Zpre,
    /// Ablation: H1 + H2 (RF before WS) without locality/#write ranking.
    ZpreH2,
    /// Ablation: H1 + H2 + H3 (adds external-before-internal).
    ZpreH3,
    /// Ablation: full ZPRE but deciding interference variables always true
    /// instead of with a random first polarity and the saved phase after.
    ZpreFixedTrue,
    /// The control-flow ("branching") heuristic of §5.2's *Other Attempts*:
    /// prioritize event-guard variables instead of interference variables.
    BranchCond,
}

impl Strategy {
    /// The three strategies the paper's Table 3 compares.
    pub const MAIN: [Strategy; 3] = [Strategy::Baseline, Strategy::ZpreMinus, Strategy::Zpre];

    /// All strategies, including ablations.
    pub const ALL: [Strategy; 7] = [
        Strategy::Baseline,
        Strategy::ZpreMinus,
        Strategy::Zpre,
        Strategy::ZpreH2,
        Strategy::ZpreH3,
        Strategy::ZpreFixedTrue,
        Strategy::BranchCond,
    ];

    /// Display name (used in tables and CSV output).
    pub fn name(self) -> &'static str {
        match self {
            Strategy::Baseline => "baseline",
            Strategy::ZpreMinus => "zpre-",
            Strategy::Zpre => "zpre",
            Strategy::ZpreH2 => "zpre-h2",
            Strategy::ZpreH3 => "zpre-h3",
            Strategy::ZpreFixedTrue => "zpre-fixed-true",
            Strategy::BranchCond => "branch-cond",
        }
    }

    /// Whether an interference priority list is installed at all.
    pub fn uses_interference_order(self) -> bool {
        !matches!(self, Strategy::Baseline | Strategy::BranchCond)
    }

    /// Which H2–H4 refinements the strategy applies.
    pub fn refinements(self) -> Refinements {
        match self {
            Strategy::ZpreMinus => Refinements::none(),
            Strategy::ZpreH2 => Refinements {
                rf_before_ws: true,
                external_first: false,
                more_writes_first: false,
            },
            Strategy::ZpreH3 => Refinements {
                rf_before_ws: true,
                external_first: true,
                more_writes_first: false,
            },
            Strategy::Zpre | Strategy::ZpreFixedTrue => Refinements::all(),
            Strategy::Baseline | Strategy::BranchCond => Refinements::none(),
        }
    }
}

impl std::fmt::Display for Strategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique() {
        let names: std::collections::BTreeSet<&str> =
            Strategy::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(names.len(), Strategy::ALL.len());
    }

    #[test]
    fn refinement_mapping() {
        assert_eq!(Strategy::Zpre.refinements(), Refinements::all());
        assert_eq!(Strategy::ZpreMinus.refinements(), Refinements::none());
        assert!(Strategy::ZpreH2.refinements().rf_before_ws);
        assert!(!Strategy::ZpreH2.refinements().external_first);
        assert!(Strategy::ZpreH3.refinements().external_first);
        assert!(!Strategy::ZpreH3.refinements().more_writes_first);
    }

    #[test]
    fn baseline_has_no_interference_order() {
        assert!(!Strategy::Baseline.uses_interference_order());
        assert!(!Strategy::BranchCond.uses_interference_order());
        assert!(Strategy::Zpre.uses_interference_order());
        assert!(Strategy::ZpreMinus.uses_interference_order());
    }
}
