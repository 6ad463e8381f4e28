//! Variable-kind registry: the Boolean-abstraction taxonomy of §3.2.
//!
//! After Boolean abstraction, the verification condition's variables fall
//! into the classes the paper names `V_ssa`, `V_ord`, `V_rf` and `V_ws`
//! (plus guard and auxiliary Tseitin variables, which the paper folds into
//! `V_ssa`). The encoder records the class of every variable it creates
//! here; the decision-order generator in the `zpre` core crate reads the
//! registry to build the priority list.
//!
//! Interference variables are *named* following the paper's recipe
//! (`rf_<rt>_<ri>_<wt>_<wi>`, `ws_<t1>_<i1>_<t2>_<i2>`), mirroring how the
//! modified CBMC communicates thread information to the modified Z3.

use zpre_obs::VarClass;
use zpre_sat::Var;

/// The class of a Boolean variable in the verification condition.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum VarKind {
    /// Program/data-path variable (a bit of an SSA value, or a Tseitin
    /// auxiliary of the data path) — the paper's `V_ssa`.
    Ssa,
    /// Guard condition of an event or statement (also folded into `V_ssa`
    /// by the paper; kept separate for the branch-heuristic ablation).
    Guard,
    /// Ordering atom `clk(e₁) < clk(e₂)` — the paper's `V_ord`.
    Ord,
    /// Read-from selector — the paper's `V_rf`.
    Rf {
        /// Read and write events belong to different threads (`V_rfe`
        /// vs. `V_rfi` in §4.1).
        external: bool,
        /// `#write`: number of candidate writes of the corresponding read.
        writes: u32,
    },
    /// Write-serialization selector — the paper's `V_ws`.
    Ws,
    /// Anything else (error-condition plumbing etc.).
    Aux,
}

impl VarKind {
    /// `true` for the interference classes `V_rf ∪ V_ws`.
    pub fn is_interference(self) -> bool {
        matches!(self, VarKind::Rf { .. } | VarKind::Ws)
    }

    /// The telemetry class: the one mapping from kinds to the classes the
    /// solver splits its decision counts by.
    pub fn class(self) -> VarClass {
        match self {
            VarKind::Rf { external: true, .. } => VarClass::ExternalRf,
            VarKind::Rf {
                external: false, ..
            } => VarClass::InternalRf,
            VarKind::Ws => VarClass::Ws,
            VarKind::Ssa | VarKind::Guard | VarKind::Ord | VarKind::Aux => VarClass::Other,
        }
    }
}

/// Registry mapping solver variables to their classes. Only interference
/// variables carry a name: they are the only ones a reader of the
/// instance (the SMT-LIB dump) looks up by name, so registering any other
/// variable stores no string.
#[derive(Default, Clone, Debug)]
pub struct VarRegistry {
    kinds: Vec<Option<VarKind>>,
    /// `(variable index, name)` of every interference variable, sorted by
    /// index.
    names: Vec<(u32, String)>,
}

impl VarRegistry {
    /// Creates an empty registry.
    pub fn new() -> VarRegistry {
        VarRegistry::default()
    }

    /// Records the class of `var`, which must not be an interference
    /// class (those take a name: [`Self::register_interference`]).
    pub fn register(&mut self, var: Var, kind: VarKind) {
        debug_assert!(
            !kind.is_interference(),
            "interference variable without a name"
        );
        self.record(var, kind);
    }

    /// Records an interference variable (`V_rf ∪ V_ws`) and its name.
    pub fn register_interference(&mut self, var: Var, kind: VarKind, name: String) {
        debug_assert!(
            kind.is_interference(),
            "{kind:?} is not an interference class"
        );
        self.record(var, kind);
        let at = self.names.partition_point(|&(i, _)| i < var.index() as u32);
        self.names.insert(at, (var.index() as u32, name));
    }

    fn record(&mut self, var: Var, kind: VarKind) {
        let i = var.index();
        if self.kinds.len() <= i {
            self.kinds.resize(i + 1, None);
        }
        debug_assert!(self.kinds[i].is_none(), "variable registered twice");
        self.kinds[i] = Some(kind);
    }

    /// The class of `var` ([`VarKind::Aux`] if unregistered).
    pub fn kind(&self, var: Var) -> VarKind {
        self.kinds
            .get(var.index())
            .copied()
            .flatten()
            .unwrap_or(VarKind::Aux)
    }

    /// The paper-style name of an interference variable; `None` for every
    /// other variable.
    pub fn name(&self, var: Var) -> Option<&str> {
        let i = var.index() as u32;
        let at = self.names.binary_search_by_key(&i, |&(j, _)| j).ok()?;
        Some(&self.names[at].1)
    }

    /// Iterates over `(var, kind)` for all registered variables.
    pub fn iter(&self) -> impl Iterator<Item = (Var, VarKind)> + '_ {
        self.kinds
            .iter()
            .enumerate()
            .filter_map(|(i, k)| k.map(|k| (Var::new(i as u32), k)))
    }

    /// All interference variables (`V_rf ∪ V_ws`), in variable order.
    pub fn interference_vars(&self) -> impl Iterator<Item = (Var, VarKind)> + '_ {
        self.iter().filter(|(_, kind)| kind.is_interference())
    }

    /// Count of registered variables per class: `(ssa, guard, ord, rf, ws, aux)`.
    pub fn class_counts(&self) -> ClassCounts {
        let mut c = ClassCounts::default();
        for (_, kind) in self.iter() {
            match kind {
                VarKind::Ssa => c.ssa += 1,
                VarKind::Guard => c.guard += 1,
                VarKind::Ord => c.ord += 1,
                VarKind::Rf { .. } => c.rf += 1,
                VarKind::Ws => c.ws += 1,
                VarKind::Aux => c.aux += 1,
            }
        }
        c
    }
}

/// Per-class variable counts (for diagnostics and the experiment logs).
#[derive(Default, Clone, Copy, Debug, PartialEq, Eq)]
pub struct ClassCounts {
    /// `V_ssa` bits and data-path auxiliaries.
    pub ssa: usize,
    /// Guard variables.
    pub guard: usize,
    /// `V_ord` ordering atoms.
    pub ord: usize,
    /// `V_rf` read-from selectors.
    pub rf: usize,
    /// `V_ws` write-serialization selectors.
    pub ws: usize,
    /// Unclassified.
    pub aux: usize,
}

/// Builds the paper-style name of an RF variable:
/// `rf_<read-thread>_<read-pos>_<write-thread>_<write-pos>`.
pub fn rf_name(
    read_thread: usize,
    read_pos: usize,
    write_thread: usize,
    write_pos: usize,
) -> String {
    format!("rf_{read_thread}_{read_pos}_{write_thread}_{write_pos}")
}

/// Builds the paper-style name of a WS variable.
pub fn ws_name(t1: usize, i1: usize, t2: usize, i2: usize) -> String {
    format!("ws_{t1}_{i1}_{t2}_{i2}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_query() {
        let mut r = VarRegistry::new();
        let v0 = Var::new(0);
        let v2 = Var::new(2);
        r.register(v0, VarKind::Ssa);
        r.register_interference(
            v2,
            VarKind::Rf {
                external: true,
                writes: 3,
            },
            rf_name(1, 2, 2, 0),
        );
        assert_eq!(r.kind(v0), VarKind::Ssa);
        assert_eq!(r.kind(Var::new(1)), VarKind::Aux);
        assert_eq!(
            r.kind(v2),
            VarKind::Rf {
                external: true,
                writes: 3
            }
        );
        assert_eq!(r.name(v2), Some("rf_1_2_2_0"));
    }

    /// Interference names follow the paper's recipe; every other variable
    /// is registered without a string.
    #[test]
    fn only_interference_variables_are_named() {
        let mut r = VarRegistry::new();
        for (i, kind) in [VarKind::Ssa, VarKind::Guard, VarKind::Ord, VarKind::Aux]
            .into_iter()
            .enumerate()
        {
            r.register(Var::new(i as u32), kind);
        }
        assert!(
            r.names.is_empty(),
            "a non-interference variable stored a name"
        );
        assert!((0..4).all(|i| r.name(Var::new(i)).is_none()));

        // Registered out of variable order: lookups still find each name.
        let rf = VarKind::Rf {
            external: false,
            writes: 2,
        };
        r.register_interference(Var::new(7), VarKind::Ws, ws_name(1, 4, 2, 3));
        r.register_interference(Var::new(5), rf, rf_name(2, 5, 1, 0));
        assert_eq!(r.name(Var::new(5)), Some("rf_2_5_1_0"));
        assert_eq!(r.name(Var::new(7)), Some("ws_1_4_2_3"));
        assert_eq!(r.name(Var::new(6)), None);
        let itf: Vec<usize> = r.interference_vars().map(|(v, _)| v.index()).collect();
        assert_eq!(itf, vec![5, 7]);
    }

    #[test]
    fn interference_filter() {
        let mut r = VarRegistry::new();
        r.register(Var::new(0), VarKind::Ord);
        r.register_interference(Var::new(1), VarKind::Ws, ws_name(0, 0, 1, 1));
        r.register_interference(
            Var::new(2),
            VarKind::Rf {
                external: false,
                writes: 1,
            },
            rf_name(0, 1, 0, 0),
        );
        let itf: Vec<usize> = r.interference_vars().map(|(v, _)| v.index()).collect();
        assert_eq!(itf, vec![1, 2]);
    }

    #[test]
    fn class_counts() {
        let mut r = VarRegistry::new();
        r.register(Var::new(0), VarKind::Ssa);
        r.register(Var::new(1), VarKind::Ssa);
        r.register(Var::new(2), VarKind::Guard);
        r.register_interference(Var::new(3), VarKind::Ws, ws_name(0, 1, 1, 1));
        let c = r.class_counts();
        assert_eq!(
            c,
            ClassCounts {
                ssa: 2,
                guard: 1,
                ord: 0,
                rf: 0,
                ws: 1,
                aux: 0
            }
        );
    }

    #[test]
    fn kind_is_interference() {
        assert!(VarKind::Ws.is_interference());
        assert!(VarKind::Rf {
            external: true,
            writes: 0
        }
        .is_interference());
        assert!(!VarKind::Ord.is_interference());
        assert!(!VarKind::Ssa.is_interference());
    }
}
