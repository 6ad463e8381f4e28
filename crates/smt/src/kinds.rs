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

/// Metadata for one solver variable.
#[derive(Clone, Debug)]
pub struct VarInfo {
    /// The class.
    pub kind: VarKind,
    /// Human-readable name (paper-style for interference variables).
    pub name: String,
}

/// Registry mapping solver variables to their classes.
#[derive(Default, Clone, Debug)]
pub struct VarRegistry {
    infos: Vec<Option<VarInfo>>,
}

impl VarRegistry {
    /// Creates an empty registry.
    pub fn new() -> VarRegistry {
        VarRegistry::default()
    }

    /// Records `var`'s class and name.
    pub fn register(&mut self, var: Var, kind: VarKind, name: impl Into<String>) {
        let i = var.index();
        if self.infos.len() <= i {
            self.infos.resize_with(i + 1, || None);
        }
        debug_assert!(self.infos[i].is_none(), "variable registered twice");
        self.infos[i] = Some(VarInfo {
            kind,
            name: name.into(),
        });
    }

    /// Metadata for `var`, if registered.
    pub fn info(&self, var: Var) -> Option<&VarInfo> {
        self.infos.get(var.index()).and_then(|o| o.as_ref())
    }

    /// The class of `var` ([`VarKind::Aux`] if unregistered).
    pub fn kind(&self, var: Var) -> VarKind {
        self.info(var).map_or(VarKind::Aux, |i| i.kind)
    }

    /// Iterates over `(var, info)` for all registered variables.
    pub fn iter(&self) -> impl Iterator<Item = (Var, &VarInfo)> {
        self.infos
            .iter()
            .enumerate()
            .filter_map(|(i, o)| o.as_ref().map(|info| (Var::new(i as u32), info)))
    }

    /// All interference variables (`V_rf ∪ V_ws`), in registration order.
    pub fn interference_vars(&self) -> impl Iterator<Item = (Var, &VarInfo)> {
        self.iter().filter(|(_, info)| info.kind.is_interference())
    }

    /// Count of registered variables per class: `(ssa, guard, ord, rf, ws, aux)`.
    pub fn class_counts(&self) -> ClassCounts {
        let mut c = ClassCounts::default();
        for (_, info) in self.iter() {
            match info.kind {
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
        r.register(v0, VarKind::Ssa, "x_1[0]");
        r.register(
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
        assert_eq!(r.info(v2).unwrap().name, "rf_1_2_2_0");
    }

    #[test]
    fn interference_filter() {
        let mut r = VarRegistry::new();
        r.register(Var::new(0), VarKind::Ord, "ord0");
        r.register(Var::new(1), VarKind::Ws, ws_name(0, 0, 1, 1));
        r.register(
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
        r.register(Var::new(0), VarKind::Ssa, "a");
        r.register(Var::new(1), VarKind::Ssa, "b");
        r.register(Var::new(2), VarKind::Guard, "g");
        r.register(Var::new(3), VarKind::Ws, "w");
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
