//! Counterexample traces: turning a satisfying model into a readable
//! concurrent execution.
//!
//! A model fixes every interference variable, hence a total order over the
//! executed events (§3.3's "concrete concurrent execution"). This module
//! extracts that execution — events sorted by their derived clock values,
//! with concrete data — for the witness replay every `Unsafe` answer goes
//! through (`crate::certify`) and the CLI's `--trace` output.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;
use zpre_analysis::po_pairs;
use zpre_bv::{lits_to_u64, TermKind};
use zpre_encoder::Encoded;
use zpre_prog::ssa::{EventKind, SsaProgram};
use zpre_prog::{MemoryModel, ReplayOp};
use zpre_sat::{PriorityListGuide, Solver};
use zpre_smt::{OrderTheory, VarKind};

/// One step of a counterexample execution.
#[derive(Clone, Debug)]
pub struct TraceStep {
    /// Global event id.
    pub event: usize,
    /// Executing thread (name index).
    pub thread: usize,
    /// Thread name.
    pub thread_name: String,
    /// Clock (position in the total order).
    pub clock: u32,
    /// Human-readable action, e.g. `W x = 1` / `R y -> 0` / `lock(m)`.
    pub action: String,
    /// The action as a structured replay operation (the certification
    /// layer's schedule entry for this step).
    pub op: ReplayOp,
    /// For reads: the event id of the write it reads from.
    pub reads_from: Option<usize>,
}

/// A counterexample execution.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// Executed events in clock order.
    pub steps: Vec<TraceStep>,
}

impl fmt::Display for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "counterexample execution ({} events):", self.steps.len())?;
        for s in &self.steps {
            let rf = s
                .reads_from
                .map(|w| format!("  [rf: e{w}]"))
                .unwrap_or_default();
            writeln!(
                f,
                "  {:>3}. [{}] {}{}",
                s.clock, s.thread_name, s.action, rf
            )?;
        }
        Ok(())
    }
}

/// The model of the last `Sat` answer read as a concrete execution: input
/// and event values, event guards, and the clocks of the event order graph
/// the model fixes. Trace extraction and the witness replay read the
/// model through it.
pub(crate) struct ModelView<'a> {
    ssa: &'a SsaProgram,
    enc: &'a Encoded,
    solver: &'a Solver<OrderTheory, PriorityListGuide>,
}

impl<'a> ModelView<'a> {
    /// Must only be built right after a `Sat` result, before further solving.
    pub fn new(
        ssa: &'a SsaProgram,
        enc: &'a Encoded,
        solver: &'a Solver<OrderTheory, PriorityListGuide>,
    ) -> ModelView<'a> {
        ModelView { ssa, enc, solver }
    }

    /// Concrete value of a bit-vector input variable by name.
    pub fn bv_val(&self, name: &str) -> u64 {
        self.enc
            .blaster
            .bv_inputs
            .get(name)
            .map(|bits| lits_to_u64(bits, |l| self.solver.model_value(l).is_true()))
            .unwrap_or(0)
    }

    /// Concrete value of a Boolean input variable by name.
    pub fn bool_val(&self, name: &str) -> bool {
        self.enc
            .blaster
            .bool_inputs
            .get(name)
            .is_some_and(|&l| self.solver.model_value(l).is_true())
    }

    /// The value a read or write event carries; `None` for any other event
    /// or a value that is not an SSA variable.
    pub fn event_value(&self, eid: usize) -> Option<u64> {
        match self.ssa.events[eid].kind {
            EventKind::Read { value, .. } | EventKind::Write { value, .. } => {
                match self.ssa.store.kind(value) {
                    TermKind::BvVar { name, .. } => Some(self.bv_val(name)),
                    _ => None,
                }
            }
            _ => None,
        }
    }

    /// Whether event `eid` executes in the model.
    pub fn guard(&self, eid: usize) -> bool {
        self.solver.model_value(self.enc.guard_lits[eid]).is_true()
    }

    /// A clock per event: its position in a topological order of the
    /// model's event order graph (program order under `mm` plus every
    /// ordering and ws atom as the model sets it), taking the smallest
    /// ready event id first. `None` when the graph is cyclic.
    pub fn clocks(&self, mm: MemoryModel) -> Option<Vec<u32>> {
        let n = self.ssa.events.len();
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut indeg = vec![0usize; n];
        let mut add = |a: usize, b: usize| {
            adj[a].push(b);
            indeg[b] += 1;
        };
        for (a, b) in po_pairs(self.ssa, mm) {
            add(a, b);
        }
        for (v, kind) in self.enc.registry.iter() {
            if !matches!(kind, VarKind::Ord | VarKind::Ws) {
                continue;
            }
            // cs/atomic selectors are not atoms themselves.
            let Some((a, b)) = self.solver.theory.atom_nodes(v) else {
                continue;
            };
            let (a, b) = (a.0 as usize, b.0 as usize);
            if self.solver.model_var_value(v).is_true() {
                add(a, b);
            } else {
                add(b, a);
            }
        }
        let mut ready: BinaryHeap<Reverse<usize>> =
            (0..n).filter(|&i| indeg[i] == 0).map(Reverse).collect();
        let mut clocks = vec![0u32; n];
        let mut tick = 0u32;
        while let Some(Reverse(x)) = ready.pop() {
            clocks[x] = tick;
            tick += 1;
            for &y in &adj[x] {
                indeg[y] -= 1;
                if indeg[y] == 0 {
                    ready.push(Reverse(y));
                }
            }
        }
        (tick as usize == n).then_some(clocks)
    }
}

/// Extracts the concrete execution from the model of the last `Sat` answer;
/// `None` when the model's event order is cyclic, so no execution has it.
///
/// Must only be called right after a `Sat` result, before further solving.
pub(crate) fn extract_trace(
    ssa: &SsaProgram,
    enc: &Encoded,
    solver: &Solver<OrderTheory, PriorityListGuide>,
    mm: MemoryModel,
) -> Option<Trace> {
    let model = ModelView::new(ssa, enc, solver);
    let event_value = |eid: usize| model.event_value(eid).unwrap_or(0);
    let guard_of = |eid: usize| model.guard(eid);
    let clocks = model.clocks(mm)?;

    let mut steps: Vec<TraceStep> = ssa
        .events
        .iter()
        .filter(|e| guard_of(e.id))
        .map(|e| {
            let var_name = |v: usize| ssa.shared_names[v].clone();
            let (action, op, reads_from) = match &e.kind {
                EventKind::Write { var, .. } => (
                    format!("W {} = {}", var_name(*var), event_value(e.id)),
                    ReplayOp::Write {
                        var: *var,
                        value: event_value(e.id),
                    },
                    None,
                ),
                EventKind::Read { var, .. } => {
                    let rf = enc
                        .rf_vars
                        .iter()
                        .find(|rf| rf.read == e.id && solver.model_var_value(rf.var).is_true())
                        .map(|rf| rf.write);
                    (
                        format!("R {} -> {}", var_name(*var), event_value(e.id)),
                        ReplayOp::Read {
                            var: *var,
                            value: event_value(e.id),
                        },
                        rf,
                    )
                }
                EventKind::Lock { mutex } => (
                    format!("lock(m{mutex})"),
                    ReplayOp::Lock { mutex: *mutex },
                    None,
                ),
                EventKind::Unlock { mutex } => (
                    format!("unlock(m{mutex})"),
                    ReplayOp::Unlock { mutex: *mutex },
                    None,
                ),
                EventKind::Fence => ("fence".to_string(), ReplayOp::Fence, None),
                EventKind::AtomicBegin { .. } => {
                    ("atomic_begin".to_string(), ReplayOp::AtomicBegin, None)
                }
                EventKind::AtomicEnd { .. } => {
                    ("atomic_end".to_string(), ReplayOp::AtomicEnd, None)
                }
                EventKind::Spawn { child } => (
                    format!("spawn({})", ssa.thread_names[*child]),
                    ReplayOp::Spawn { child: *child },
                    None,
                ),
                EventKind::Join { child } => (
                    format!("join({})", ssa.thread_names[*child]),
                    ReplayOp::Join { child: *child },
                    None,
                ),
            };
            TraceStep {
                event: e.id,
                thread: e.thread,
                thread_name: ssa.thread_names[e.thread].clone(),
                clock: clocks[e.id],
                action,
                op,
                reads_from,
            }
        })
        .collect();
    steps.sort_by_key(|s| s.clock);
    Some(Trace { steps })
}

#[cfg(test)]
mod tests {

    use crate::{verify, Strategy, Verdict, VerifyOptions};
    use zpre_prog::build::*;

    fn racy() -> zpre_prog::Program {
        let inc = vec![assign("r", v("cnt")), assign("cnt", add(v("r"), c(1)))];
        ProgramBuilder::new("racy")
            .shared("cnt", 0)
            .thread("w1", inc.clone())
            .thread("w2", inc)
            .main(vec![
                spawn(1),
                spawn(2),
                join(1),
                join(2),
                assert_(eq(v("cnt"), c(2))),
            ])
            .build()
    }

    #[test]
    fn unsafe_verdicts_carry_a_trace() {
        let mut opts = VerifyOptions::new(zpre_prog::MemoryModel::Sc, Strategy::Zpre);
        opts.want_trace = true;
        let out = verify(&racy(), &opts);
        assert_eq!(out.verdict, Verdict::Unsafe);
        let trace = out.trace.expect("trace requested");
        assert!(!trace.steps.is_empty());
        // Clocks are strictly increasing.
        for w in trace.steps.windows(2) {
            assert!(w[0].clock < w[1].clock);
        }
        // The lost update is visible: both workers read cnt -> 0.
        let zero_reads = trace
            .steps
            .iter()
            .filter(|s| s.action == "R cnt -> 0" && s.thread_name.starts_with('w'))
            .count();
        assert_eq!(zero_reads, 2, "{trace}");
        // Reads carry their read-from source.
        assert!(trace
            .steps
            .iter()
            .filter(|s| s.action.starts_with('R'))
            .all(|s| s.reads_from.is_some()));
    }

    #[test]
    fn safe_verdicts_have_no_trace() {
        let p = ProgramBuilder::new("safe")
            .shared("x", 0)
            .main(vec![assign("x", c(1)), assert_(eq(v("x"), c(1)))])
            .build();
        let mut opts = VerifyOptions::new(zpre_prog::MemoryModel::Sc, Strategy::Zpre);
        opts.want_trace = true;
        let out = verify(&p, &opts);
        assert_eq!(out.verdict, Verdict::Safe);
        assert!(out.trace.is_none());
    }

    #[test]
    fn trace_respects_program_order_per_thread() {
        let mut opts = VerifyOptions::new(zpre_prog::MemoryModel::Tso, Strategy::Zpre);
        opts.want_trace = true;
        let out = verify(&racy(), &opts);
        let trace = out.trace.expect("trace");
        // Under TSO same-variable accesses of one thread keep their order:
        // each worker's R cnt precedes its W cnt.
        for t in ["w1", "w2"] {
            let read_at = trace
                .steps
                .iter()
                .position(|s| s.thread_name == t && s.action.starts_with("R cnt"));
            let write_at = trace
                .steps
                .iter()
                .position(|s| s.thread_name == t && s.action.starts_with("W cnt"));
            let (Some(r), Some(w)) = (read_at, write_at) else {
                panic!("missing access in {trace}");
            };
            assert!(r < w, "{trace}");
        }
    }

    #[test]
    fn trace_display_is_readable() {
        let mut opts = VerifyOptions::new(zpre_prog::MemoryModel::Sc, Strategy::Zpre);
        opts.want_trace = true;
        let out = verify(&racy(), &opts);
        let text = out.trace.unwrap().to_string();
        assert!(text.contains("counterexample execution"));
        assert!(text.contains("[w1]"));
        assert!(text.contains("W cnt"));
    }
}
