//! Static interference pruning: shrink `V_rf`/`V_ws` before encoding.
//!
//! Three cooperating analyses over the unrolled SSA event stream decide,
//! per interference pair, whether the solver ever needs a selector for it:
//!
//! 1. **Must-happen-before (MHB)** — the transitive order induced by
//!    preserved program order plus spawn/join edges ([`PoClosure`]). An rf
//!    pair `(w, r)` dies when `r →⁺ w` (the write can only come after the
//!    read), or when an always-executed write `w'` with `w →⁺ w' →⁺ r`
//!    shadows it. A ws pair dies symmetrically: `w₁ →⁺ w₂` fixes the
//!    selector's polarity, so no variable is emitted.
//! 2. **Lockset analysis** — accesses inside critical sections of a common
//!    mutex are mutually exclusive. An rf pair whose write is shadowed by
//!    a later write *inside the same critical section* is dead for any
//!    read that holds the same mutex in another thread: whenever the read
//!    could observe the write, the killer write has already intervened
//!    before the section was released. Cross-section write pairs need no
//!    free ws selector either — the section-serialization constraints
//!    already decide their order, so the encoder represents them with a
//!    plain ordering atom instead of an interference variable.
//! 3. **Thread-locality** — a read whose surviving candidates form an MHB
//!    chain ending before the read (the common case for variables touched
//!    by a single thread after unrolling) is *resolved directly*: its
//!    value is the chain's last executed write, encodable in Φ_ssa with no
//!    interference variables at all.
//!
//! The pass also records adjacent symmetric threads ([`crate::symmetry`]),
//! whose first critical sections (or, without locks, first writes) the
//! encoder orders by thread index.
//!
//! Every removal carries a [`Justification`] that
//! [`crate::check::check_report`] re-verifies independently; soundness of
//! each rule is argued in DESIGN.md §6h.

use crate::memory_model::{ProgramOrder, Successors};
use crate::symmetry::{symmetric_pairs, SymPair};
use std::collections::{HashMap, HashSet};
use zpre_bv::{TermId, TermKind, TermStore};
use zpre_prog::ssa::{EventKind, SsaProgram};
use zpre_prog::MemoryModel;

/// Syntactic guard implication: `a → b` holds because `b` is constant
/// true, `a` equals `b`, or `b` appears as a conjunct somewhere in `a`'s
/// `And` spine. Guards are built by conjoining branch conditions onto the
/// enclosing guard, so an event's guard literally contains every enclosing
/// guard as a subterm — which makes this check complete enough for the
/// lockset rule while staying trivially sound.
pub fn guard_implies(ts: &TermStore, a: TermId, b: TermId) -> bool {
    if a == b || matches!(ts.kind(b), TermKind::BoolConst(true)) {
        return true;
    }
    match ts.kind(a) {
        TermKind::And(x, y) => {
            let (x, y) = (*x, *y);
            guard_implies(ts, x, b) || guard_implies(ts, y, b)
        }
        _ => false,
    }
}

/// Machine-checkable evidence that an interference pair is redundant.
///
/// Paths are sequences of event ids in which every consecutive pair is a
/// *direct* fixed program-order edge (as emitted by [`po_pairs`]), so a
/// checker can verify them by edge-set membership without recomputing any
/// closure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Justification {
    /// rf `(w, r)`: the write is MHB-*after* the read; `path` walks
    /// `r →⁺ w` over fixed edges.
    WriteAfterRead {
        /// Fixed-edge path from the read to the write.
        path: Vec<usize>,
    },
    /// rf `(w, r)`: an always-executed write `killer` to the same variable
    /// sits MHB-between the write and the read.
    Shadowed {
        /// The intervening write event (constant-true guard).
        killer: usize,
        /// Fixed-edge path `w →⁺ killer`.
        path_to_killer: Vec<usize>,
        /// Fixed-edge path `killer →⁺ r`.
        path_to_read: Vec<usize>,
    },
    /// rf `(w, r)`: a later write in the write's own critical section
    /// shadows it for this read, which holds the same mutex in another
    /// thread.
    LocksetShadow {
        /// The shadowing write inside the same critical section.
        killer: usize,
        /// The common mutex.
        mutex: usize,
        /// `(lock, unlock)` events of the section containing `w` and
        /// `killer`.
        write_section: (usize, usize),
        /// `(lock, unlock)` events of the section containing the read.
        read_section: (usize, usize),
        /// Fixed-edge path `w →⁺ killer`.
        path_to_killer: Vec<usize>,
    },
    /// ws `(w₁, w₂)`: fixed program order already decides the pair;
    /// `first_before_second` is the settled polarity and `path` walks the
    /// deciding direction.
    MhbOrdered {
        /// `true` when `w₁ →⁺ w₂`, `false` when `w₂ →⁺ w₁`.
        first_before_second: bool,
        /// Fixed-edge path in the deciding direction.
        path: Vec<usize>,
    },
    /// ws `(w₁, w₂)`: the writes live in same-mutex critical sections of
    /// different threads, so the section-serialization selector decides
    /// their order; the pair rides on a plain ordering atom.
    MutexSerialized {
        /// The common mutex.
        mutex: usize,
        /// `(lock, unlock)` of the section containing `w₁`.
        first_section: (usize, usize),
        /// `(lock, unlock)` of the section containing `w₂`.
        second_section: (usize, usize),
    },
}

/// Aggregate prune statistics, streamed into `zpre-obs` as `pr_*` counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PruneCounters {
    /// Read-from pairs removed beyond what plain candidate filtering keeps.
    pub rf_pruned: u64,
    /// Read-from selectors the encoder still has to emit.
    pub rf_kept: u64,
    /// Write-serialization pairs with a statically fixed polarity.
    pub ws_pruned: u64,
    /// Write-serialization pairs demoted to plain ordering atoms by mutual
    /// exclusion.
    pub ws_serialized: u64,
    /// Reads resolved directly in Φ_ssa (no selectors at all).
    pub reads_resolved: u64,
    /// Shared variables whose non-initializer accesses stay in one thread.
    pub local_vars: u64,
    /// Adjacent symmetric thread pairs, each worth one lex-leader clause.
    pub sym_pairs: u64,
}

/// Output of the pruning pass; the encoder consumes it verbatim.
#[derive(Clone, Debug)]
pub struct PruneReport {
    /// Memory model the analysis ran under (MHB depends on it).
    pub mm: MemoryModel,
    /// The program order the analysis ran on; the encoder emits its edges
    /// as Φ_po and filters with its closure instead of rebuilding both.
    pub po: ProgramOrder,
    /// Surviving rf candidate writes per read event id (empty vectors for
    /// non-read events).
    pub candidates: Vec<Vec<usize>>,
    /// Per event id: for resolved reads, the surviving candidates sorted
    /// in MHB order (the read's value is the chain's last executed write).
    pub resolved: Vec<Option<Vec<usize>>>,
    /// Statically fixed ws polarities, keyed by the write pair in
    /// event-id order: `true` ⇔ the lower-id write comes first.
    pub ws_fixed: HashMap<(usize, usize), bool>,
    /// Write pairs (event-id order) serialized by a mutex: encode with an
    /// ordering atom instead of a ws selector.
    pub ws_serialized: HashSet<(usize, usize)>,
    /// Pruned rf pairs `(read, write, why)`.
    pub pruned_rf: Vec<(usize, usize, Justification)>,
    /// Pruned ws pairs `(w₁, w₂, why)` in event-id order.
    pub pruned_ws: Vec<(usize, usize, Justification)>,
    /// Per shared variable: all non-initializer accesses in one thread.
    pub local_vars: Vec<bool>,
    /// Same-variable write pairs that still need a real ws selector.
    pub ws_unsettled: u64,
    /// Adjacent symmetric threads: the encoder orders each pair's anchors
    /// (first critical sections, or first writes) by thread index.
    pub sym_pairs: Vec<SymPair>,
    /// Aggregate statistics.
    pub counters: PruneCounters,
}

impl PruneReport {
    /// Interference variables the encoder will emit under this report:
    /// surviving rf selectors plus unsettled ws pairs.
    pub fn interference_vars(&self) -> u64 {
        self.counters.rf_kept + self.ws_unsettled
    }

    /// Interference variables an encoder without the lockset/locality
    /// rules would emit (the seed behavior: candidate filtering only, a ws
    /// selector for every same-variable write pair). The MHB rf rules
    /// predate the pass, so rf selectors pruned by them are *not* added
    /// back here — the difference against [`Self::interference_vars`] is
    /// exactly what this pass saves.
    pub fn unpruned_interference_vars(&self) -> u64 {
        let lockset_rf: u64 = self
            .pruned_rf
            .iter()
            .filter(|(_, _, j)| matches!(j, Justification::LocksetShadow { .. }))
            .count() as u64;
        let resolved_rf: u64 = self
            .resolved
            .iter()
            .flatten()
            .map(|chain| chain.len() as u64)
            .sum();
        self.counters.rf_kept
            + lockset_rf
            + resolved_rf
            + self.ws_unsettled
            + self.counters.ws_pruned
            + self.counters.ws_serialized
    }
}

/// A critical section instance: `lock`/`unlock` bracket events of `mutex`
/// in `thread`, matched by a per-mutex stack scan.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Section {
    /// Owning thread.
    pub thread: usize,
    /// Mutex index.
    pub mutex: usize,
    /// `Lock` event id.
    pub lock: usize,
    /// `Unlock` event id.
    pub unlock: usize,
}

/// Collects critical-section instances by a per-(thread, mutex) stack
/// scan. Unmatched unlocks are ignored here — the encoder reports them as
/// a typed error.
pub fn sections(ssa: &SsaProgram) -> Vec<Section> {
    let mut out = Vec::new();
    for t in 0..ssa.num_threads() {
        let mut stacks: HashMap<usize, Vec<usize>> = HashMap::new();
        for e in ssa.thread_events(t) {
            match e.kind {
                EventKind::Lock { mutex } => stacks.entry(mutex).or_default().push(e.id),
                EventKind::Unlock { mutex } => {
                    if let Some(lock) = stacks.entry(mutex).or_default().pop() {
                        out.push(Section {
                            thread: t,
                            mutex,
                            lock,
                            unlock: e.id,
                        });
                    }
                }
                _ => {}
            }
        }
    }
    out
}

/// `true` when `e` lies strictly inside `s` (same thread, between the
/// bracket events in program order).
fn inside(ssa: &SsaProgram, s: &Section, e: usize) -> bool {
    let ev = &ssa.events[e];
    ev.thread == s.thread && ssa.events[s.lock].pos < ev.pos && ev.pos < ssa.events[s.unlock].pos
}

/// Runs the pruning pass on `ssa` under `mm`.
pub fn analyze(ssa: &SsaProgram, mm: MemoryModel) -> PruneReport {
    let n = ssa.events.len();
    let po = ProgramOrder::new(ssa, mm);
    let mut paths = PathFinder::new(n, &po.pairs);
    let ts = &ssa.store;
    let always_true =
        |eid: usize| matches!(ts.kind(ssa.events[eid].guard), TermKind::BoolConst(true));
    let secs = sections(ssa);
    let section_of = |e: usize| secs.iter().find(|s| inside(ssa, s, e));

    // Access inventory.
    let num_shared = ssa.shared_names.len();
    let mut writes_of: Vec<Vec<usize>> = vec![Vec::new(); num_shared];
    let mut reads_of: Vec<Vec<usize>> = vec![Vec::new(); num_shared];
    for e in &ssa.events {
        match e.kind {
            EventKind::Write { var, .. } => writes_of[var].push(e.id),
            EventKind::Read { var, .. } => reads_of[var].push(e.id),
            _ => {}
        }
    }

    // Thread-locality: the initializer writes (the first `num_shared`
    // events, owned by main) don't count against locality.
    let mut local_vars = vec![true; num_shared];
    for v in 0..num_shared {
        let mut owner: Option<usize> = None;
        for &e in writes_of[v].iter().chain(&reads_of[v]) {
            if e < num_shared {
                continue;
            }
            let t = ssa.events[e].thread;
            if *owner.get_or_insert(t) != t {
                local_vars[v] = false;
                break;
            }
        }
    }

    let mut report = PruneReport {
        mm,
        po,
        candidates: vec![Vec::new(); n],
        resolved: vec![None; n],
        ws_fixed: HashMap::new(),
        ws_serialized: HashSet::new(),
        pruned_rf: Vec::new(),
        pruned_ws: Vec::new(),
        local_vars: local_vars.clone(),
        counters: PruneCounters {
            local_vars: local_vars.iter().filter(|&&l| l).count() as u64,
            ..PruneCounters::default()
        },
        ws_unsettled: 0,
        sym_pairs: symmetric_pairs(ssa),
    };
    report.counters.sym_pairs = report.sym_pairs.len() as u64;
    let closure = &report.po.closure;

    // --- rf pruning -------------------------------------------------------
    for (v, reads) in reads_of.iter().enumerate() {
        for &r in reads {
            let mut surviving: Vec<usize> = Vec::new();
            'cand: for &w in &writes_of[v] {
                // Rule 1 (MHB): the write can only happen after the read.
                if closure.reaches(r, w) {
                    report.pruned_rf.push((
                        r,
                        w,
                        Justification::WriteAfterRead {
                            path: paths.find(r, w),
                        },
                    ));
                    continue;
                }
                // Rule 2 (MHB shadow): an always-executed write intervenes.
                if let Some(&killer) = writes_of[v].iter().find(|&&w2| {
                    w2 != w && always_true(w2) && closure.reaches(w, w2) && closure.reaches(w2, r)
                }) {
                    report.pruned_rf.push((
                        r,
                        w,
                        Justification::Shadowed {
                            killer,
                            path_to_killer: paths.find(w, killer),
                            path_to_read: paths.find(killer, r),
                        },
                    ));
                    continue;
                }
                // Rule 3 (lockset shadow): a later write in the same
                // critical section shadows `w` for any reader holding the
                // same mutex in another thread. The guard-implication
                // checks make sure the bracket events really execute
                // whenever the access does (a conditionally taken lock
                // does not protect an unconditional access).
                if let Some(ws) = section_of(w) {
                    let w_locked =
                        guard_implies(ts, ssa.events[w].guard, ssa.events[ws.lock].guard);
                    for &w2 in &writes_of[v] {
                        let guard_ok = always_true(w2)
                            || guard_implies(ts, ssa.events[w].guard, ssa.events[w2].guard);
                        if w_locked
                            && w2 != w
                            && guard_ok
                            && inside(ssa, ws, w2)
                            && ssa.events[w].pos < ssa.events[w2].pos
                        {
                            if let Some(rs) = secs.iter().find(|s| {
                                s.mutex == ws.mutex
                                    && s.thread != ws.thread
                                    && inside(ssa, s, r)
                                    && guard_implies(
                                        ts,
                                        ssa.events[r].guard,
                                        ssa.events[s.lock].guard,
                                    )
                            }) {
                                report.pruned_rf.push((
                                    r,
                                    w,
                                    Justification::LocksetShadow {
                                        killer: w2,
                                        mutex: ws.mutex,
                                        write_section: (ws.lock, ws.unlock),
                                        read_section: (rs.lock, rs.unlock),
                                        path_to_killer: paths.find(w, w2),
                                    },
                                ));
                                continue 'cand;
                            }
                        }
                    }
                }
                surviving.push(w);
            }
            debug_assert!(
                !surviving.is_empty(),
                "read {r} of shared var {v} lost every rf candidate"
            );
            // Direct resolution: every candidate MHB-before the read, all
            // candidates totally MHB-ordered, and at least one always
            // executed (so the resolved value is always defined).
            let chain_ok = !surviving.is_empty()
                && surviving.iter().all(|&w| closure.reaches(w, r))
                && surviving.iter().enumerate().all(|(i, &a)| {
                    surviving[i + 1..]
                        .iter()
                        .all(|&b| closure.reaches(a, b) || closure.reaches(b, a))
                })
                && surviving.iter().any(|&w| always_true(w));
            if chain_ok {
                let mut chain = surviving.clone();
                chain.sort_by(|&a, &b| {
                    if closure.reaches(a, b) {
                        std::cmp::Ordering::Less
                    } else {
                        std::cmp::Ordering::Greater
                    }
                });
                report.counters.reads_resolved += 1;
                report.counters.rf_pruned += surviving.len() as u64;
                report.resolved[r] = Some(chain);
            } else {
                report.counters.rf_kept += surviving.len() as u64;
            }
            report.candidates[r] = surviving;
        }
    }
    report.counters.rf_pruned += report.pruned_rf.len() as u64;

    // --- ws pruning -------------------------------------------------------
    for ws in &writes_of {
        for i in 0..ws.len() {
            for j in i + 1..ws.len() {
                let (w1, w2) = (ws[i], ws[j]);
                if closure.reaches(w1, w2) || closure.reaches(w2, w1) {
                    let first = closure.reaches(w1, w2);
                    let (from, to) = if first { (w1, w2) } else { (w2, w1) };
                    report.ws_fixed.insert((w1, w2), first);
                    report.pruned_ws.push((
                        w1,
                        w2,
                        Justification::MhbOrdered {
                            first_before_second: first,
                            path: paths.find(from, to),
                        },
                    ));
                    report.counters.ws_pruned += 1;
                    continue;
                }
                let serialized = section_of(w1).and_then(|s1| {
                    secs.iter()
                        .find(|s2| {
                            s2.mutex == s1.mutex && s2.thread != s1.thread && inside(ssa, s2, w2)
                        })
                        .map(|s2| (*s1, *s2))
                });
                if let Some((s1, s2)) = serialized {
                    report.ws_serialized.insert((w1, w2));
                    report.pruned_ws.push((
                        w1,
                        w2,
                        Justification::MutexSerialized {
                            mutex: s1.mutex,
                            first_section: (s1.lock, s1.unlock),
                            second_section: (s2.lock, s2.unlock),
                        },
                    ));
                    report.counters.ws_serialized += 1;
                    continue;
                }
                report.ws_unsettled += 1;
            }
        }
    }

    report
}

/// Shortest fixed-edge paths by BFS, the search buffers reused from one
/// path to the next.
struct PathFinder {
    succ: Successors,
    /// BFS predecessor of each event reached so far.
    prev: Vec<Option<usize>>,
    seen: Vec<bool>,
    queue: std::collections::VecDeque<usize>,
}

impl PathFinder {
    fn new(n: usize, pairs: &[(usize, usize)]) -> PathFinder {
        PathFinder {
            succ: Successors::new(n, pairs),
            prev: vec![None; n],
            seen: vec![false; n],
            queue: std::collections::VecDeque::new(),
        }
    }

    /// The shortest fixed-edge path `from →⁺ to`, inclusive of endpoints.
    /// Panics when there is none: callers ask only for closure-confirmed
    /// pairs.
    fn find(&mut self, from: usize, to: usize) -> Vec<usize> {
        self.prev.fill(None);
        self.seen.fill(false);
        self.queue.clear();
        self.queue.push_back(from);
        self.seen[from] = true;
        while let Some(x) = self.queue.pop_front() {
            if x == to {
                let mut p = vec![to];
                let mut cur = to;
                while let Some(q) = self.prev[cur] {
                    p.push(q);
                    cur = q;
                }
                p.reverse();
                return p;
            }
            for &y in self.succ.of(x) {
                if !self.seen[y] {
                    self.seen[y] = true;
                    self.prev[y] = Some(x);
                    self.queue.push_back(y);
                }
            }
        }
        panic!("closure-confirmed path must exist over fixed edges")
    }
}
