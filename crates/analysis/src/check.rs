//! Independent re-verification of a [`PruneReport`].
//!
//! The checker trusts nothing derived: it rebuilds the fixed program-order
//! *edge set* from [`po_pairs`] (no closure), re-scans the raw event
//! stream for lock/unlock brackets, and then walks every justification
//! step by step:
//!
//! - paths are verified edge by edge against the fixed-edge set;
//! - shadow killers must really write the same variable with a
//!   constant-true (or guard-identical) path condition;
//! - lockset witnesses must really bracket their events on the claimed
//!   mutex, in the claimed threads;
//! - resolved chains must be pairwise path-connected and end before their
//!   read.
//!
//! It also checks *completeness*: every same-variable `(read, write)` pair
//! is accounted for — either kept as a candidate or pruned with evidence —
//! so a buggy pass cannot silently drop a feasible interference.
//!
//! Each symmetric thread pair is re-verified from its witness alone: the
//! swap of the two threads' events and value terms must map every event,
//! guard, Φ_ssa conjunct and assertion onto one of the program's own,
//! compared term by term (see [`check_sym_pair`]).
//!
//! `--certify` runs this before solving; a failure is a certification
//! error, never a wrong verdict.

use crate::memory_model::po_pairs;
use crate::prune::{guard_implies, Justification, PruneReport};
use crate::symmetry::SymPair;
use std::collections::{HashMap, HashSet};
use zpre_bv::{TermId, TermKind, TermStore};
use zpre_prog::ssa::{Event, EventKind, SsaProgram};
use zpre_prog::SWEEP_MARKER_PREFIX;

/// Re-verifies every justification in `report` against `ssa`. Returns the
/// number of justifications checked, or a description of the first piece
/// of evidence that does not hold.
pub fn check_report(ssa: &SsaProgram, report: &PruneReport) -> Result<usize, String> {
    let edges: HashSet<(usize, usize)> = po_pairs(ssa, report.mm).into_iter().collect();
    let ts = &ssa.store;
    let n = ssa.events.len();
    check_program_order(report, &edges, n)?;
    let always_true =
        |eid: usize| matches!(ts.kind(ssa.events[eid].guard), TermKind::BoolConst(true));
    let written_var = |eid: usize| match ssa.events[eid].kind {
        EventKind::Write { var, .. } => Some(var),
        _ => None,
    };
    let read_var = |eid: usize| match ssa.events[eid].kind {
        EventKind::Read { var, .. } => Some(var),
        _ => None,
    };
    let check_path = |path: &[usize], from: usize, to: usize| -> Result<(), String> {
        if path.first() != Some(&from) || path.last() != Some(&to) {
            return Err(format!("path {path:?} does not connect {from} to {to}"));
        }
        for w in path.windows(2) {
            if !edges.contains(&(w[0], w[1])) {
                return Err(format!(
                    "path step {} -> {} is not a fixed program-order edge",
                    w[0], w[1]
                ));
            }
        }
        Ok(())
    };
    // Lock/unlock bracket check straight off the event stream: `lock` and
    // `unlock` are Lock/Unlock events of `mutex` in one thread, `e` lies
    // between them in program order, and the bracket is properly matched
    // (no unbalanced unlock of the same mutex in between).
    let check_section =
        |(lock, unlock): (usize, usize), mutex: usize, e: usize| -> Result<(), String> {
            if lock >= n || unlock >= n || e >= n {
                return Err(format!("section ({lock},{unlock}) out of range"));
            }
            let (le, ue, ev) = (&ssa.events[lock], &ssa.events[unlock], &ssa.events[e]);
            if !matches!(le.kind, EventKind::Lock { mutex: m } if m == mutex) {
                return Err(format!("event {lock} is not lock({mutex})"));
            }
            if !matches!(ue.kind, EventKind::Unlock { mutex: m } if m == mutex) {
                return Err(format!("event {unlock} is not unlock({mutex})"));
            }
            if le.thread != ue.thread || le.thread != ev.thread {
                return Err(format!(
                    "section ({lock},{unlock}) and event {e} span threads"
                ));
            }
            if !(le.pos < ev.pos && ev.pos < ue.pos) {
                return Err(format!("event {e} is not inside section ({lock},{unlock})"));
            }
            let mut depth = 0i64;
            for o in ssa.thread_events(le.thread) {
                if o.pos <= le.pos || o.pos >= ue.pos {
                    continue;
                }
                match o.kind {
                    EventKind::Lock { mutex: m } if m == mutex => depth += 1,
                    EventKind::Unlock { mutex: m } if m == mutex => depth -= 1,
                    _ => {}
                }
                if depth < 0 {
                    return Err(format!(
                        "section ({lock},{unlock}) is not a matched bracket on mutex {mutex}"
                    ));
                }
            }
            Ok(())
        };

    let mut checked = 0usize;
    for (r, w, just) in &report.pruned_rf {
        let (r, w) = (*r, *w);
        let rv = read_var(r).ok_or_else(|| format!("pruned rf: event {r} is not a read"))?;
        if written_var(w) != Some(rv) {
            return Err(format!("pruned rf ({r},{w}): write variable mismatch"));
        }
        match just {
            Justification::WriteAfterRead { path } => check_path(path, r, w)?,
            Justification::Shadowed {
                killer,
                path_to_killer,
                path_to_read,
            } => {
                if written_var(*killer) != Some(rv) || *killer == w {
                    return Err(format!(
                        "shadow killer {killer} is not another write of the variable"
                    ));
                }
                if !always_true(*killer) {
                    return Err(format!("shadow killer {killer} is not always executed"));
                }
                check_path(path_to_killer, w, *killer)?;
                check_path(path_to_read, *killer, r)?;
            }
            Justification::LocksetShadow {
                killer,
                mutex,
                write_section,
                read_section,
                path_to_killer,
            } => {
                if written_var(*killer) != Some(rv) || *killer == w {
                    return Err(format!(
                        "lockset killer {killer} is not another write of the variable"
                    ));
                }
                if !(always_true(*killer)
                    || guard_implies(ts, ssa.events[w].guard, ssa.events[*killer].guard))
                {
                    return Err(format!(
                        "lockset killer {killer} may execute less often than write {w}"
                    ));
                }
                check_section(*write_section, *mutex, w)?;
                check_section(*write_section, *mutex, *killer)?;
                check_section(*read_section, *mutex, r)?;
                if !guard_implies(ts, ssa.events[w].guard, ssa.events[write_section.0].guard) {
                    return Err(format!("write {w} may execute without taking its lock"));
                }
                if !guard_implies(ts, ssa.events[r].guard, ssa.events[read_section.0].guard) {
                    return Err(format!("read {r} may execute without taking its lock"));
                }
                if ssa.events[write_section.0].thread == ssa.events[read_section.0].thread {
                    return Err(format!(
                        "lockset sections of ({r},{w}) are in the same thread"
                    ));
                }
                check_path(path_to_killer, w, *killer)?;
            }
            other => {
                return Err(format!(
                    "rf pair ({r},{w}) carries a ws justification {other:?}"
                ));
            }
        }
        checked += 1;
    }

    for (w1, w2, just) in &report.pruned_ws {
        let (w1, w2) = (*w1, *w2);
        let v1 = written_var(w1).ok_or_else(|| format!("pruned ws: event {w1} is not a write"))?;
        if written_var(w2) != Some(v1) {
            return Err(format!("pruned ws ({w1},{w2}): variable mismatch"));
        }
        match just {
            Justification::MhbOrdered {
                first_before_second,
                path,
            } => {
                let (from, to) = if *first_before_second {
                    (w1, w2)
                } else {
                    (w2, w1)
                };
                check_path(path, from, to)?;
            }
            Justification::MutexSerialized {
                mutex,
                first_section,
                second_section,
            } => {
                check_section(*first_section, *mutex, w1)?;
                check_section(*second_section, *mutex, w2)?;
                if ssa.events[first_section.0].thread == ssa.events[second_section.0].thread {
                    return Err(format!(
                        "serialized ws ({w1},{w2}): sections share a thread"
                    ));
                }
            }
            other => {
                return Err(format!(
                    "ws pair ({w1},{w2}) carries an rf justification {other:?}"
                ));
            }
        }
        checked += 1;
    }

    // Completeness: every same-variable (read, write) pair is either a
    // surviving candidate or pruned with evidence.
    let mut pruned_pairs: HashSet<(usize, usize)> = HashSet::new();
    for (r, w, _) in &report.pruned_rf {
        pruned_pairs.insert((*r, *w));
    }
    for e in &ssa.events {
        let Some(v) = read_var(e.id) else { continue };
        for o in &ssa.events {
            if written_var(o.id) != Some(v) {
                continue;
            }
            let kept = report.candidates[e.id].contains(&o.id);
            let pruned = pruned_pairs.contains(&(e.id, o.id));
            if !kept && !pruned {
                return Err(format!(
                    "rf pair (read {}, write {}) neither kept nor justified",
                    e.id, o.id
                ));
            }
            if kept && pruned {
                return Err(format!(
                    "rf pair (read {}, write {}) both kept and pruned",
                    e.id, o.id
                ));
            }
        }
    }

    // Resolved chains: exactly the surviving candidates, pairwise
    // path-connected in chain order, every link ending before the read.
    let edge_reach = |from: usize, to: usize| -> bool {
        // Forward DFS over the raw edge set — independent of PoClosure.
        let mut stack = vec![from];
        let mut seen = vec![false; n];
        seen[from] = true;
        while let Some(x) = stack.pop() {
            if x == to {
                return true;
            }
            for &(a, b) in edges.iter().filter(|&&(a, _)| a == x) {
                debug_assert_eq!(a, x);
                if !seen[b] {
                    seen[b] = true;
                    stack.push(b);
                }
            }
        }
        false
    };
    for (r, chain) in report.resolved.iter().enumerate() {
        let Some(chain) = chain else { continue };
        let mut sorted_candidates = report.candidates[r].clone();
        sorted_candidates.sort_unstable();
        let mut sorted_chain = chain.clone();
        sorted_chain.sort_unstable();
        if sorted_chain != sorted_candidates {
            return Err(format!("resolved read {r}: chain differs from candidates"));
        }
        if !chain.iter().any(|&w| always_true(w)) {
            return Err(format!(
                "resolved read {r}: no always-executed write in chain"
            ));
        }
        for pair in chain.windows(2) {
            if !edge_reach(pair[0], pair[1]) {
                return Err(format!(
                    "resolved read {r}: chain writes {} and {} are not ordered",
                    pair[0], pair[1]
                ));
            }
        }
        if let Some(&last) = chain.last() {
            if !edge_reach(last, r) {
                return Err(format!(
                    "resolved read {r}: chain does not end before the read"
                ));
            }
        }
        checked += 1;
    }

    for pair in &report.sym_pairs {
        check_sym_pair(ssa, pair)
            .map_err(|e| format!("symmetry pair ({}, {}): {e}", pair.first, pair.second))?;
        checked += 1;
    }

    Ok(checked)
}

/// The swap σ of a symmetry witness over terms: leaf `x` ↦ its partner,
/// every other leaf fixed. `flags` memoizes, per term, whether it mentions
/// a leaf of the first thread (bit 0), of the second (bit 1), or a sweep
/// unwinding marker (bit 2).
struct Swap<'a> {
    ts: &'a TermStore,
    partner: HashMap<TermId, TermId>,
    side: HashMap<TermId, u8>,
    flags: HashMap<TermId, u8>,
    corr: HashMap<(TermId, TermId), bool>,
}

impl Swap<'_> {
    fn flags(&mut self, t: TermId) -> u8 {
        if let Some(&f) = self.flags.get(&t) {
            return f;
        }
        let ts = self.ts;
        let f = match ts.kind(t) {
            TermKind::BoolVar(name) if name.contains(SWEEP_MARKER_PREFIX) => 4,
            k if k.is_var() => self.side.get(&t).copied().unwrap_or(0),
            k => k
                .children()
                .into_iter()
                .fold(0, |acc, c| acc | self.flags(c)),
        };
        self.flags.insert(t, f);
        f
    }

    /// `σ(x) = y`, up to the order of commutative operands.
    fn maps(&mut self, x: TermId, y: TermId) -> bool {
        if self.flags(x) & 3 == 0 {
            return x == y;
        }
        if let Some(&r) = self.corr.get(&(x, y)) {
            return r;
        }
        let ts = self.ts;
        let (kx, ky) = (ts.kind(x), ts.kind(y));
        let r = if kx.is_var() {
            self.partner.get(&x) == Some(&y)
        } else if kx.map_children(|_| TermId(0)) != ky.map_children(|_| TermId(0)) {
            false
        } else {
            let (cx, cy) = (kx.children(), ky.children());
            cx.iter().zip(&cy).all(|(&a, &b)| self.maps(a, b))
                || (kx.is_commutative() && self.maps(cx[0], cy[1]) && self.maps(cx[1], cy[0]))
        };
        self.corr.insert((x, y), r);
        r
    }

    /// Checks that σ maps the items touching the first thread's leaves
    /// onto those touching the second's, in order, and fixes the rest.
    fn maps_items<T: Copy>(
        &mut self,
        what: &str,
        items: &[T],
        terms: impl Fn(T) -> [TermId; 2],
    ) -> Result<(), String> {
        let (mut a, mut b) = (Vec::new(), Vec::new());
        for &item in items {
            let [x, y] = terms(item);
            match self.flags(x) | self.flags(y) {
                f if f & 3 == 3 => return Err(format!("a {what} mixes both threads")),
                f if f & 4 != 0 && f & 3 != 0 => {
                    return Err(format!("a {what} carries a sweep unwinding marker"))
                }
                f if f & 1 != 0 => a.push([x, y]),
                f if f & 2 != 0 => b.push([x, y]),
                _ => {}
            }
        }
        if a.len() != b.len() {
            return Err(format!("{} vs {} {what}s", a.len(), b.len()));
        }
        for (k, (p, q)) in a.iter().zip(&b).enumerate() {
            if !(self.maps(p[0], q[0]) && self.maps(p[1], q[1])) {
                return Err(format!("{what} {k} does not map onto its partner"));
            }
        }
        Ok(())
    }
}

/// Re-verifies one [`SymPair`] against the raw SSA program, trusting
/// nothing but its witness:
///
/// - the event bijection pairs the two worker threads' events in program
///   order, kind by kind (same variable, mutex, atomic-section variables),
///   and neither thread spawns or joins;
/// - the leaf bijection is a matching of distinct free variables, and it
///   pairs every read's and write's value term;
/// - the swap σ maps each paired guard onto its partner, and maps the
///   Φ_ssa conjuncts and assertions that mention one thread onto those
///   that mention the other; no other event's guard or value mentions a
///   swapped leaf, and no swapped term carries a sweep unwinding marker;
/// - `anchors` are the two threads' first `lock` events, or their first
///   writes when they have no lock, at the same position and both
///   unconditional;
/// - in `main`, each thread is spawned and joined exactly once,
///   unconditionally and by nobody else, with only spawns between the two
///   spawns and only joins between the two joins.
pub fn check_sym_pair(ssa: &SsaProgram, pair: &SymPair) -> Result<(), String> {
    let ts = &ssa.store;
    let nt = ssa.num_threads();
    let (ta, tb) = (pair.first, pair.second);
    if ta == 0 || tb == 0 || ta >= nt || tb >= nt || ta == tb {
        return Err("threads must be two distinct workers".into());
    }
    let ea: Vec<&Event> = ssa.thread_events(ta).collect();
    let eb: Vec<&Event> = ssa.thread_events(tb).collect();
    let expected: Vec<(usize, usize)> = ea.iter().zip(&eb).map(|(x, y)| (x.id, y.id)).collect();
    if ea.len() != eb.len() || pair.events != expected {
        return Err("event bijection does not pair the threads in program order".into());
    }

    // The leaf matching.
    let mut sw = Swap {
        ts,
        partner: HashMap::new(),
        side: HashMap::new(),
        flags: HashMap::new(),
        corr: HashMap::new(),
    };
    for &(x, y) in &pair.leaves {
        if !ts.kind(x).is_var() || !ts.kind(y).is_var() || x == y {
            return Err(format!(
                "leaf pair ({x:?}, {y:?}) is not two distinct variables"
            ));
        }
        for (leaf, side) in [(x, 1), (y, 2)] {
            if sw.side.insert(leaf, side).is_some() {
                return Err(format!("leaf {leaf:?} is paired twice"));
            }
        }
        sw.partner.insert(x, y);
        sw.partner.insert(y, x);
    }

    // Events, guards and value terms.
    let block_vars = |b: usize| ssa.atomic_blocks.get(b).map(|blk| &blk.vars);
    for (x, y) in ea.iter().zip(&eb) {
        let same_kind = match (&x.kind, &y.kind) {
            (EventKind::Read { var: a, value: va }, EventKind::Read { var: b, value: vb })
            | (EventKind::Write { var: a, value: va }, EventKind::Write { var: b, value: vb }) => {
                a == b && sw.partner.get(va) == Some(vb) && sw.side.get(va) == Some(&1)
            }
            (EventKind::Lock { mutex: a }, EventKind::Lock { mutex: b })
            | (EventKind::Unlock { mutex: a }, EventKind::Unlock { mutex: b }) => a == b,
            (EventKind::Fence, EventKind::Fence) => true,
            (EventKind::AtomicBegin { block: a }, EventKind::AtomicBegin { block: b })
            | (EventKind::AtomicEnd { block: a }, EventKind::AtomicEnd { block: b }) => {
                block_vars(*a).is_some() && block_vars(*a) == block_vars(*b)
            }
            _ => false,
        };
        if !same_kind || x.pos != y.pos {
            return Err(format!("events {} and {} differ in kind", x.id, y.id));
        }
        if !sw.maps(x.guard, y.guard) {
            return Err(format!(
                "guards of events {} and {} do not correspond",
                x.id, y.id
            ));
        }
        if sw.flags(x.guard) & 4 != 0 {
            return Err(format!("event {} carries a sweep unwinding marker", x.id));
        }
    }
    for e in &ssa.events {
        if e.thread == ta || e.thread == tb {
            continue;
        }
        let moved_value = e.kind.value().is_some_and(|v| sw.side.contains_key(&v));
        if moved_value || sw.flags(e.guard) & 3 != 0 {
            return Err(format!(
                "event {} of thread {} mentions a swapped leaf",
                e.id, e.thread
            ));
        }
    }

    // Φ_ssa and the assertions: σ permutes each set.
    sw.maps_items("conjunct", &ssa.constraints, |c| [c, c])?;
    sw.maps_items("assertion", &ssa.assertions, |(g, c)| [g, c])?;

    // The anchors: the first lock, or the first write of a lock-free
    // thread, at the same position in both threads.
    let unconditional = |e: &Event| matches!(ts.kind(e.guard), TermKind::BoolConst(true));
    for (events, anchor) in [(&ea, pair.anchors.0), (&eb, pair.anchors.1)] {
        let first_lock = events
            .iter()
            .find(|e| matches!(e.kind, EventKind::Lock { .. }));
        let first = first_lock.or_else(|| {
            events
                .iter()
                .find(|e| matches!(e.kind, EventKind::Write { .. }))
        });
        if first.map(|e| e.id) != Some(anchor) || !first.is_some_and(|e| unconditional(e)) {
            return Err(format!(
                "event {anchor} is not an unconditional first lock, nor the unconditional \
                 first write of a thread without locks"
            ));
        }
    }
    if ssa.events[pair.anchors.0].pos != ssa.events[pair.anchors.1].pos {
        return Err("the anchors sit at different positions".into());
    }

    // `main`'s spawns and joins.
    let main: Vec<&Event> = ssa.thread_events(0).collect();
    let sync_of = |t: usize, spawn: bool| -> Result<usize, String> {
        let hits: Vec<&Event> = ssa
            .events
            .iter()
            .filter(|e| match e.kind {
                EventKind::Spawn { child } => spawn && child == t,
                EventKind::Join { child } => !spawn && child == t,
                _ => false,
            })
            .collect();
        match hits.as_slice() {
            [e] if e.thread == 0 && unconditional(e) => Ok(e.pos),
            _ => Err(format!(
                "thread {t} is not {} exactly once, unconditionally, by main",
                if spawn { "spawned" } else { "joined" }
            )),
        }
    };
    for spawn in [true, false] {
        let (a, b) = (sync_of(ta, spawn)?, sync_of(tb, spawn)?);
        let between = &main[a.min(b) + 1..a.max(b)];
        let only_sync = between.iter().all(|e| match e.kind {
            EventKind::Spawn { .. } => spawn,
            EventKind::Join { .. } => !spawn,
            _ => false,
        });
        if !only_sync {
            return Err(format!(
                "main runs other events between the two {}",
                if spawn { "spawns" } else { "joins" }
            ));
        }
    }
    Ok(())
}

/// The encoder takes Φ_po and its closure filters from `report.po`: its
/// edges must be the program's, and its closure exactly their
/// reachability, re-derived here by a search from every event.
fn check_program_order(
    report: &PruneReport,
    edges: &HashSet<(usize, usize)>,
    n: usize,
) -> Result<(), String> {
    let reported: HashSet<(usize, usize)> = report.po.pairs.iter().copied().collect();
    if reported != *edges {
        return Err("reported program-order edges differ from the program's".into());
    }
    let closure = &report.po.closure;
    if closure.len() != n {
        return Err(format!(
            "program-order closure over {} events, program has {n}",
            closure.len()
        ));
    }
    let mut succ: Vec<Vec<usize>> = vec![Vec::new(); n];
    for &(a, b) in edges {
        succ[a].push(b);
    }
    let mut seen = vec![false; n];
    let mut stack = Vec::new();
    for from in 0..n {
        seen.fill(false);
        stack.clear();
        stack.extend_from_slice(&succ[from]);
        while let Some(x) = stack.pop() {
            if !std::mem::replace(&mut seen[x], true) {
                stack.extend_from_slice(&succ[x]);
            }
        }
        if let Some(to) = (0..n).find(|&to| seen[to] != closure.reaches(from, to)) {
            return Err(format!(
                "program-order closure wrong on {from} -> {to}: reachable is {}",
                seen[to]
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory_model::ProgramOrder;
    use crate::prune::analyze;
    use zpre_prog::build::*;
    use zpre_prog::{to_ssa, MemoryModel};

    /// Store buffering: W x; R y against W y; R x, whose TSO order drops
    /// each thread's write→read edge.
    fn store_buffering() -> SsaProgram {
        let p = ProgramBuilder::new("sb")
            .shared("x", 0)
            .shared("y", 0)
            .thread("t1", vec![assign("x", c(1)), assign("a", v("y"))])
            .thread("t2", vec![assign("y", c(1)), assign("b", v("x"))])
            .main(vec![spawn(1), spawn(2), join(1), join(2)])
            .build();
        to_ssa(&p)
    }

    #[test]
    fn report_program_order_is_rechecked() {
        let ssa = store_buffering();
        let rep = analyze(&ssa, MemoryModel::Tso);
        assert!(check_report(&ssa, &rep).is_ok());

        let mut dropped = rep.clone();
        dropped.po.pairs.pop();
        let err = check_report(&ssa, &dropped).unwrap_err();
        assert!(err.contains("edges differ"), "{err}");

        // SC's closure orders each thread's write before its read, which
        // TSO's edges do not.
        let mut forged = rep.clone();
        forged.po.closure = ProgramOrder::new(&ssa, MemoryModel::Sc).closure;
        let err = check_report(&ssa, &forged).unwrap_err();
        assert!(err.contains("closure wrong"), "{err}");
    }
}
