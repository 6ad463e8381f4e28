//! Thread symmetry: adjacent threads that are identical up to a renaming
//! of their locals.
//!
//! Two worker threads `T_i`, `T_{i+1}` are *symmetric* when swapping them
//! maps the SSA program onto itself:
//!
//! - their events correspond position by position (same kind, variable,
//!   mutex, and guard up to the renaming of value terms);
//! - the Φ_ssa conjuncts and assertions that mention one thread's value
//!   terms map onto the other's;
//! - `main` spawns each exactly once and joins each exactly once, and
//!   holds nothing but spawns between the two spawns and nothing but joins
//!   between the two joins.
//!
//! Each thread's *anchor* must also be unconditional: its first `lock`,
//! or its first write when it has no lock. Any execution can then be
//! relabelled so that a run of symmetric threads takes its first locks in
//! index order (or has its first writes in index order in coherence
//! order), and the encoder adds one lex-leader clause per admitted pair
//! over the existing selector of the two anchors: the section-serialization
//! selector of the two first critical sections, or the ws selector of the
//! two first writes. The argument is in DESIGN.md §6k.
//!
//! Detection compares per-thread canonical signatures: every term is
//! hash-consed into one shared table in which a thread's value terms are
//! renamed to their event positions. An admitted [`SymPair`] carries the
//! explicit event and leaf bijection, which [`crate::check::check_report`]
//! re-verifies term by term without this module's canonical forms.

use std::collections::HashMap;
use zpre_bv::{TermId, TermKind, TermStore};
use zpre_prog::ssa::{Event, EventKind, SsaProgram};
use zpre_prog::SWEEP_MARKER_PREFIX;

/// Two adjacent symmetric threads, with the witness of their symmetry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SymPair {
    /// The lower-numbered thread `T_i`.
    pub first: usize,
    /// Its symmetric neighbour `T_{i+1}`.
    pub second: usize,
    /// The anchors of `first` and `second`: their first `lock` events, or
    /// their first writes when they have no lock. The lex-leader clause
    /// puts the section opened by `anchors.0`, or the write `anchors.0`,
    /// first.
    pub anchors: (usize, usize),
    /// Event bijection: `(event of first, event of second)` in program
    /// order, covering every event of both threads.
    pub events: Vec<(usize, usize)>,
    /// Leaf bijection: `(value term of first, value term of second)` for
    /// every read and write of the two threads.
    pub leaves: Vec<(TermId, TermId)>,
}

/// Which worker threads' value terms a term mentions.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
enum Owners {
    None,
    One(usize),
    Many,
}

impl Owners {
    fn join(self, other: Owners) -> Owners {
        match (self, other) {
            (Owners::None, o) | (o, Owners::None) => o,
            (Owners::One(a), Owners::One(b)) if a == b => Owners::One(a),
            _ => Owners::Many,
        }
    }
}

/// What a term mentions: worker value terms, and sweep unwinding markers.
#[derive(Copy, Clone, Debug)]
struct Mention {
    owners: Owners,
    marker: bool,
}

impl Mention {
    fn join(self, other: Mention) -> Mention {
        Mention {
            owners: self.owners.join(other.owners),
            marker: self.marker || other.marker,
        }
    }
}

/// Canonical-form key: a worker value term becomes its event position,
/// every other term its constructor over canonical operand ids.
#[derive(Clone, PartialEq, Eq, Hash)]
enum Key {
    Pos(usize),
    Node(TermKind),
}

struct Canon<'a> {
    ts: &'a TermStore,
    /// Worker value term → `(thread, pos)` of its event.
    owner: HashMap<TermId, (usize, usize)>,
    /// Memo tables indexed by term id.
    mentions: Vec<Option<Mention>>,
    ids: Vec<Option<u32>>,
    table: HashMap<Key, u32>,
}

impl Canon<'_> {
    fn mention(&mut self, t: TermId) -> Mention {
        if let Some(m) = self.mentions[t.0 as usize] {
            return m;
        }
        let ts = self.ts;
        let m = match ts.kind(t) {
            TermKind::BoolVar(name) => Mention {
                owners: Owners::None,
                marker: name.contains(SWEEP_MARKER_PREFIX),
            },
            TermKind::BvVar { .. } => Mention {
                owners: self
                    .owner
                    .get(&t)
                    .map_or(Owners::None, |&(th, _)| Owners::One(th)),
                marker: false,
            },
            kind => kind.children().into_iter().fold(
                Mention {
                    owners: Owners::None,
                    marker: false,
                },
                |acc, c| acc.join(self.mention(c)),
            ),
        };
        self.mentions[t.0 as usize] = Some(m);
        m
    }

    /// Canonical id of `t`. Only meaningful on terms that mention at most
    /// one worker thread's value terms, which the caller has checked.
    fn id(&mut self, t: TermId) -> u32 {
        if let Some(id) = self.ids[t.0 as usize] {
            return id;
        }
        let key = match self.owner.get(&t) {
            Some(&(_, pos)) => Key::Pos(pos),
            None => {
                let kind = self.ts.kind(t);
                let mut ops: Vec<u32> = kind.children().into_iter().map(|c| self.id(c)).collect();
                // Commutative operands are ordered by term id, which
                // differs between threads.
                if kind.is_commutative() {
                    ops.sort_unstable();
                }
                let mut ops = ops.into_iter();
                Key::Node(kind.map_children(|_| TermId(ops.next().expect("operand"))))
            }
        };
        let next = self.table.len() as u32;
        let id = *self.table.entry(key).or_insert(next);
        self.ids[t.0 as usize] = Some(id);
        id
    }
}

/// A thread's canonical signature: equal signatures (with equal event
/// shapes) mean the threads are identical up to renaming value terms.
#[derive(PartialEq, Eq)]
struct Signature {
    guards: Vec<u32>,
    constraints: Vec<u32>,
    assertions: Vec<(u32, u32)>,
}

/// An event's kind without its value term; `None` for spawn and join,
/// which a symmetric worker may not contain.
fn shape(e: &Event) -> Option<(u8, usize)> {
    Some(match e.kind {
        EventKind::Read { var, .. } => (0, var),
        EventKind::Write { var, .. } => (1, var),
        EventKind::Lock { mutex } => (2, mutex),
        EventKind::Unlock { mutex } => (3, mutex),
        EventKind::Fence => (4, 0),
        EventKind::AtomicBegin { .. } => (5, 0),
        EventKind::AtomicEnd { .. } => (6, 0),
        EventKind::Spawn { .. } | EventKind::Join { .. } => return None,
    })
}

/// Finds every adjacent pair of symmetric worker threads whose anchor
/// (first lock, else first write) is unconditional. Refuses threads whose
/// terms carry sweep unwinding markers.
pub fn symmetric_pairs(ssa: &SsaProgram) -> Vec<SymPair> {
    let nt = ssa.num_threads();
    let ts = &ssa.store;
    let mut threads: Vec<Vec<&Event>> = vec![Vec::new(); nt];
    for e in &ssa.events {
        threads[e.thread].push(e);
    }
    let unconditional = |e: &Event| matches!(ts.kind(e.guard), TermKind::BoolConst(true));
    let anchor = |t: usize| {
        let events = &threads[t];
        events
            .iter()
            .find(|e| matches!(e.kind, EventKind::Lock { .. }))
            .or_else(|| {
                events
                    .iter()
                    .find(|e| matches!(e.kind, EventKind::Write { .. }))
            })
            .filter(|e| unconditional(e))
            .map(|e| e.id)
    };
    let same_shape = |a: usize, b: usize| {
        threads[a].len() == threads[b].len()
            && threads[a]
                .iter()
                .zip(&threads[b])
                .all(|(x, y)| shape(x).is_some() && shape(x) == shape(y))
    };
    // Cheap filter first: most programs have no candidate at all.
    let candidates: Vec<usize> = (1..nt.saturating_sub(1))
        .filter(|&t| same_shape(t, t + 1) && anchor(t).is_some() && anchor(t + 1).is_some())
        .collect();
    if candidates.is_empty() {
        return Vec::new();
    }

    // `main`'s one unconditional spawn (join) of `t`, if nobody else
    // spawns (joins) it; the two of a pair may have only spawns (joins)
    // between them.
    let sole = |t: usize, spawn: bool| {
        let mut hits = ssa.events.iter().filter(|e| match e.kind {
            EventKind::Spawn { child } => spawn && child == t,
            EventKind::Join { child } => !spawn && child == t,
            _ => false,
        });
        match (hits.next(), hits.next()) {
            (Some(e), None) if e.thread == 0 && unconditional(e) => Some(e.pos),
            _ => None,
        }
    };
    let main_ok = |a: usize, b: usize| {
        [true, false]
            .into_iter()
            .all(|spawn| match (sole(a, spawn), sole(b, spawn)) {
                (Some(x), Some(y)) => {
                    threads[0][x.min(y) + 1..x.max(y)]
                        .iter()
                        .all(|e| match e.kind {
                            EventKind::Spawn { .. } => spawn,
                            EventKind::Join { .. } => !spawn,
                            _ => false,
                        })
                }
                _ => false,
            })
    };

    let mut canon = Canon {
        ts,
        owner: HashMap::new(),
        mentions: vec![None; ts.len()],
        ids: vec![None; ts.len()],
        table: HashMap::new(),
    };
    for e in threads.iter().skip(1).flatten() {
        if let Some(v) = e.kind.value() {
            canon.owner.insert(v, (e.thread, e.pos));
        }
    }
    // Attribute every conjunct and assertion to the one worker whose value
    // terms it mentions; a thread is ineligible once a sweep marker shows up
    // in its terms. A term tying two workers together (impossible for
    // SSA-generated programs) disables the whole pass.
    let mut eligible = vec![true; nt];
    let mut constraints: Vec<Vec<u32>> = vec![Vec::new(); nt];
    let mut assertions: Vec<Vec<(u32, u32)>> = vec![Vec::new(); nt];
    for e in &ssa.events {
        let m = canon.mention(e.guard);
        match m.owners {
            Owners::None => {}
            Owners::One(t) if t == e.thread => {}
            _ => return Vec::new(),
        }
        eligible[e.thread] &= !m.marker;
    }
    for &c in &ssa.constraints {
        let m = canon.mention(c);
        match m.owners {
            Owners::None => {}
            Owners::One(t) => {
                eligible[t] &= !m.marker;
                let id = canon.id(c);
                constraints[t].push(id);
            }
            Owners::Many => return Vec::new(),
        }
    }
    for &(g, c) in &ssa.assertions {
        let m = canon.mention(g).join(canon.mention(c));
        match m.owners {
            Owners::None => {}
            Owners::One(t) => {
                eligible[t] &= !m.marker;
                let ids = (canon.id(g), canon.id(c));
                assertions[t].push(ids);
            }
            Owners::Many => return Vec::new(),
        }
    }
    let mut signature = |t: usize| Signature {
        guards: threads[t].iter().map(|e| canon.id(e.guard)).collect(),
        constraints: std::mem::take(&mut constraints[t]),
        assertions: std::mem::take(&mut assertions[t]),
    };

    let mut pairs = Vec::new();
    let mut sigs: HashMap<usize, Signature> = HashMap::new();
    for t in candidates {
        if !(eligible[t] && eligible[t + 1] && main_ok(t, t + 1)) {
            continue;
        }
        for u in [t, t + 1] {
            sigs.entry(u).or_insert_with(|| signature(u));
        }
        if sigs[&t] != sigs[&(t + 1)] {
            continue;
        }
        let (a, b) = (&threads[t], &threads[t + 1]);
        pairs.push(SymPair {
            first: t,
            second: t + 1,
            anchors: (
                anchor(t).expect("candidate"),
                anchor(t + 1).expect("candidate"),
            ),
            events: a.iter().zip(b).map(|(x, y)| (x.id, y.id)).collect(),
            leaves: a
                .iter()
                .zip(b)
                .filter_map(|(x, y)| Some((x.kind.value()?, y.kind.value()?)))
                .collect(),
        });
    }
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;
    use zpre_prog::build::*;
    use zpre_prog::{to_ssa, unroll_program, unroll_program_sweep, Program, Stmt};

    fn workers(name: &str, bodies: Vec<Vec<Stmt>>, main: Vec<Stmt>) -> Program {
        let mut b = ProgramBuilder::new(name)
            .shared("cnt", 0)
            .shared("flag", 0)
            .mutex("m");
        for (i, body) in bodies.into_iter().enumerate() {
            b = b.thread(&format!("w{i}"), body);
        }
        b.main(main).build()
    }

    fn inc(local: &str) -> Vec<Stmt> {
        vec![
            lock("m"),
            assign(local, v("cnt")),
            assign("cnt", add(v(local), c(1))),
            unlock("m"),
        ]
    }

    fn harness(n: usize) -> Vec<Stmt> {
        let mut main: Vec<Stmt> = (1..=n).map(spawn).collect();
        main.extend((1..=n).map(join));
        main.push(assert_(eq(v("cnt"), c(n as u64))));
        main
    }

    fn pairs_of(p: &Program) -> Vec<(usize, usize)> {
        let ssa = to_ssa(&unroll_program(p, 1));
        symmetric_pairs(&ssa)
            .iter()
            .map(|p| (p.first, p.second))
            .collect()
    }

    #[test]
    fn identical_workers_form_a_run() {
        let p = workers("run", vec![inc("a"), inc("b"), inc("c")], harness(3));
        assert_eq!(pairs_of(&p), vec![(1, 2), (2, 3)]);
    }

    #[test]
    fn a_different_worker_breaks_the_run() {
        let mut odd = inc("b");
        odd[2] = assign("cnt", add(v("b"), c(2)));
        let p = workers("odd", vec![inc("a"), odd, inc("c")], harness(3));
        assert_eq!(pairs_of(&p), Vec::<(usize, usize)>::new());
    }

    #[test]
    fn workers_without_locks_are_paired_on_their_first_writes() {
        let racy = vec![assign("r", v("cnt")), assign("cnt", add(v("r"), c(1)))];
        let p = workers("racy", vec![racy.clone(), racy], harness(2));
        let ssa = to_ssa(&unroll_program(&p, 1));
        let pairs = symmetric_pairs(&ssa);
        assert_eq!(pairs.len(), 1);
        let (a, b) = pairs[0].anchors;
        for (anchor, thread) in [(a, 1), (b, 2)] {
            let e = &ssa.events[anchor];
            assert!(matches!(e.kind, EventKind::Write { .. }), "{e:?}");
            assert_eq!(e.thread, thread);
        }
    }

    #[test]
    fn workers_without_locks_or_writes_are_not_paired() {
        let reader = |l: &str| vec![assign(l, v("cnt"))];
        let p = workers("readers", vec![reader("a"), reader("b")], harness(2));
        assert!(pairs_of(&p).is_empty());
    }

    #[test]
    fn a_join_between_the_spawns_blocks_the_pair() {
        let main = vec![
            spawn(1),
            join(1),
            spawn(2),
            join(2),
            assert_(eq(v("cnt"), c(2))),
        ];
        let p = workers("serial", vec![inc("a"), inc("b")], main);
        assert!(pairs_of(&p).is_empty());
    }

    #[test]
    fn sweep_markers_refuse_the_pair() {
        let looped = |l: &str| {
            vec![
                lock("m"),
                while_(
                    lt(v("flag"), c(1)),
                    vec![assign(l, v("cnt")), assign("flag", c(1))],
                ),
                unlock("m"),
            ]
        };
        let p = workers("loop", vec![looped("a"), looped("b")], harness(2));
        assert_eq!(pairs_of(&p), vec![(1, 2)]);
        let sweep = unroll_program_sweep(&p, 2).program;
        assert!(symmetric_pairs(&to_ssa(&sweep)).is_empty());
    }
}
