//! Thread-safe trace recorder: hierarchical phase spans, exact counters,
//! sampled event stream, and per-member portfolio telemetry.
//!
//! The recorder counts nothing the solver already counts: search counters
//! arrive once per solve call as the solver's `Stats` delta (through
//! [`Recorder::add`] and [`Recorder::add_decisions`]), and events feed only
//! the stream, the histograms and the counters no `Stats` field holds.

use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::Instant;

use std::ops::{Index, IndexMut};

use crate::event::{Event, EventSink};
use crate::metrics::Hists;
use crate::vocab::{Counter, Hist, Phase, VarClass};

/// Configuration for a [`Recorder`].
#[derive(Debug, Clone)]
pub struct TraceConfig {
    /// Keep individual events (decisions, conflicts, …) in memory for NDJSON
    /// export. Counters are maintained regardless.
    pub events: bool,
    /// Record every `decision_sample`-th decision event (1 = all). Sampled-out
    /// decisions still count in the solver's totals; the summary reports how
    /// many event lines were dropped by sampling.
    pub decision_sample: u32,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            events: true,
            decision_sample: 1,
        }
    }
}

/// A completed (or still-open) phase span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    pub phase: Phase,
    /// Optional detail, e.g. the memory model an encode span ran under.
    pub label: Option<String>,
    /// Portfolio member that opened the span, if any.
    pub member: Option<String>,
    /// Nesting depth within the opening thread (0 = top level).
    pub depth: u32,
    /// Microseconds since the recorder's epoch.
    pub start_us: u64,
    /// Duration in microseconds; meaningful once `closed`.
    pub dur_us: u64,
    pub closed: bool,
}

/// One recorded event with global sequence number and member attribution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventRecord {
    pub seq: u64,
    pub member: Option<String>,
    pub kind: EventKind,
}

/// Recorded event kinds; `Decision` carries the resolved class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    Decision {
        var: u32,
        class: VarClass,
        level: u32,
        guided: bool,
    },
    Conflict {
        level: u32,
        lbd: u32,
    },
    TheoryLemma {
        cycle_len: u32,
    },
    Restart {
        /// Conflicts since the previous restart (the restart interval).
        conflicts: u64,
    },
    Reduction {
        removed: u64,
    },
}

/// Exact counters, whether or not the event stream is enabled or sampled:
/// decisions per [`VarClass`], and one value per scalar [`Counter`], read
/// and written as `counters[Counter::Conflicts]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counters {
    /// Decisions per [`VarClass`], indexed by `VarClass::index()`.
    pub decisions: [u64; VarClass::COUNT],
    /// Guide-driven decisions per class.
    pub guided: [u64; VarClass::COUNT],
    values: [u64; Counter::COUNT],
}

// Written out: `Default` is derived only for arrays of up to 32 elements.
impl Default for Counters {
    fn default() -> Self {
        Counters {
            decisions: [0; VarClass::COUNT],
            guided: [0; VarClass::COUNT],
            values: [0; Counter::COUNT],
        }
    }
}

impl Index<Counter> for Counters {
    type Output = u64;

    fn index(&self, c: Counter) -> &u64 {
        &self.values[c.index()]
    }
}

impl IndexMut<Counter> for Counters {
    fn index_mut(&mut self, c: Counter) -> &mut u64 {
        &mut self.values[c.index()]
    }
}

impl Counters {
    /// Adds every counter of `other` into this one.
    pub fn accumulate(&mut self, other: &Counters) {
        let mine = self.decisions.iter_mut().chain(&mut self.guided);
        for (a, b) in mine.chain(&mut self.values).zip(
            other
                .decisions
                .iter()
                .chain(&other.guided)
                .chain(&other.values),
        ) {
            *a += b;
        }
    }

    pub fn total_decisions(&self) -> u64 {
        self.decisions.iter().sum()
    }

    pub fn interference_decisions(&self) -> u64 {
        VarClass::ALL
            .iter()
            .filter(|c| c.is_interference())
            .map(|c| self.decisions[c.index()])
            .sum()
    }
}

/// Telemetry for one portfolio member, recorded by the portfolio engine.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MemberRecord {
    pub name: String,
    pub strategy: String,
    /// "safe" / "unsafe" / "unknown" / "error".
    pub verdict: String,
    pub winner: bool,
    pub cancelled: bool,
    /// Decision count reached by this member (depth at cancellation for
    /// losers).
    pub decisions: u64,
    pub conflicts: u64,
    pub time_us: u64,
    /// Quarantine / failure reason, if any.
    pub error: Option<String>,
}

/// Immutable snapshot of everything a recorder captured.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceSnapshot {
    pub decision_sample: u32,
    pub spans: Vec<SpanRecord>,
    pub events: Vec<EventRecord>,
    pub members: Vec<MemberRecord>,
    pub counters: Counters,
    /// Distribution metrics (histograms) fed alongside the counters.
    pub hists: Hists,
}

struct Inner {
    cfg: TraceConfig,
    spans: Vec<SpanRecord>,
    events: Vec<EventRecord>,
    members: Vec<MemberRecord>,
    counters: Counters,
    hists: Hists,
    /// Decision events seen so far: the sampling cursor that picks which
    /// ones become stream lines.
    decisions_seen: u64,
    /// Global event sequence; monotone across all threads (one mutex).
    seq: u64,
    /// Per-thread span nesting depth.
    depth: HashMap<ThreadId, u32>,
}

struct Shared {
    epoch: Instant,
    inner: Mutex<Inner>,
}

/// Cheaply cloneable handle to a shared trace buffer. Clones share the same
/// buffer; [`Recorder::member_labeled`] produces a clone whose spans and
/// events carry a member label, which is how portfolio threads attribute
/// their activity without separate buffers.
#[derive(Clone)]
pub struct Recorder {
    shared: Arc<Shared>,
    member: Option<Arc<str>>,
}

impl fmt::Debug for Recorder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Recorder")
            .field("member", &self.member)
            .finish_non_exhaustive()
    }
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new(TraceConfig::default())
    }
}

impl Recorder {
    pub fn new(cfg: TraceConfig) -> Recorder {
        let sample = cfg.decision_sample.max(1);
        Recorder {
            shared: Arc::new(Shared {
                epoch: Instant::now(),
                inner: Mutex::new(Inner {
                    cfg: TraceConfig {
                        decision_sample: sample,
                        ..cfg
                    },
                    spans: Vec::new(),
                    events: Vec::new(),
                    members: Vec::new(),
                    counters: Counters::default(),
                    hists: Hists::default(),
                    decisions_seen: 0,
                    seq: 0,
                    depth: HashMap::new(),
                }),
            }),
            member: None,
        }
    }

    /// A clone whose recorded spans/events are attributed to `member`.
    pub fn member_labeled(&self, member: &str) -> Recorder {
        Recorder {
            shared: Arc::clone(&self.shared),
            member: Some(Arc::from(member)),
        }
    }

    fn member_string(&self) -> Option<String> {
        self.member.as_deref().map(str::to_owned)
    }

    /// Open a phase span. The span closes (fills its duration) on drop or via
    /// [`Span::close`].
    pub fn span(&self, phase: Phase) -> Span {
        self.span_labeled(phase, None)
    }

    /// Open a phase span with a detail label (e.g. the memory model name).
    pub fn span_labeled(&self, phase: Phase, label: Option<&str>) -> Span {
        let start = Instant::now();
        let start_us = start.duration_since(self.shared.epoch).as_micros() as u64;
        let tid = std::thread::current().id();
        let mut inner = self.shared.inner.lock().unwrap();
        let depth = {
            let d = inner.depth.entry(tid).or_insert(0);
            let cur = *d;
            *d += 1;
            cur
        };
        let idx = inner.spans.len();
        inner.spans.push(SpanRecord {
            phase,
            label: label.map(str::to_owned),
            member: self.member_string(),
            depth,
            start_us,
            dur_us: 0,
            closed: false,
        });
        Span {
            shared: Arc::clone(&self.shared),
            idx,
            start,
            tid,
            done: false,
        }
    }

    /// Adds `delta` to one scalar counter.
    pub fn add(&self, counter: Counter, delta: u64) {
        self.shared.inner.lock().unwrap().counters[counter] += delta;
    }

    /// Adds `decisions` decisions of `class`, `guided` of them taken from
    /// the decision guide.
    pub fn add_decisions(&self, class: VarClass, decisions: u64, guided: u64) {
        let mut inner = self.shared.inner.lock().unwrap();
        inner.counters.decisions[class.index()] += decisions;
        inner.counters.guided[class.index()] += guided;
    }

    /// Records one observation into one scalar distribution.
    pub fn observe(&self, hist: Hist, value: u64) {
        self.shared.inner.lock().unwrap().hists[hist].observe(value);
    }

    /// Record one portfolio member's telemetry.
    pub fn record_member(&self, rec: MemberRecord) {
        let mut inner = self.shared.inner.lock().unwrap();
        inner.members.push(rec);
    }

    /// Snapshot the current contents. Open spans appear with `closed: false`.
    pub fn snapshot(&self) -> TraceSnapshot {
        let inner = self.shared.inner.lock().unwrap();
        TraceSnapshot {
            decision_sample: inner.cfg.decision_sample,
            spans: inner.spans.clone(),
            events: inner.events.clone(),
            members: inner.members.clone(),
            counters: inner.counters.clone(),
            hists: inner.hists.clone(),
        }
    }

    /// Distribution metrics only (cheaper than a full snapshot).
    pub fn hists(&self) -> Hists {
        self.shared.inner.lock().unwrap().hists.clone()
    }

    /// Exact counters only (cheaper than a full snapshot).
    pub fn counters(&self) -> Counters {
        self.shared.inner.lock().unwrap().counters.clone()
    }
}

impl EventSink for Recorder {
    fn emit(&self, ev: Event) {
        let mut inner = self.shared.inner.lock().unwrap();
        let inner = &mut *inner;
        let kind = match ev {
            Event::Decision {
                var,
                class,
                level,
                guided,
            } => {
                let n = inner.decisions_seen;
                inner.decisions_seen += 1;
                if inner.cfg.events && !n.is_multiple_of(inner.cfg.decision_sample as u64) {
                    inner.counters[Counter::DroppedEvents] += 1;
                    return;
                }
                EventKind::Decision {
                    var,
                    class,
                    level,
                    guided,
                }
            }
            Event::Conflict { level, lbd, window } => {
                inner.hists[Hist::ConflictLbd].observe(lbd as u64);
                // Each class's decision count in the closed window. Classes
                // that made no decisions in it are skipped: absence is not a
                // distance of zero.
                for (h, n) in inner.hists.dec_to_conflict.iter_mut().zip(window) {
                    if n > 0 {
                        h.observe(n);
                    }
                }
                EventKind::Conflict { level, lbd }
            }
            Event::TheoryLemma { cycle_len } => {
                inner.counters[Counter::TheoryLemmas] += 1;
                inner.counters[Counter::LemmaCycleEdges] += cycle_len as u64;
                inner.hists[Hist::LemmaCycleLen].observe(cycle_len as u64);
                EventKind::TheoryLemma { cycle_len }
            }
            Event::Restart { conflicts } => {
                inner.hists[Hist::RestartInterval].observe(conflicts);
                EventKind::Restart { conflicts }
            }
            Event::Reduction { removed } => {
                inner.counters[Counter::ClausesRemoved] += removed;
                EventKind::Reduction { removed }
            }
            Event::CycleCheck { visited } => {
                inner.hists[Hist::CycleVisited].observe(visited as u64);
                return;
            }
            Event::Share { import_hits } => {
                inner.hists[Hist::ShImportHits].observe(import_hits);
                return;
            }
        };
        if !inner.cfg.events {
            return;
        }
        let seq = inner.seq;
        inner.seq += 1;
        inner.events.push(EventRecord {
            seq,
            member: self.member_string(),
            kind,
        });
    }
}

/// RAII guard for an open phase span. Closing fills in the duration; dropping
/// without an explicit [`Span::close`] closes it too.
pub struct Span {
    shared: Arc<Shared>,
    idx: usize,
    start: Instant,
    tid: ThreadId,
    done: bool,
}

impl Span {
    /// Close the span now (identical to dropping, but reads better at call
    /// sites that want an explicit end point).
    pub fn close(mut self) {
        self.finish();
    }

    fn finish(&mut self) {
        if self.done {
            return;
        }
        self.done = true;
        let dur_us = self.start.elapsed().as_micros() as u64;
        let mut inner = self.shared.inner.lock().unwrap();
        if let Some(d) = inner.depth.get_mut(&self.tid) {
            *d = d.saturating_sub(1);
        }
        if let Some(rec) = inner.spans.get_mut(self.idx) {
            rec.dur_us = dur_us;
            rec.closed = true;
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_nesting_depths_and_order() {
        let rec = Recorder::default();
        {
            let _outer = rec.span(Phase::Encode);
            {
                let _inner = rec.span(Phase::Blast);
            }
            let _sibling = rec.span_labeled(Phase::Blast, Some("guards"));
        }
        let snap = rec.snapshot();
        assert_eq!(snap.spans.len(), 3);
        assert_eq!(snap.spans[0].phase, Phase::Encode);
        assert_eq!(snap.spans[0].depth, 0);
        assert_eq!(snap.spans[1].phase, Phase::Blast);
        assert_eq!(snap.spans[1].depth, 1);
        assert_eq!(snap.spans[2].depth, 1);
        assert_eq!(snap.spans[2].label.as_deref(), Some("guards"));
        assert!(snap.spans.iter().all(|s| s.closed));
        // Spans are recorded in open order; starts are monotone.
        assert!(snap.spans[0].start_us <= snap.spans[1].start_us);
        assert!(snap.spans[1].start_us <= snap.spans[2].start_us);
    }

    fn decision(var: u32, class: VarClass, guided: bool) -> Event {
        Event::Decision {
            var,
            class,
            level: var + 1,
            guided,
        }
    }

    fn conflict(lbd: u32, window: [u64; VarClass::COUNT]) -> Event {
        Event::Conflict {
            level: 1,
            lbd,
            window,
        }
    }

    #[test]
    fn decision_events_carry_their_class() {
        let rec = Recorder::default();
        let classes = [
            VarClass::ExternalRf,
            VarClass::InternalRf,
            VarClass::Ws,
            VarClass::Other,
        ];
        for (var, class) in (0u32..).zip(classes) {
            rec.emit(decision(var, class, var < 3));
        }
        let snap = rec.snapshot();
        let streamed: Vec<VarClass> = snap
            .events
            .iter()
            .map(|e| match e.kind {
                EventKind::Decision { class, .. } => class,
                _ => panic!("expected decisions"),
            })
            .collect();
        assert_eq!(streamed, classes);
        // Decision counts are the solver's: events add none.
        assert_eq!(snap.counters.total_decisions(), 0);
        rec.add_decisions(VarClass::ExternalRf, 5, 4);
        rec.add_decisions(VarClass::Other, 2, 0);
        let c = rec.counters();
        assert_eq!(c.total_decisions(), 7);
        assert_eq!(c.interference_decisions(), 5);
        assert_eq!(c.guided.iter().sum::<u64>(), 4);
    }

    #[test]
    fn sampling_counts_everything_records_subset() {
        let rec = Recorder::new(TraceConfig {
            events: true,
            decision_sample: 10,
        });
        for var in 0..100u32 {
            rec.emit(decision(var, VarClass::Other, false));
        }
        rec.emit(conflict(2, [0, 0, 0, 100]));
        let snap = rec.snapshot();
        assert_eq!(snap.counters[Counter::DroppedEvents], 90);
        let decisions = snap
            .events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Decision { .. }))
            .count();
        assert_eq!(decisions, 10);
        // Non-decision events are never sampled out.
        assert!(snap
            .events
            .iter()
            .any(|e| matches!(e.kind, EventKind::Conflict { .. })));
    }

    #[test]
    fn counters_without_event_storage() {
        let rec = Recorder::new(TraceConfig {
            events: false,
            decision_sample: 1,
        });
        rec.emit(Event::Restart { conflicts: 17 });
        rec.emit(Event::Reduction { removed: 42 });
        rec.emit(Event::TheoryLemma { cycle_len: 4 });
        let snap = rec.snapshot();
        assert!(snap.events.is_empty());
        // Restarts are the solver's count; removed clauses and lemmas are
        // counted here, from their one event each.
        assert_eq!(snap.counters[Counter::Restarts], 0);
        assert_eq!(snap.counters[Counter::ClausesRemoved], 42);
        assert_eq!(snap.counters[Counter::TheoryLemmas], 1);
        assert_eq!(snap.counters[Counter::LemmaCycleEdges], 4);
        // Histograms are fed even when event storage is off.
        assert_eq!(snap.hists[Hist::RestartInterval].count(), 1);
        assert_eq!(snap.hists[Hist::RestartInterval].max(), 17);
        assert_eq!(snap.hists[Hist::LemmaCycleLen].count(), 1);
    }

    #[test]
    fn conflict_windows_are_per_member_and_per_class() {
        let rec = Recorder::default();
        let a = rec.member_labeled("a");
        let b = rec.member_labeled("b");
        // Each member's solver closes its own window: a's held three
        // external-RF decisions, b's one Ws and two Other decisions.
        a.emit(conflict(2, [3, 0, 0, 0]));
        b.emit(conflict(1, [0, 0, 1, 2]));
        let snap = rec.snapshot();
        let d2c = |c: VarClass| &snap.hists.dec_to_conflict[c.index()];
        assert_eq!(d2c(VarClass::ExternalRf).count(), 1);
        assert_eq!(d2c(VarClass::ExternalRf).max(), 3);
        assert_eq!(d2c(VarClass::Ws).max(), 1);
        assert_eq!(d2c(VarClass::Other).max(), 2);
        // Classes with zero decisions in a window are skipped entirely.
        assert_eq!(d2c(VarClass::InternalRf).count(), 0);
        assert_eq!(d2c(VarClass::Other).count(), 1);
        assert_eq!(snap.hists[Hist::ConflictLbd].count(), 2);
        assert_eq!(snap.counters[Counter::Conflicts], 0);
    }

    #[test]
    fn concurrent_member_streams_are_deterministic() {
        // Two recorders fed by the same per-member scripts on different thread
        // interleavings must yield identical per-member event subsequences.
        fn run() -> TraceSnapshot {
            let rec = Recorder::default();
            let names = ["zpre", "baseline", "zpre#2"];
            std::thread::scope(|s| {
                for (i, name) in names.iter().enumerate() {
                    let member = rec.member_labeled(name);
                    s.spawn(move || {
                        for round in 0..50u32 {
                            let class = VarClass::ALL[(round as usize + i) % 2];
                            member.emit(decision(round, class, true));
                            if round % 10 == 0 {
                                member.emit(conflict(i as u32 + 1, [1, 1, 0, 0]));
                            }
                        }
                    });
                }
            });
            rec.snapshot()
        }

        let a = run();
        let b = run();
        // Global interleaving may differ, but per-member streams and the
        // aggregate histograms are identical run to run.
        assert_eq!(a.hists, b.hists);
        for name in ["zpre", "baseline", "zpre#2"] {
            let stream = |s: &TraceSnapshot| -> Vec<EventKind> {
                s.events
                    .iter()
                    .filter(|e| e.member.as_deref() == Some(name))
                    .map(|e| e.kind)
                    .collect()
            };
            assert_eq!(stream(&a), stream(&b), "member {name} stream diverged");
        }
        // Sequence numbers are strictly increasing overall.
        for w in a.events.windows(2) {
            assert!(w[0].seq < w[1].seq);
        }
    }

    #[test]
    fn cycle_checks_feed_only_the_visited_histogram() {
        let rec = Recorder::default();
        rec.emit(Event::CycleCheck { visited: 7 });
        rec.emit(Event::CycleCheck { visited: 2 });
        let snap = rec.snapshot();
        // Never in the event stream, and no counter moves: the cc_* counts
        // are the solver's.
        assert!(snap.events.is_empty());
        assert_eq!(snap.counters, Counters::default());
        assert_eq!(snap.hists[Hist::CycleVisited].count(), 2);
        assert_eq!(snap.hists[Hist::CycleVisited].max(), 7);
    }

    #[test]
    fn share_hits_feed_only_their_histogram() {
        let rec = Recorder::default();
        rec.emit(Event::Share { import_hits: 7 });
        rec.emit(Event::Share { import_hits: 2 });
        let snap = rec.snapshot();
        assert!(snap.events.is_empty());
        assert_eq!(snap.counters, Counters::default());
        assert_eq!(snap.hists[Hist::ShImportHits].count(), 2);
        assert_eq!(snap.hists[Hist::ShImportHits].max(), 7);
    }

    #[test]
    fn member_records_accumulate() {
        let rec = Recorder::default();
        rec.record_member(MemberRecord {
            name: "zpre".into(),
            strategy: "zpre".into(),
            verdict: "safe".into(),
            winner: true,
            decisions: 12,
            ..MemberRecord::default()
        });
        rec.record_member(MemberRecord {
            name: "baseline".into(),
            strategy: "baseline".into(),
            verdict: "unknown".into(),
            cancelled: true,
            error: Some("cancelled".into()),
            ..MemberRecord::default()
        });
        let snap = rec.snapshot();
        assert_eq!(snap.members.len(), 2);
        assert!(snap.members[0].winner);
        assert!(snap.members[1].cancelled);
    }
}
