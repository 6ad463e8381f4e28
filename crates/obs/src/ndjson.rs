//! NDJSON trace export, a dependency-free line parser for it, and a schema
//! validator used by `zpre-cli trace check` and CI.
//!
//! Every line is one flat JSON object with a `"t"` tag:
//!
//! | tag         | meaning                                      |
//! |-------------|----------------------------------------------|
//! | `span`      | phase span (phase, label, member, depth, start_us, dur_us) |
//! | `decision`  | solver decision (seq, var, class, level, guided) |
//! | `conflict`  | solver conflict (seq, level, lbd)            |
//! | `lemma`     | order-theory lemma (seq, cycle_len)          |
//! | `restart`   | solver restart (seq, conflicts since last)   |
//! | `reduction` | learnt-DB reduction (seq, removed)           |
//! | `member`    | portfolio member telemetry                   |
//! | `hist`      | one distribution (name, count/sum/min/max, sparse buckets) |
//! | `summary`   | exact counters; terminates a trace block     |
//!
//! The `summary` keys and `hist` names come from the [`Counter`] and
//! [`Hist`] tables, span phases from [`Phase`].
//!
//! A file may hold several concatenated blocks (one per memory model when the
//! CLI iterates `--mm all`); each block ends with its own `summary` line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::metrics::Histogram;
use crate::recorder::{Counters, EventKind, EventRecord, MemberRecord, SpanRecord, TraceSnapshot};
use crate::vocab::{Counter, Hist, Phase, Presence, VarClass};

/// Minimal JSON scalar for flat trace objects.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonVal {
    Str(String),
    Num(u64),
    Bool(bool),
    Null,
}

impl JsonVal {
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonVal::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonVal::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonVal::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// `s` as a JSON string literal, quotes included: every control character
/// is escaped, so the result never breaks an NDJSON line.
pub fn quoted(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    esc(&mut out, s);
    out
}

fn esc(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Obj {
    buf: String,
    first: bool,
}

impl Obj {
    fn new(tag: &str) -> Obj {
        let mut o = Obj {
            buf: String::from("{\"t\":"),
            first: false,
        };
        esc(&mut o.buf, tag);
        o
    }

    fn sep(&mut self) {
        if self.first {
            self.first = false;
        } else {
            self.buf.push(',');
        }
    }

    fn str(&mut self, k: &str, v: &str) -> &mut Self {
        self.sep();
        esc(&mut self.buf, k);
        self.buf.push(':');
        esc(&mut self.buf, v);
        self
    }

    fn opt_str(&mut self, k: &str, v: Option<&str>) -> &mut Self {
        if let Some(v) = v {
            self.str(k, v);
        }
        self
    }

    fn num(&mut self, k: &str, v: u64) -> &mut Self {
        self.sep();
        esc(&mut self.buf, k);
        let _ = write!(self.buf, ":{v}");
        self
    }

    fn boolean(&mut self, k: &str, v: bool) -> &mut Self {
        self.sep();
        esc(&mut self.buf, k);
        let _ = write!(self.buf, ":{v}");
        self
    }

    fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

fn span_line(s: &SpanRecord) -> String {
    let mut o = Obj::new("span");
    o.str("phase", s.phase.name())
        .opt_str("label", s.label.as_deref())
        .opt_str("member", s.member.as_deref())
        .num("depth", s.depth as u64)
        .num("start_us", s.start_us)
        .num("dur_us", s.dur_us)
        .boolean("closed", s.closed);
    o.finish()
}

fn event_line(e: &EventRecord) -> String {
    let mut o = match e.kind {
        EventKind::Decision {
            var,
            class,
            level,
            guided,
        } => {
            let mut o = Obj::new("decision");
            o.num("seq", e.seq)
                .num("var", var as u64)
                .str("class", class.name())
                .num("level", level as u64)
                .boolean("guided", guided);
            o
        }
        EventKind::Conflict { level, lbd } => {
            let mut o = Obj::new("conflict");
            o.num("seq", e.seq)
                .num("level", level as u64)
                .num("lbd", lbd as u64);
            o
        }
        EventKind::TheoryLemma { cycle_len } => {
            let mut o = Obj::new("lemma");
            o.num("seq", e.seq).num("cycle_len", cycle_len as u64);
            o
        }
        EventKind::Restart { conflicts } => {
            let mut o = Obj::new("restart");
            o.num("seq", e.seq).num("conflicts", conflicts);
            o
        }
        EventKind::Reduction { removed } => {
            let mut o = Obj::new("reduction");
            o.num("seq", e.seq).num("removed", removed);
            o
        }
    };
    o.opt_str("member", e.member.as_deref());
    o.finish()
}

fn member_line(m: &MemberRecord) -> String {
    let mut o = Obj::new("member");
    o.str("name", &m.name)
        .str("strategy", &m.strategy)
        .str("verdict", &m.verdict)
        .boolean("winner", m.winner)
        .boolean("cancelled", m.cancelled)
        .num("decisions", m.decisions)
        .num("conflicts", m.conflicts)
        .num("time_us", m.time_us)
        .opt_str("error", m.error.as_deref());
    o.finish()
}

fn hist_line(name: &str, h: &Histogram) -> String {
    let mut o = Obj::new("hist");
    o.str("name", name)
        .num("count", h.count())
        .num("sum", h.sum())
        .num("min", h.min())
        .num("max", h.max())
        .str("buckets", &h.encode_buckets());
    o.finish()
}

fn summary_line(snap: &TraceSnapshot) -> String {
    let c = &snap.counters;
    let mut o = Obj::new("summary");
    o.num("sample", snap.decision_sample as u64);
    for cls in VarClass::ALL {
        o.num(&format!("dec_{}", cls.name()), c.decisions[cls.index()]);
        o.num(&format!("gd_{}", cls.name()), c.guided[cls.index()]);
    }
    for counter in Counter::ALL {
        o.num(counter.name(), c[counter]);
    }
    o.finish()
}

/// Serialize a snapshot as one NDJSON block (terminated by a `summary` line).
pub fn to_ndjson(snap: &TraceSnapshot) -> String {
    let mut out = String::new();
    for s in &snap.spans {
        out.push_str(&span_line(s));
        out.push('\n');
    }
    for e in &snap.events {
        out.push_str(&event_line(e));
        out.push('\n');
    }
    for m in &snap.members {
        out.push_str(&member_line(m));
        out.push('\n');
    }
    // Empty distributions are elided: a `hist` line asserts observations.
    for (name, h) in snap.hists.named() {
        if h.count() > 0 {
            out.push_str(&hist_line(&name, h));
            out.push('\n');
        }
    }
    out.push_str(&summary_line(snap));
    out.push('\n');
    out
}

/// Parse one flat JSON object (strings, non-negative integers, booleans,
/// null). Rejects nesting — trace lines are flat by construction.
pub fn parse_line(line: &str) -> Result<BTreeMap<String, JsonVal>, String> {
    let b: Vec<char> = line.chars().collect();
    let mut i = 0usize;
    let mut map = BTreeMap::new();

    fn skip_ws(b: &[char], i: &mut usize) {
        while *i < b.len() && b[*i].is_whitespace() {
            *i += 1;
        }
    }

    fn parse_string(b: &[char], i: &mut usize) -> Result<String, String> {
        if b.get(*i) != Some(&'"') {
            return Err(format!("expected '\"' at {i:?}", i = *i));
        }
        *i += 1;
        let mut s = String::new();
        while *i < b.len() {
            match b[*i] {
                '"' => {
                    *i += 1;
                    return Ok(s);
                }
                '\\' => {
                    *i += 1;
                    match b.get(*i) {
                        Some('"') => s.push('"'),
                        Some('\\') => s.push('\\'),
                        Some('/') => s.push('/'),
                        Some('n') => s.push('\n'),
                        Some('r') => s.push('\r'),
                        Some('t') => s.push('\t'),
                        Some('u') => {
                            let hex: String = b
                                .get(*i + 1..*i + 5)
                                .ok_or("truncated \\u escape")?
                                .iter()
                                .collect();
                            let code = u32::from_str_radix(&hex, 16).map_err(|e| e.to_string())?;
                            s.push(char::from_u32(code).ok_or("bad \\u escape")?);
                            *i += 4;
                        }
                        _ => return Err("bad escape".into()),
                    }
                    *i += 1;
                }
                c => {
                    s.push(c);
                    *i += 1;
                }
            }
        }
        Err("unterminated string".into())
    }

    skip_ws(&b, &mut i);
    if b.get(i) != Some(&'{') {
        return Err("expected '{'".into());
    }
    i += 1;
    loop {
        skip_ws(&b, &mut i);
        if b.get(i) == Some(&'}') {
            i += 1;
            break;
        }
        let key = parse_string(&b, &mut i)?;
        skip_ws(&b, &mut i);
        if b.get(i) != Some(&':') {
            return Err(format!("expected ':' after key {key:?}"));
        }
        i += 1;
        skip_ws(&b, &mut i);
        let val = match b.get(i) {
            Some('"') => JsonVal::Str(parse_string(&b, &mut i)?),
            Some('t') => {
                if b.get(i..i + 4).map(|s| s.iter().collect::<String>()) == Some("true".into()) {
                    i += 4;
                    JsonVal::Bool(true)
                } else {
                    return Err("bad literal".into());
                }
            }
            Some('f') => {
                if b.get(i..i + 5).map(|s| s.iter().collect::<String>()) == Some("false".into()) {
                    i += 5;
                    JsonVal::Bool(false)
                } else {
                    return Err("bad literal".into());
                }
            }
            Some('n') => {
                if b.get(i..i + 4).map(|s| s.iter().collect::<String>()) == Some("null".into()) {
                    i += 4;
                    JsonVal::Null
                } else {
                    return Err("bad literal".into());
                }
            }
            Some(c) if c.is_ascii_digit() => {
                let start = i;
                while i < b.len() && b[i].is_ascii_digit() {
                    i += 1;
                }
                let s: String = b[start..i].iter().collect();
                JsonVal::Num(s.parse().map_err(|e| format!("bad number: {e}"))?)
            }
            Some('{') | Some('[') => return Err("nested values not allowed in trace lines".into()),
            _ => return Err(format!("unexpected value for key {key:?}")),
        };
        map.insert(key, val);
        skip_ws(&b, &mut i);
        match b.get(i) {
            Some(',') => i += 1,
            Some('}') => {
                i += 1;
                break;
            }
            _ => return Err("expected ',' or '}'".into()),
        }
    }
    skip_ws(&b, &mut i);
    if i != b.len() {
        return Err("trailing garbage after object".into());
    }
    Ok(map)
}

fn get_num(map: &BTreeMap<String, JsonVal>, k: &str) -> Result<u64, String> {
    map.get(k)
        .and_then(JsonVal::as_u64)
        .ok_or_else(|| format!("missing/invalid numeric field {k:?}"))
}

fn get_str<'a>(map: &'a BTreeMap<String, JsonVal>, k: &str) -> Result<&'a str, String> {
    map.get(k)
        .and_then(JsonVal::as_str)
        .ok_or_else(|| format!("missing/invalid string field {k:?}"))
}

fn get_bool(map: &BTreeMap<String, JsonVal>, k: &str) -> Result<bool, String> {
    map.get(k)
        .and_then(JsonVal::as_bool)
        .ok_or_else(|| format!("missing/invalid boolean field {k:?}"))
}

fn opt_string(map: &BTreeMap<String, JsonVal>, k: &str) -> Option<String> {
    map.get(k).and_then(JsonVal::as_str).map(str::to_owned)
}

/// Parse a single NDJSON block back into a [`TraceSnapshot`]. Inverse of
/// [`to_ndjson`] for blocks produced by it (the round-trip is exact).
pub fn from_ndjson(text: &str) -> Result<TraceSnapshot, String> {
    from_ndjson_at(text, 1)
}

/// [`from_ndjson`] for a block that starts at absolute line `first_line` of
/// a larger file: parse errors report file line numbers, so a failure inside
/// the third concatenated block points at the real line, not an offset into
/// the block.
pub fn from_ndjson_at(text: &str, first_line: usize) -> Result<TraceSnapshot, String> {
    let mut snap = TraceSnapshot::default();
    let mut saw_summary = false;
    for (lineno, line) in text.lines().enumerate() {
        let lineno = lineno + first_line;
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if saw_summary {
            return Err(format!("line {lineno}: content after summary"));
        }
        let map = parse_line(line).map_err(|e| format!("line {lineno}: {e}"))?;
        let tag = get_str(&map, "t").map_err(|e| format!("line {lineno}: {e}"))?;
        let res: Result<(), String> = (|| {
            match tag {
                "span" => {
                    let phase_name = get_str(&map, "phase")?;
                    let phase = Phase::from_name(phase_name)
                        .ok_or_else(|| format!("unknown phase {phase_name:?}"))?;
                    snap.spans.push(SpanRecord {
                        phase,
                        label: opt_string(&map, "label"),
                        member: opt_string(&map, "member"),
                        depth: get_num(&map, "depth")? as u32,
                        start_us: get_num(&map, "start_us")?,
                        dur_us: get_num(&map, "dur_us")?,
                        closed: get_bool(&map, "closed")?,
                    });
                }
                "decision" => {
                    let class_name = get_str(&map, "class")?;
                    let class = VarClass::from_name(class_name)
                        .ok_or_else(|| format!("unknown class {class_name:?}"))?;
                    snap.events.push(EventRecord {
                        seq: get_num(&map, "seq")?,
                        member: opt_string(&map, "member"),
                        kind: EventKind::Decision {
                            var: get_num(&map, "var")? as u32,
                            class,
                            level: get_num(&map, "level")? as u32,
                            guided: get_bool(&map, "guided")?,
                        },
                    });
                }
                "conflict" => {
                    snap.events.push(EventRecord {
                        seq: get_num(&map, "seq")?,
                        member: opt_string(&map, "member"),
                        kind: EventKind::Conflict {
                            level: get_num(&map, "level")? as u32,
                            lbd: get_num(&map, "lbd")? as u32,
                        },
                    });
                }
                "lemma" => {
                    snap.events.push(EventRecord {
                        seq: get_num(&map, "seq")?,
                        member: opt_string(&map, "member"),
                        kind: EventKind::TheoryLemma {
                            cycle_len: get_num(&map, "cycle_len")? as u32,
                        },
                    });
                }
                "restart" => {
                    snap.events.push(EventRecord {
                        seq: get_num(&map, "seq")?,
                        member: opt_string(&map, "member"),
                        kind: EventKind::Restart {
                            // The interval arrived after PR 3; absent in old
                            // traces, so it parses leniently.
                            conflicts: get_num(&map, "conflicts").unwrap_or(0),
                        },
                    });
                }
                "reduction" => {
                    snap.events.push(EventRecord {
                        seq: get_num(&map, "seq")?,
                        member: opt_string(&map, "member"),
                        kind: EventKind::Reduction {
                            removed: get_num(&map, "removed")?,
                        },
                    });
                }
                "hist" => {
                    let name = get_str(&map, "name")?;
                    let h = Histogram::decode(
                        get_num(&map, "count")?,
                        get_num(&map, "sum")?,
                        get_num(&map, "min")?,
                        get_num(&map, "max")?,
                        get_str(&map, "buckets")?,
                    )
                    .map_err(|e| format!("hist {name:?}: {e}"))?;
                    *snap
                        .hists
                        .by_name_mut(name)
                        .ok_or_else(|| format!("unknown hist name {name:?}"))? = h;
                }
                "member" => {
                    snap.members.push(MemberRecord {
                        name: get_str(&map, "name")?.to_owned(),
                        strategy: get_str(&map, "strategy")?.to_owned(),
                        verdict: get_str(&map, "verdict")?.to_owned(),
                        winner: get_bool(&map, "winner")?,
                        cancelled: get_bool(&map, "cancelled")?,
                        decisions: get_num(&map, "decisions")?,
                        conflicts: get_num(&map, "conflicts")?,
                        time_us: get_num(&map, "time_us")?,
                        error: opt_string(&map, "error"),
                    });
                }
                "summary" => {
                    snap.decision_sample = get_num(&map, "sample")? as u32;
                    let mut c = Counters::default();
                    for cls in VarClass::ALL {
                        c.decisions[cls.index()] = get_num(&map, &format!("dec_{}", cls.name()))?;
                        c.guided[cls.index()] = get_num(&map, &format!("gd_{}", cls.name()))?;
                    }
                    for counter in Counter::ALL {
                        c[counter] = match get_num(&map, counter.name()) {
                            Ok(n) => n,
                            Err(_) if counter.presence() == Presence::Lenient => 0,
                            Err(e) => return Err(e),
                        };
                    }
                    snap.counters = c;
                    saw_summary = true;
                }
                other => return Err(format!("unknown line tag {other:?}")),
            }
            Ok(())
        })();
        res.map_err(|e| format!("line {lineno}: {e}"))?;
    }
    if !saw_summary {
        return Err("trace block has no summary line".into());
    }
    Ok(snap)
}

/// Aggregate report produced by [`validate`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceReport {
    pub blocks: usize,
    pub spans: usize,
    pub events: usize,
    pub members: usize,
    /// Distinct phase names seen across all blocks, in first-seen order.
    pub phases_seen: Vec<String>,
    /// Block summaries' counters, summed.
    pub counters: Counters,
}

/// Splits a trace file into its `summary`-terminated blocks and parses
/// each, handing `f` the block's first line number and snapshot in file
/// order. Blank lines stay in their block, so parse errors carry absolute
/// file line numbers. Returns the number of blocks; a file without one,
/// or with lines after its last summary, is an error.
pub fn for_each_block(
    text: &str,
    mut f: impl FnMut(usize, TraceSnapshot) -> Result<(), String>,
) -> Result<usize, String> {
    let mut blocks = 0;
    let mut block = String::new();
    let mut block_start = 1usize;
    for (lineno, line) in text.lines().enumerate() {
        block.push_str(line);
        block.push('\n');
        if line.trim().is_empty() {
            continue;
        }
        let map = parse_line(line.trim()).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        if map.get("t").and_then(JsonVal::as_str) == Some("summary") {
            f(block_start, from_ndjson_at(&block, block_start)?)?;
            blocks += 1;
            block.clear();
            block_start = lineno + 2;
        }
    }
    if !block.trim().is_empty() {
        return Err(format!(
            "trailing lines from line {block_start} not terminated by a summary"
        ));
    }
    if blocks == 0 {
        return Err("no trace blocks found".into());
    }
    Ok(blocks)
}

/// Validate a trace file: split into `summary`-terminated blocks, parse every
/// line, and check schema + internal consistency (monotone event sequence
/// numbers per block, recorded events consistent with summary counters).
pub fn validate(text: &str) -> Result<TraceReport, String> {
    let mut report = TraceReport::default();
    report.blocks = for_each_block(text, |start, snap| {
        validate_block(&snap, start, &mut report)
    })?;
    Ok(report)
}

fn validate_block(
    snap: &TraceSnapshot,
    start_line: usize,
    report: &mut TraceReport,
) -> Result<(), String> {
    let mut last_seq: Option<u64> = None;
    let mut recorded_decisions = 0u64;
    let mut recorded_conflicts = 0u64;
    for e in &snap.events {
        if let Some(prev) = last_seq {
            if e.seq <= prev {
                return Err(format!(
                    "block at line {start_line}: event seq {} not increasing (prev {prev})",
                    e.seq
                ));
            }
        }
        last_seq = Some(e.seq);
        match e.kind {
            EventKind::Decision { .. } => recorded_decisions += 1,
            EventKind::Conflict { .. } => recorded_conflicts += 1,
            _ => {}
        }
    }
    let c = &snap.counters;
    let total = c.total_decisions();
    let dropped = c[Counter::DroppedEvents];
    if recorded_decisions > total {
        return Err(format!(
            "block at line {start_line}: {recorded_decisions} decision events exceed summary total {total}"
        ));
    }
    if recorded_decisions > 0 && recorded_decisions + dropped != total {
        return Err(format!(
            "block at line {start_line}: recorded ({recorded_decisions}) + dropped ({dropped}) != total decisions ({total})"
        ));
    }
    if recorded_conflicts > c[Counter::Conflicts] {
        return Err(format!(
            "block at line {start_line}: conflict events exceed summary counter"
        ));
    }
    let (o1, searched, checks) = (
        c[Counter::CycleAcceptedO1],
        c[Counter::CycleSearched],
        c[Counter::CycleChecks],
    );
    if o1 + searched != checks {
        return Err(format!(
            "block at line {start_line}: cycle-check split broken: o1 ({o1}) + searched ({searched}) != total ({checks})"
        ));
    }
    // Distribution/counter reconciliation: each histogram is fed on exactly
    // the event path its counter tracks, so a present histogram must agree
    // with the summary. Absent histograms (count 0) are fine — pre-histogram
    // traces carry none.
    for hist in Hist::ALL {
        let Some(counter) = hist.counter() else {
            continue;
        };
        let n = snap.hists[hist].count();
        if n != 0 && n != c[counter] {
            return Err(format!(
                "block at line {start_line}: hist {:?} has {n} observations but summary key {:?} is {}",
                hist.name(),
                counter.name(),
                c[counter]
            ));
        }
    }
    for s in &snap.spans {
        if !s.closed {
            return Err(format!(
                "block at line {start_line}: unclosed {} span in exported trace",
                s.phase.name()
            ));
        }
        let name = s.phase.name().to_owned();
        if !report.phases_seen.contains(&name) {
            report.phases_seen.push(name);
        }
    }
    report.spans += snap.spans.len();
    report.events += snap.events.len();
    report.members += snap.members.len();
    report.counters.accumulate(c);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;
    use crate::recorder::{Recorder, TraceConfig};
    use crate::EventSink;

    fn sample_snapshot() -> TraceSnapshot {
        let rec = Recorder::new(TraceConfig {
            events: true,
            decision_sample: 1,
        });
        {
            let _encode = rec.span_labeled(Phase::Encode, Some("sc"));
            let _blast = rec.span(Phase::Blast);
        }
        let solver = rec.member_labeled("zpre");
        let classes = [
            VarClass::ExternalRf,
            VarClass::Ws,
            VarClass::InternalRf,
            VarClass::Other,
        ];
        for (var, class) in (0u32..).zip(classes) {
            solver.emit(Event::Decision {
                var,
                class,
                level: var,
                guided: true,
            });
        }
        solver.emit(Event::Conflict {
            level: 3,
            lbd: 2,
            window: [1; VarClass::COUNT],
        });
        solver.emit(Event::TheoryLemma { cycle_len: 5 });
        solver.emit(Event::Restart { conflicts: 1 });
        solver.emit(Event::Reduction { removed: 7 });
        solver.emit(Event::CycleCheck { visited: 6 });
        // The solve call's counters, as the session copies them: one O(1)
        // and one searched cycle check.
        for class in classes {
            solver.add_decisions(class, 1, 1);
        }
        for (counter, n) in [
            (Counter::Conflicts, 1),
            (Counter::Restarts, 1),
            (Counter::Reductions, 1),
            (Counter::CycleChecks, 2),
            (Counter::CycleAcceptedO1, 1),
            (Counter::CycleSearched, 1),
            (Counter::CycleVisited, 6),
            (Counter::CyclePromoted, 2),
        ] {
            solver.add(counter, n);
        }
        rec.record_member(crate::recorder::MemberRecord {
            name: "zpre".into(),
            strategy: "zpre".into(),
            verdict: "safe".into(),
            winner: true,
            cancelled: false,
            decisions: 4,
            conflicts: 1,
            time_us: 1234,
            error: None,
        });
        rec.snapshot()
    }

    #[test]
    fn ndjson_round_trip_exact() {
        let snap = sample_snapshot();
        let text = to_ndjson(&snap);
        let back = from_ndjson(&text).expect("parse back");
        assert_eq!(back, snap);
    }

    #[test]
    fn validate_accepts_generated_trace() {
        let snap = sample_snapshot();
        let text = to_ndjson(&snap);
        let report = validate(&text).expect("valid");
        assert_eq!(report.blocks, 1);
        assert_eq!(report.spans, 2);
        assert_eq!(report.members, 1);
        assert_eq!(report.counters[Counter::Conflicts], 1);
        assert_eq!(report.counters.total_decisions(), 4);
        assert!(report.phases_seen.contains(&"encode".to_string()));
        assert!(report.phases_seen.contains(&"blast".to_string()));
    }

    #[test]
    fn validate_accepts_concatenated_blocks() {
        let snap = sample_snapshot();
        let mut text = to_ndjson(&snap);
        text.push_str(&to_ndjson(&snap));
        let report = validate(&text).expect("two blocks valid");
        assert_eq!(report.blocks, 2);
        assert_eq!(report.counters.total_decisions(), 8);
    }

    #[test]
    fn validate_rejects_bad_input() {
        assert!(validate("").is_err());
        assert!(validate("{\"t\":\"decision\"}\n").is_err());
        assert!(validate("not json\n").is_err());
        // Block without a terminating summary.
        let snap = sample_snapshot();
        let text = to_ndjson(&snap);
        let truncated: String = text
            .lines()
            .filter(|l| !l.contains("\"t\":\"summary\""))
            .map(|l| format!("{l}\n"))
            .collect();
        assert!(validate(&truncated).is_err());
        // Tampered summary: fewer decisions than recorded events.
        let tampered = text.replace("\"dec_rf_ext\":1", "\"dec_rf_ext\":0");
        assert!(validate(&tampered).is_err());
    }

    #[test]
    fn validate_rejects_broken_cycle_check_split() {
        let snap = sample_snapshot();
        let text = to_ndjson(&snap);
        assert_eq!(snap.counters[Counter::CycleChecks], 2);
        // o1 + searched must equal the total check count.
        let tampered = text.replace("\"cc_o1\":1", "\"cc_o1\":2");
        assert!(validate(&tampered)
            .unwrap_err()
            .contains("cycle-check split"));
    }

    #[test]
    fn hist_lines_round_trip_and_reconcile() {
        let snap = sample_snapshot();
        let text = to_ndjson(&snap);
        // The sample conflicts/lemmas/restarts all feed their histograms.
        assert!(text.contains("\"t\":\"hist\",\"name\":\"conflict_lbd\""));
        assert!(text.contains("\"name\":\"lemma_cycle_len\""));
        assert!(text.contains("\"name\":\"restart_interval\""));
        let back = from_ndjson(&text).expect("parse back");
        assert_eq!(back.hists, snap.hists);
        // Tampering a histogram count breaks reconciliation with the
        // summary counter and validate names both sides.
        let line = text
            .lines()
            .find(|l| l.contains("\"name\":\"conflict_lbd\""))
            .unwrap();
        let tampered_line = line
            .replace("\"count\":1", "\"count\":2")
            .replace("\"buckets\":\"2:1\"", "\"buckets\":\"2:2\"");
        let tampered = text.replace(line, &tampered_line);
        let err = validate(&tampered).unwrap_err();
        assert!(err.contains("conflict_lbd"), "got: {err}");
        assert!(err.contains("conflicts"), "got: {err}");
    }

    #[test]
    fn errors_carry_absolute_line_numbers_and_key() {
        let snap = sample_snapshot();
        let mut text = to_ndjson(&snap);
        let first_block_lines = text.lines().count();
        text.push_str(&to_ndjson(&snap));
        // Break a line in the SECOND block: drop a required key.
        let broken = text
            .lines()
            .enumerate()
            .map(|(i, l)| {
                if i >= first_block_lines && l.contains("\"t\":\"conflict\"") {
                    l.replace("\"lbd\":2", "\"xlbd\":2")
                } else {
                    l.to_owned()
                }
            })
            .collect::<Vec<_>>()
            .join("\n");
        let err = validate(&broken).unwrap_err();
        // The error names the offending key and the absolute file line.
        assert!(err.contains("\"lbd\""), "got: {err}");
        let bad_line = 1 + text
            .lines()
            .enumerate()
            .position(|(i, l)| i >= first_block_lines && l.contains("\"t\":\"conflict\""))
            .unwrap();
        assert!(err.contains(&format!("line {bad_line}")), "got: {err}");
    }

    /// Every counter of the table survives the summary line: values are
    /// distinct, so a key written or parsed into the wrong slot shows.
    #[test]
    fn counters_round_trip_is_exhaustive() {
        let mut counters = Counters::default();
        counters.decisions = [11, 12, 13, 14];
        counters.guided = [5, 6, 7, 8];
        for counter in Counter::ALL {
            counters[counter] = 100 + counter.index() as u64;
        }
        let snap = TraceSnapshot {
            decision_sample: 3,
            counters: counters.clone(),
            ..TraceSnapshot::default()
        };
        let back = from_ndjson(&to_ndjson(&snap)).expect("parse back");
        assert_eq!(back.counters, counters);
        assert_eq!(back.decision_sample, 3);
    }

    /// A summary line in the current format, written out literally so the
    /// parser is pinned independently of the writer; every value is
    /// nonzero and distinct.
    const PINNED_SUMMARY: &str = "{\"t\":\"summary\",\"sample\":2,\"dec_rf_ext\":3,\
        \"gd_rf_ext\":4,\"dec_rf_int\":5,\"gd_rf_int\":6,\"dec_ws\":7,\"gd_ws\":8,\
        \"dec_other\":9,\"gd_other\":10,\"conflicts\":11,\"lemmas\":12,\
        \"lemma_cycle_edges\":13,\"restarts\":14,\"reductions\":15,\
        \"clauses_removed\":16,\"cc_total\":40,\"cc_o1\":18,\"cc_searched\":22,\
        \"cc_visited\":20,\"cc_promoted\":21,\"dropped\":23,\"frames\":24,\
        \"fr_learnts\":25,\"fr_conflicts\":26,\"batch_tasks\":27,\"batch_retries\":28,\
        \"batch_degraded\":29,\"batch_checkpoints\":30,\"sh_exported\":31,\
        \"sh_exported_theory\":32,\"sh_exported_rf\":33,\"sh_imported\":34,\
        \"sh_dropped\":35,\"sh_import_hits\":36,\"pr_rf_pruned\":37,\"pr_rf_kept\":38,\
        \"pr_ws_pruned\":39,\"pr_ws_serialized\":41,\"pr_reads_resolved\":42,\
        \"pr_local_vars\":43,\"pr_sym_pairs\":44}";

    /// Keys every summary line has carried since the first trace format.
    const REQUIRED_KEYS: [&str; 21] = [
        "sample",
        "dec_rf_ext",
        "gd_rf_ext",
        "dec_rf_int",
        "gd_rf_int",
        "dec_ws",
        "gd_ws",
        "dec_other",
        "gd_other",
        "conflicts",
        "lemmas",
        "lemma_cycle_edges",
        "restarts",
        "reductions",
        "clauses_removed",
        "cc_total",
        "cc_o1",
        "cc_searched",
        "cc_visited",
        "cc_promoted",
        "dropped",
    ];

    /// Keys added with sweep frames and later: older traces omit them.
    const LENIENT_KEYS: [&str; 20] = [
        "frames",
        "fr_learnts",
        "fr_conflicts",
        "batch_tasks",
        "batch_retries",
        "batch_degraded",
        "batch_checkpoints",
        "sh_exported",
        "sh_exported_theory",
        "sh_exported_rf",
        "sh_imported",
        "sh_dropped",
        "sh_import_hits",
        "pr_rf_pruned",
        "pr_rf_kept",
        "pr_ws_pruned",
        "pr_ws_serialized",
        "pr_reads_resolved",
        "pr_local_vars",
        "pr_sym_pairs",
    ];

    /// The summary line rewritten without `key`.
    fn without(key: &str) -> String {
        let field = format!(",\"{key}\":");
        let at = PINNED_SUMMARY.find(&field).expect("key in the pinned line");
        let rest = &PINNED_SUMMARY[at + 1..];
        let end = rest.find([',', '}']).expect("field end");
        format!("{}{}", &PINNED_SUMMARY[..at], &rest[end..])
    }

    /// The value of `key` in the summary line `to_ndjson` writes for `snap`.
    fn summary_value(snap: &TraceSnapshot, key: &str) -> u64 {
        let text = to_ndjson(snap);
        let map = parse_line(text.lines().last().expect("summary line")).expect("flat");
        map.get(key).and_then(JsonVal::as_u64).expect("numeric key")
    }

    #[test]
    fn summary_parser_leniency_is_pinned() {
        let full = from_ndjson(PINNED_SUMMARY).expect("pinned line parses");
        let pinned = parse_line(PINNED_SUMMARY).expect("flat");
        for key in REQUIRED_KEYS.iter().chain(&LENIENT_KEYS) {
            let want = pinned.get(*key).and_then(JsonVal::as_u64);
            assert_eq!(Some(summary_value(&full, key)), want, "{key}");
        }
        for key in REQUIRED_KEYS {
            let err = from_ndjson(&without(key)).expect_err(key);
            assert!(err.contains(&format!("\"{key}\"")), "{key}: {err}");
        }
        for key in LENIENT_KEYS {
            let snap = from_ndjson(&without(key)).unwrap_or_else(|e| panic!("{key}: {e}"));
            assert_eq!(summary_value(&snap, key), 0, "{key}");
            for other in LENIENT_KEYS.iter().filter(|k| **k != key) {
                assert_eq!(summary_value(&snap, other), summary_value(&full, other));
            }
        }
    }

    #[test]
    fn parse_line_handles_escapes_and_rejects_nesting() {
        let map = parse_line(r#"{"t":"span","phase":"solve","label":"a\"b\\c\n"}"#).unwrap();
        assert_eq!(map.get("label").unwrap().as_str().unwrap(), "a\"b\\c\n");
        assert!(parse_line(r#"{"t":"x","v":{"nested":1}}"#).is_err());
        assert!(parse_line(r#"{"t":"x"} trailing"#).is_err());
        assert!(parse_line(r#"{"t":"x","v":-1}"#).is_err());
    }
}
