//! NDJSON trace export, a dependency-free line parser for it, and a schema
//! validator used by `zpre-cli trace-check` and CI.
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
//! A file may hold several concatenated blocks (one per memory model when the
//! CLI iterates `--mm all`); each block ends with its own `summary` line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::event::VarClass;
use crate::metrics::Histogram;
use crate::recorder::{
    Counters, EventKind, EventRecord, MemberRecord, Phase, SpanRecord, TraceSnapshot,
};

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
    for cls in VarClass::all() {
        o.num(&format!("dec_{}", cls.name()), c.decisions[cls.index()]);
        o.num(&format!("gd_{}", cls.name()), c.guided[cls.index()]);
    }
    o.num("conflicts", c.conflicts)
        .num("lemmas", c.theory_lemmas)
        .num("lemma_cycle_edges", c.lemma_cycle_edges)
        .num("restarts", c.restarts)
        .num("reductions", c.reductions)
        .num("clauses_removed", c.clauses_removed)
        .num("cc_total", c.cycle_checks)
        .num("cc_o1", c.cycle_accepted_o1)
        .num("cc_searched", c.cycle_searched)
        .num("cc_visited", c.cycle_visited)
        .num("cc_promoted", c.cycle_promoted)
        .num("dropped", c.dropped_events)
        .num("frames", c.frames)
        .num("fr_learnts", c.frame_reused_learnts)
        .num("fr_conflicts", c.frame_reused_conflicts)
        .num("batch_tasks", c.batch_tasks)
        .num("batch_retries", c.batch_retries)
        .num("batch_degraded", c.batch_degraded)
        .num("batch_checkpoints", c.batch_checkpoints)
        .num("sh_exported", c.sh_exported)
        .num("sh_exported_theory", c.sh_exported_theory)
        .num("sh_exported_rf", c.sh_exported_rf)
        .num("sh_imported", c.sh_imported)
        .num("sh_dropped", c.sh_dropped)
        .num("sh_import_hits", c.sh_import_hits)
        .num("pr_rf_pruned", c.pr_rf_pruned)
        .num("pr_rf_kept", c.pr_rf_kept)
        .num("pr_ws_pruned", c.pr_ws_pruned)
        .num("pr_ws_serialized", c.pr_ws_serialized)
        .num("pr_reads_resolved", c.pr_reads_resolved)
        .num("pr_local_vars", c.pr_local_vars);
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
                    for cls in VarClass::all() {
                        c.decisions[cls.index()] = get_num(&map, &format!("dec_{}", cls.name()))?;
                        c.guided[cls.index()] = get_num(&map, &format!("gd_{}", cls.name()))?;
                    }
                    c.conflicts = get_num(&map, "conflicts")?;
                    c.theory_lemmas = get_num(&map, "lemmas")?;
                    c.lemma_cycle_edges = get_num(&map, "lemma_cycle_edges")?;
                    c.restarts = get_num(&map, "restarts")?;
                    c.reductions = get_num(&map, "reductions")?;
                    c.clauses_removed = get_num(&map, "clauses_removed")?;
                    c.cycle_checks = get_num(&map, "cc_total")?;
                    c.cycle_accepted_o1 = get_num(&map, "cc_o1")?;
                    c.cycle_searched = get_num(&map, "cc_searched")?;
                    c.cycle_visited = get_num(&map, "cc_visited")?;
                    c.cycle_promoted = get_num(&map, "cc_promoted")?;
                    c.dropped_events = get_num(&map, "dropped")?;
                    // Sweep-frame counters arrived later; absent in old
                    // traces, so they parse leniently.
                    c.frames = get_num(&map, "frames").unwrap_or(0);
                    c.frame_reused_learnts = get_num(&map, "fr_learnts").unwrap_or(0);
                    c.frame_reused_conflicts = get_num(&map, "fr_conflicts").unwrap_or(0);
                    // Batch-harness counters arrived later still; same
                    // leniency for traces that predate them.
                    c.batch_tasks = get_num(&map, "batch_tasks").unwrap_or(0);
                    c.batch_retries = get_num(&map, "batch_retries").unwrap_or(0);
                    c.batch_degraded = get_num(&map, "batch_degraded").unwrap_or(0);
                    c.batch_checkpoints = get_num(&map, "batch_checkpoints").unwrap_or(0);
                    // Clause-sharing counters are newer again; lenient too.
                    c.sh_exported = get_num(&map, "sh_exported").unwrap_or(0);
                    c.sh_exported_theory = get_num(&map, "sh_exported_theory").unwrap_or(0);
                    c.sh_exported_rf = get_num(&map, "sh_exported_rf").unwrap_or(0);
                    c.sh_imported = get_num(&map, "sh_imported").unwrap_or(0);
                    c.sh_dropped = get_num(&map, "sh_dropped").unwrap_or(0);
                    c.sh_import_hits = get_num(&map, "sh_import_hits").unwrap_or(0);
                    // Prune counters are newer still; lenient as well.
                    c.pr_rf_pruned = get_num(&map, "pr_rf_pruned").unwrap_or(0);
                    c.pr_rf_kept = get_num(&map, "pr_rf_kept").unwrap_or(0);
                    c.pr_ws_pruned = get_num(&map, "pr_ws_pruned").unwrap_or(0);
                    c.pr_ws_serialized = get_num(&map, "pr_ws_serialized").unwrap_or(0);
                    c.pr_reads_resolved = get_num(&map, "pr_reads_resolved").unwrap_or(0);
                    c.pr_local_vars = get_num(&map, "pr_local_vars").unwrap_or(0);
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
    /// Total decisions per class summed over block summaries.
    pub decisions_by_class: [u64; VarClass::COUNT],
    pub conflicts: u64,
    pub lemmas: u64,
}

/// Validate a trace file: split into `summary`-terminated blocks, parse every
/// line, and check schema + internal consistency (monotone event sequence
/// numbers per block, recorded events consistent with summary counters).
pub fn validate(text: &str) -> Result<TraceReport, String> {
    let mut report = TraceReport::default();
    let mut block = String::new();
    let mut block_start = 1usize;
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            // Keep blank lines in the block so its line numbering stays
            // aligned with the file's (errors report absolute lines).
            block.push('\n');
            continue;
        }
        block.push_str(line);
        block.push('\n');
        let map = parse_line(line.trim()).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        if map.get("t").and_then(JsonVal::as_str) == Some("summary") {
            validate_block(&block, block_start, &mut report)?;
            report.blocks += 1;
            block.clear();
            block_start = lineno + 2;
        }
    }
    if !block.trim().is_empty() {
        return Err(format!(
            "trailing lines from line {block_start} not terminated by a summary"
        ));
    }
    if report.blocks == 0 {
        return Err("no trace blocks found".into());
    }
    Ok(report)
}

fn validate_block(block: &str, start_line: usize, report: &mut TraceReport) -> Result<(), String> {
    let snap = from_ndjson_at(block, start_line)?;
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
    if recorded_decisions > total {
        return Err(format!(
            "block at line {start_line}: {recorded_decisions} decision events exceed summary total {total}"
        ));
    }
    if recorded_decisions > 0 && recorded_decisions + c.dropped_events != total {
        return Err(format!(
            "block at line {start_line}: recorded ({recorded_decisions}) + dropped ({}) != total decisions ({total})",
            c.dropped_events
        ));
    }
    if recorded_conflicts > c.conflicts {
        return Err(format!(
            "block at line {start_line}: conflict events exceed summary counter"
        ));
    }
    if c.cycle_accepted_o1 + c.cycle_searched != c.cycle_checks {
        return Err(format!(
            "block at line {start_line}: cycle-check split broken: o1 ({}) + searched ({}) != total ({})",
            c.cycle_accepted_o1, c.cycle_searched, c.cycle_checks
        ));
    }
    // Distribution/counter reconciliation: each histogram is fed on exactly
    // the event path its counter tracks, so a present histogram must agree
    // with the summary. Absent histograms (count 0) are fine — pre-histogram
    // traces carry none.
    for (name, h, counter, counter_name) in [
        (
            "conflict_lbd",
            &snap.hists.conflict_lbd,
            c.conflicts,
            "conflicts",
        ),
        (
            "lemma_cycle_len",
            &snap.hists.lemma_cycle_len,
            c.theory_lemmas,
            "lemmas",
        ),
        (
            "restart_interval",
            &snap.hists.restart_interval,
            c.restarts,
            "restarts",
        ),
        (
            "cycle_visited",
            &snap.hists.cycle_visited,
            c.cycle_searched,
            "cc_searched",
        ),
    ] {
        if h.count() != 0 && h.count() != counter {
            return Err(format!(
                "block at line {start_line}: hist {name:?} has {} observations but summary key {counter_name:?} is {counter}",
                h.count()
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
    for cls in VarClass::all() {
        report.decisions_by_class[cls.index()] += c.decisions[cls.index()];
    }
    report.conflicts += c.conflicts;
    report.lemmas += c.theory_lemmas;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;
    use crate::recorder::{Phase, Recorder, TraceConfig};
    use crate::EventSink;

    fn sample_snapshot() -> TraceSnapshot {
        let rec = Recorder::new(TraceConfig {
            events: true,
            decision_sample: 1,
        });
        rec.set_var_classes(vec![
            VarClass::ExternalRf,
            VarClass::Ws,
            VarClass::InternalRf,
        ]);
        {
            let _encode = rec.span_labeled(Phase::Encode, Some("sc"));
            let _blast = rec.span(Phase::Blast);
        }
        let solver = rec.member_labeled("zpre");
        for var in 0..4u32 {
            solver.emit(Event::Decision {
                var,
                level: var,
                guided: true,
            });
        }
        solver.emit(Event::Conflict { level: 3, lbd: 2 });
        solver.emit(Event::TheoryLemma { cycle_len: 5 });
        solver.emit(Event::Restart { conflicts: 1 });
        solver.emit(Event::Reduction { removed: 7 });
        solver.emit(Event::CycleCheck {
            visited: 0,
            promoted: 0,
            accepted_o1: true,
        });
        solver.emit(Event::CycleCheck {
            visited: 6,
            promoted: 2,
            accepted_o1: false,
        });
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
        assert_eq!(report.conflicts, 1);
        assert_eq!(report.decisions_by_class.iter().sum::<u64>(), 4);
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
        assert_eq!(report.decisions_by_class.iter().sum::<u64>(), 8);
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
        assert_eq!(snap.counters.cycle_checks, 2);
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

    /// Compile-guard: this exhaustive struct literal fails to build when a
    /// field is added to `Counters`, forcing the author to extend it here —
    /// and the round-trip assertion then fails until `summary_line` *and*
    /// the `from_ndjson` summary parser both carry the new field.
    #[test]
    fn counters_round_trip_is_exhaustive() {
        let counters = Counters {
            decisions: [11, 12, 13, 14],
            guided: [5, 6, 7, 8],
            conflicts: 21,
            theory_lemmas: 22,
            lemma_cycle_edges: 23,
            restarts: 24,
            reductions: 25,
            clauses_removed: 26,
            cycle_checks: 60,
            cycle_accepted_o1: 33,
            cycle_searched: 27,
            cycle_visited: 28,
            cycle_promoted: 29,
            dropped_events: 30,
            frames: 31,
            frame_reused_learnts: 32,
            frame_reused_conflicts: 33,
            batch_tasks: 34,
            batch_retries: 35,
            batch_degraded: 36,
            batch_checkpoints: 37,
            sh_exported: 38,
            sh_exported_theory: 39,
            sh_exported_rf: 40,
            sh_imported: 41,
            sh_dropped: 42,
            sh_import_hits: 43,
            pr_rf_pruned: 44,
            pr_rf_kept: 45,
            pr_ws_pruned: 46,
            pr_ws_serialized: 47,
            pr_reads_resolved: 48,
            pr_local_vars: 49,
        };
        let snap = TraceSnapshot {
            decision_sample: 3,
            counters: counters.clone(),
            ..TraceSnapshot::default()
        };
        let back = from_ndjson(&to_ndjson(&snap)).expect("parse back");
        assert_eq!(back.counters, counters);
        assert_eq!(back.decision_sample, 3);
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
