//! Trace loading and aggregation: parse NDJSON trace files (one or many
//! `summary`-terminated blocks) back into [`TraceSnapshot`]s and flatten
//! them into a named metric map — the common currency of `trace stats`,
//! `trace diff`, and the checked-in CI baselines.
//!
//! Two on-disk shapes load into the same [`TraceStats`]:
//!
//! * a raw trace (`span`/`decision`/…/`summary` lines, possibly several
//!   concatenated blocks), aggregated by summing counters, merging
//!   histograms, and summing phase durations;
//! * a metrics stream (`{"t":"metrics",…}` lines from `trace stats --json`
//!   or the batch heartbeat, both written by [`TraceStats::to_metrics_line`]),
//!   where the *last* line is the freshest snapshot and is taken verbatim.
//!
//! The metric names produced here are the stable vocabulary the diff gate
//! is configured over; see [`crate::diff::direction_of`].

use std::collections::BTreeMap;

use crate::metrics::Hists;
use crate::ndjson::{for_each_block, parse_line, quoted, JsonVal};
use crate::recorder::{Counters, TraceSnapshot};
use crate::vocab::{Counter, VarClass};

/// A flat named metric map distilled from one or more trace blocks.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceStats {
    /// Metric name → value. All values are `u64`, matching the integer-only
    /// trace grammar; shares are permille (`_pm`), times microseconds (`_us`).
    pub metrics: BTreeMap<String, u64>,
}

impl TraceStats {
    /// Value of `name` (0 when absent — an absent metric is an observed
    /// zero for diffing purposes).
    pub fn get(&self, name: &str) -> u64 {
        self.metrics.get(name).copied().unwrap_or(0)
    }

    /// Flatten snapshots into one metric map: counters summed, histograms
    /// merged, per-phase durations summed across blocks. Every closed span
    /// counts toward its phase, nested ones too (`blast` inside `encode`);
    /// only top-level spans count toward `wall_us`.
    pub fn from_snapshots<'a>(snaps: impl IntoIterator<Item = &'a TraceSnapshot>) -> TraceStats {
        let mut counters = Counters::default();
        let mut hists = Hists::default();
        let mut phase_us: BTreeMap<String, u64> = BTreeMap::new();
        let mut wall_us = 0u64;
        for snap in snaps {
            counters.accumulate(&snap.counters);
            hists.merge(&snap.hists);
            for s in snap.spans.iter().filter(|s| s.closed) {
                *phase_us
                    .entry(format!("phase_{}_us", s.phase.name()))
                    .or_insert(0) += s.dur_us;
                if s.depth == 0 {
                    wall_us += s.dur_us;
                }
            }
        }

        let mut m = BTreeMap::new();
        let c = &counters;
        for cls in VarClass::ALL {
            m.insert(format!("dec_{}", cls.name()), c.decisions[cls.index()]);
            m.insert(format!("gd_{}", cls.name()), c.guided[cls.index()]);
        }
        let total = c.total_decisions();
        m.insert("decisions".into(), total);
        m.insert("guided".into(), c.guided.iter().sum());
        // Interference share in permille: the paper's H1 metric, integer-safe.
        let h1_pm = (c.interference_decisions() * 1000)
            .checked_div(total)
            .unwrap_or(0);
        m.insert("h1_share_pm".into(), h1_pm);
        for counter in Counter::ALL {
            m.insert(counter.name().into(), c[counter]);
        }
        for (name, h) in hists.named() {
            if h.count() == 0 {
                continue;
            }
            m.insert(format!("{name}_p50"), h.percentile(0.50));
            m.insert(format!("{name}_p90"), h.percentile(0.90));
            m.insert(format!("{name}_p99"), h.percentile(0.99));
            m.insert(format!("{name}_max"), h.max());
            m.insert(format!("{name}_count"), h.count());
        }
        for (name, us) in phase_us {
            m.insert(name, us);
        }
        m.insert("wall_us".into(), wall_us);
        TraceStats { metrics: m }
    }

    /// One flat NDJSON `metrics` line carrying every metric — the format of
    /// `trace stats --json` output and of checked-in CI baselines.
    pub fn to_metrics_line(&self) -> String {
        self.object(Some("metrics"))
    }

    /// Every metric as one flat JSON object, untagged: the `telemetry`
    /// object of a bench row.
    pub fn to_json(&self) -> String {
        self.object(None)
    }

    fn object(&self, tag: Option<&str>) -> String {
        let tag = tag.map(|t| format!("\"t\":{}", quoted(t)));
        let metrics = self
            .metrics
            .iter()
            .map(|(k, v)| format!("{}:{v}", quoted(k)));
        let fields: Vec<String> = tag.into_iter().chain(metrics).collect();
        format!("{{{}}}", fields.join(","))
    }
}

/// Split a trace file into its `summary`-terminated blocks and parse each.
/// Errors carry absolute file line numbers.
pub fn load_blocks(text: &str) -> Result<Vec<TraceSnapshot>, String> {
    let mut blocks = Vec::new();
    for_each_block(text, |_, snap| {
        blocks.push(snap);
        Ok(())
    })?;
    Ok(blocks)
}

/// Load either on-disk shape into [`TraceStats`]: a `metrics`-line file
/// takes its last (freshest) line verbatim; anything else parses as a raw
/// trace and aggregates all blocks.
pub fn load_stats(text: &str) -> Result<TraceStats, String> {
    let first = text
        .lines()
        .find(|l| !l.trim().is_empty())
        .ok_or("empty trace file")?;
    let map = parse_line(first.trim()).map_err(|e| format!("line 1: {e}"))?;
    if map.get("t").and_then(JsonVal::as_str) == Some("metrics") {
        let mut last = None;
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let map = parse_line(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
            if map.get("t").and_then(JsonVal::as_str) != Some("metrics") {
                return Err(format!("line {}: mixed tags in a metrics file", lineno + 1));
            }
            last = Some(map);
        }
        let map = last.expect("checked non-empty above");
        let mut metrics = BTreeMap::new();
        for (k, v) in map {
            // `seq` orders a heartbeat stream; it is bookkeeping, not a metric.
            if k == "t" || k == "seq" {
                continue;
            }
            if let JsonVal::Num(n) = v {
                metrics.insert(k, n);
            }
        }
        Ok(TraceStats { metrics })
    } else {
        Ok(TraceStats::from_snapshots(&load_blocks(text)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;
    use crate::ndjson::to_ndjson;
    use crate::recorder::Recorder;
    use crate::vocab::Phase;
    use crate::EventSink;

    fn snapshot_with_activity() -> TraceSnapshot {
        let rec = Recorder::default();
        {
            let _solve = rec.span(Phase::Solve);
            let _nested = rec.span(Phase::Blast);
        }
        for _ in 0..3 {
            rec.emit(Event::Decision {
                var: 0,
                class: VarClass::ExternalRf,
                level: 1,
                guided: true,
            });
        }
        rec.emit(Event::Decision {
            var: 1,
            class: VarClass::Other,
            level: 1,
            guided: false,
        });
        rec.emit(Event::Conflict {
            level: 1,
            lbd: 4,
            window: [3, 0, 0, 1],
        });
        rec.add_decisions(VarClass::ExternalRf, 3, 3);
        rec.add_decisions(VarClass::Other, 1, 0);
        rec.add(Counter::Conflicts, 1);
        rec.snapshot()
    }

    #[test]
    fn stats_flatten_counters_shares_and_hists() {
        let snap = snapshot_with_activity();
        let stats = TraceStats::from_snapshots(&[snap]);
        assert_eq!(stats.get("decisions"), 4);
        assert_eq!(stats.get("dec_rf_ext"), 3);
        assert_eq!(stats.get("conflicts"), 1);
        // 3 of 4 decisions are interference: 750‰.
        assert_eq!(stats.get("h1_share_pm"), 750);
        assert_eq!(stats.get("conflict_lbd_p50"), 4);
        assert_eq!(stats.get("conflict_lbd_count"), 1);
        // Only the top-level solve span counts toward wall time; the blast
        // span nested in it still reports its own phase time.
        assert_eq!(stats.get("phase_solve_us"), stats.get("wall_us"));
        assert!(stats.metrics.contains_key("phase_blast_us"));
        assert!(stats.get("phase_blast_us") <= stats.get("phase_solve_us"));
    }

    #[test]
    fn aggregation_sums_across_blocks() {
        let snap = snapshot_with_activity();
        let one = TraceStats::from_snapshots(std::slice::from_ref(&snap));
        let two = TraceStats::from_snapshots(&[snap.clone(), snap]);
        assert_eq!(two.get("decisions"), 2 * one.get("decisions"));
        assert_eq!(two.get("conflicts"), 2 * one.get("conflicts"));
        assert_eq!(two.get("conflict_lbd_count"), 2);
        // Shares are scale-free: doubling identical blocks keeps them.
        assert_eq!(two.get("h1_share_pm"), one.get("h1_share_pm"));
    }

    #[test]
    fn load_stats_handles_both_shapes() {
        let snap = snapshot_with_activity();
        let mut trace = to_ndjson(&snap);
        trace.push_str(&to_ndjson(&snap));
        let from_trace = load_stats(&trace).expect("raw trace");
        assert_eq!(from_trace.get("decisions"), 8);

        // The metrics-line round trip is exact.
        let line = from_trace.to_metrics_line();
        let from_line = load_stats(&line).expect("metrics line");
        assert_eq!(from_line, from_trace);

        // A stream takes the last line.
        let old = TraceStats {
            metrics: [("decisions".to_string(), 1u64)].into_iter().collect(),
        };
        let stream = format!(
            "{}\n{}\n",
            old.to_metrics_line(),
            from_trace.to_metrics_line()
        );
        assert_eq!(load_stats(&stream).expect("stream").get("decisions"), 8);

        assert!(load_stats("").is_err());
        assert!(load_stats("{\"t\":\"nonsense\"}\n").is_err());
    }
}
