//! Trace comparison and the telemetry regression gate.
//!
//! Compares two [`TraceStats`] metric maps (from raw traces or metrics-line
//! baselines) under a relative tolerance and produces a machine-readable
//! verdict per metric. Only metrics with a known *direction* participate in
//! the gate: counters where less is better (conflicts, visited nodes, LBD
//! percentiles) regress upward, shares where more is better (H1 share,
//! O(1) acceptance) regress downward, and everything else — including all
//! wall-clock metrics unless explicitly opted in — is informational, so a
//! same-config rerun gates clean on any machine.

use std::fmt::Write as _;

use crate::analyze::TraceStats;
use crate::ndjson::Obj;
use crate::vocab::{Counter, Hist};

/// Which way a metric is allowed to move without regressing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Growth beyond tolerance is a regression (work counters).
    LowerBetter,
    /// Shrinkage beyond tolerance is a regression (quality shares).
    HigherBetter,
    /// Reported but never gated.
    Info,
}

/// Per-metric comparison outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Regressed,
    Improved,
    WithinNoise,
    /// Ungated metric: the relative change is reported, nothing judged.
    Info,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Regressed => "regressed",
            Verdict::Improved => "improved",
            Verdict::WithinNoise => "within-noise",
            Verdict::Info => "info",
        }
    }
}

/// Gate configuration.
#[derive(Debug, Clone)]
pub struct DiffOptions {
    /// Relative tolerance: a gated metric may move by this fraction of the
    /// baseline before it is judged. Default 0.20 (±20%).
    pub tolerance: f64,
    /// Relative changes are computed against `max(base, min_base)`, damping
    /// small-count noise: going from 2 conflicts to 4 is not a 100%
    /// regression worth failing CI over. Default 16.
    pub min_base: u64,
    /// Gate wall-clock metrics (`*_us`, `*_ms`, and the percentiles and
    /// maxima of `*_us` histograms such as `frame_solve_us_p90`) too. Off
    /// by default so the gate stays deterministic across machines and CI
    /// load.
    pub gate_time: bool,
}

impl Default for DiffOptions {
    fn default() -> Self {
        DiffOptions {
            tolerance: 0.20,
            min_base: 16,
            gate_time: false,
        }
    }
}

/// A wall-clock metric: its name, or for a histogram percentile or
/// maximum (`frame_solve_us_p90`) its histogram's name, ends in `_us` or
/// `_ms`.
fn is_time(name: &str) -> bool {
    let base = match name.rsplit_once('_') {
        Some((base, "p50" | "p90" | "p99" | "max")) => base,
        _ => name,
    };
    base.ends_with("_us") || base.ends_with("_ms")
}

/// Direction of a metric by its stable name (the [`TraceStats`] vocabulary).
/// Counters and histogram percentiles/maxima take the direction their
/// [`Counter`]/[`Hist`] row declares; time metrics return
/// [`Direction::Info`] here, and [`diff`] upgrades them to
/// [`Direction::LowerBetter`] under [`DiffOptions::gate_time`].
pub fn direction_of(name: &str) -> Direction {
    if is_time(name) {
        return Direction::Info;
    }
    if let Some(counter) = Counter::from_name(name) {
        return counter.direction();
    }
    match name {
        // Work the solver had to do: less is better.
        "decisions" => Direction::LowerBetter,
        // The paper's H1 quality share: more is better.
        "h1_share_pm" => Direction::HigherBetter,
        // Distribution shape: percentiles and maxima gate with their
        // histogram; raw observation counts follow their counter and are
        // informational here (the counter gates).
        _ => match name.rsplit_once('_') {
            Some((base, "p50" | "p90" | "p99" | "max")) => {
                Hist::from_name(base).map_or(Direction::Info, Hist::direction)
            }
            _ => Direction::Info,
        },
    }
}

/// One metric's comparison row.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDiff {
    pub name: String,
    pub base: u64,
    pub new: u64,
    /// Signed relative change against `max(base, min_base)`.
    pub rel: f64,
    pub verdict: Verdict,
}

/// Full comparison of two stat maps.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DiffReport {
    /// One row per metric in the union of both maps, sorted by name.
    pub rows: Vec<MetricDiff>,
    /// Names of gated metrics judged [`Verdict::Regressed`].
    pub regressed: Vec<String>,
    /// Names of gated metrics judged [`Verdict::Improved`].
    pub improved: Vec<String>,
}

impl DiffReport {
    /// True when the regression gate should fail.
    pub fn gate_failed(&self) -> bool {
        !self.regressed.is_empty()
    }

    /// Human-readable table: changed metrics first (largest |rel| first),
    /// then a one-line verdict summary.
    pub fn render(&self, all: bool) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<22} {:>12} {:>12} {:>8}  verdict",
            "metric", "base", "new", "delta"
        );
        let mut rows: Vec<&MetricDiff> = self
            .rows
            .iter()
            .filter(|r| all || r.base != r.new)
            .collect();
        rows.sort_by(|a, b| {
            b.rel
                .abs()
                .partial_cmp(&a.rel.abs())
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.name.cmp(&b.name))
        });
        for r in rows {
            let _ = writeln!(
                out,
                "{:<22} {:>12} {:>12} {:>+7.1}%  {}",
                r.name,
                r.base,
                r.new,
                100.0 * r.rel,
                r.verdict.name()
            );
        }
        if self.gate_failed() {
            let _ = writeln!(out, "\nGATE: regressed: {}", self.regressed.join(", "));
        } else if !self.improved.is_empty() {
            let _ = writeln!(out, "\nGATE: ok (improved: {})", self.improved.join(", "));
        } else {
            let _ = writeln!(out, "\nGATE: ok (all gated metrics within noise)");
        }
        out
    }

    /// Machine-readable NDJSON: one `diffrow` line per changed metric plus
    /// a final `diffgate` line with the overall outcome.
    pub fn to_ndjson(&self) -> String {
        let rows = self.rows.iter().filter(|r| r.base != r.new).map(|r| {
            Obj::tagged("diffrow")
                .field("name", &r.name)
                .field("base", r.base)
                .field("new", r.new)
                // Signed permille keeps the line integer-only like every
                // other trace line.
                .field("rel_pm", (r.rel * 1000.0).round() as i64)
                .field("verdict", r.verdict.name())
        });
        let gate = Obj::tagged("diffgate")
            .field("failed", self.gate_failed())
            .field("regressed", self.regressed.len())
            .field("improved", self.improved.len());
        rows.chain([gate]).map(|o| o.finish() + "\n").collect()
    }
}

/// Compare `new` against `base` under `opts`.
pub fn diff(base: &TraceStats, new: &TraceStats, opts: &DiffOptions) -> DiffReport {
    let mut names: Vec<&String> = base.metrics.keys().chain(new.metrics.keys()).collect();
    names.sort();
    names.dedup();
    let mut report = DiffReport::default();
    for name in names {
        let b = base.get(name);
        let n = new.get(name);
        let denom = b.max(opts.min_base) as f64;
        let rel = (n as f64 - b as f64) / denom;
        let mut dir = direction_of(name);
        if dir == Direction::Info && opts.gate_time && is_time(name) {
            dir = Direction::LowerBetter;
        }
        let verdict = match dir {
            Direction::Info => Verdict::Info,
            _ if rel.abs() <= opts.tolerance => Verdict::WithinNoise,
            Direction::LowerBetter if rel > 0.0 => Verdict::Regressed,
            Direction::HigherBetter if rel < 0.0 => Verdict::Regressed,
            _ => Verdict::Improved,
        };
        match verdict {
            Verdict::Regressed => report.regressed.push(name.clone()),
            Verdict::Improved => report.improved.push(name.clone()),
            _ => {}
        }
        report.rows.push(MetricDiff {
            name: name.clone(),
            base: b,
            new: n,
            rel,
            verdict,
        });
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn stats(pairs: &[(&str, u64)]) -> TraceStats {
        TraceStats {
            metrics: pairs
                .iter()
                .map(|(k, v)| (k.to_string(), *v))
                .collect::<BTreeMap<_, _>>(),
        }
    }

    #[test]
    fn identical_stats_gate_clean() {
        let s = stats(&[("decisions", 1000), ("conflicts", 40), ("h1_share_pm", 800)]);
        let report = diff(&s, &s, &DiffOptions::default());
        assert!(!report.gate_failed());
        assert!(report.rows.iter().all(|r| r.rel == 0.0));
    }

    #[test]
    fn regressions_and_improvements_follow_direction() {
        let base = stats(&[
            ("decisions", 1000),
            ("conflicts", 100),
            ("h1_share_pm", 800),
            ("cc_visited", 500),
        ]);
        let new = stats(&[
            ("decisions", 1000),
            ("conflicts", 150),   // +50%: regression (lower is better)
            ("h1_share_pm", 600), // -25%: regression (higher is better)
            ("cc_visited", 300),  // -40%: improvement
        ]);
        let report = diff(&base, &new, &DiffOptions::default());
        assert!(report.gate_failed());
        assert_eq!(report.regressed, vec!["conflicts", "h1_share_pm"]);
        assert_eq!(report.improved, vec!["cc_visited"]);
        let rendered = report.render(false);
        assert!(rendered.contains("GATE: regressed: conflicts, h1_share_pm"));
    }

    #[test]
    fn tolerance_and_min_base_damp_noise() {
        // +19% stays inside the default 20% tolerance.
        let base = stats(&[("conflicts", 100)]);
        let new = stats(&[("conflicts", 119)]);
        assert!(!diff(&base, &new, &DiffOptions::default()).gate_failed());

        // 2 → 5 conflicts is +150% nominally, but the min_base floor of 16
        // reads it as +18.75%: small-count noise, not a regression.
        let base = stats(&[("conflicts", 2)]);
        let new = stats(&[("conflicts", 5)]);
        assert!(!diff(&base, &new, &DiffOptions::default()).gate_failed());

        // A tighter tolerance flips the first case.
        let base = stats(&[("conflicts", 100)]);
        let new = stats(&[("conflicts", 119)]);
        let tight = DiffOptions {
            tolerance: 0.10,
            ..DiffOptions::default()
        };
        assert!(diff(&base, &new, &tight).gate_failed());
    }

    #[test]
    fn time_metrics_gate_only_when_asked() {
        let base = stats(&[("phase_solve_us", 1000), ("wall_us", 2000)]);
        let new = stats(&[("phase_solve_us", 9000), ("wall_us", 9500)]);
        let report = diff(&base, &new, &DiffOptions::default());
        assert!(!report.gate_failed());
        assert!(report.rows.iter().all(|r| r.verdict == Verdict::Info));
        let timed = DiffOptions {
            gate_time: true,
            ..DiffOptions::default()
        };
        let report = diff(&base, &new, &timed);
        assert!(report.gate_failed());
        assert_eq!(report.regressed, vec!["phase_solve_us", "wall_us"]);
    }

    #[test]
    fn time_histogram_percentiles_gate_only_when_asked() {
        let keys = |v: [u64; 5]| {
            let names =
                ["p50", "p90", "p99", "max", "count"].map(|q| format!("frame_solve_us_{q}"));
            let pairs: Vec<(&str, u64)> = names.iter().map(String::as_str).zip(v).collect();
            stats(&pairs)
        };
        let base = keys([100, 200, 300, 400, 8]);
        let new = keys([900, 1900, 2900, 3900, 8]);
        let report = diff(&base, &new, &DiffOptions::default());
        assert!(report.rows.iter().all(|r| r.verdict == Verdict::Info));
        let timed = DiffOptions {
            gate_time: true,
            ..DiffOptions::default()
        };
        let report = diff(&base, &new, &timed);
        assert_eq!(
            report.regressed,
            ["max", "p50", "p90", "p99"].map(|q| format!("frame_solve_us_{q}"))
        );
        // The observation count is not a time: it stays informational.
        let count = report
            .rows
            .iter()
            .find(|r| r.name == "frame_solve_us_count");
        assert_eq!(count.map(|r| r.verdict), Some(Verdict::Info));
    }

    #[test]
    fn missing_metrics_read_as_zero() {
        // A metric present only in the baseline (new run never restarted):
        // dropping to zero is an improvement for a LowerBetter metric.
        let base = stats(&[("restarts", 50)]);
        let new = stats(&[]);
        let report = diff(&base, &new, &DiffOptions::default());
        assert_eq!(report.improved, vec!["restarts"]);
        // And appearing from zero beyond tolerance regresses.
        let report = diff(&new, &base, &DiffOptions::default());
        assert_eq!(report.regressed, vec!["restarts"]);
    }

    #[test]
    fn ndjson_output_is_flat_and_integer_only() {
        let base = stats(&[("conflicts", 100)]);
        let new = stats(&[("conflicts", 150)]);
        let report = diff(&base, &new, &DiffOptions::default());
        let text = report.to_ndjson();
        for line in text.lines() {
            let map = crate::ndjson::parse_line(line).expect("flat JSON");
            assert!(map.contains_key("t"));
        }
        assert!(text.contains("\"t\":\"diffgate\",\"failed\":true"));
        assert!(text.contains("\"rel_pm\":500"));

        // A decrease writes a negative permille, which reads back signed.
        let report = diff(&base, &stats(&[("conflicts", 50)]), &DiffOptions::default());
        let text = report.to_ndjson();
        let row = crate::ndjson::parse_line(text.lines().next().unwrap()).expect("flat JSON");
        assert_eq!(row["rel_pm"], crate::ndjson::JsonVal::Neg(-500));
        assert_eq!(row["verdict"].as_str(), Some("improved"));
    }

    /// A metric name is a key read back from an input file: the `diffrow`
    /// line escapes it and round-trips through the line parser.
    #[test]
    fn ndjson_escapes_metric_names() {
        let name = "odd\"name\\x";
        let report = diff(
            &stats(&[(name, 1)]),
            &stats(&[(name, 2)]),
            &DiffOptions::default(),
        );
        let text = report.to_ndjson();
        let row = crate::ndjson::parse_line(text.lines().next().unwrap()).expect("flat JSON");
        assert_eq!(row["name"].as_str(), Some(name));
        assert_eq!(row["new"].as_u64(), Some(2));
    }
}
