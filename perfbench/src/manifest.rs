//! What the benchmark measures: its workloads, its metrics with units,
//! directions and regression bounds, and for every per-layer metric the
//! end-to-end metric and workload it is predicted to move. `BENCHMARK.json`
//! at the repository root is generated from these tables
//! (`--write-manifest`), so the two cannot drift apart.

/// The command line that runs one measurement; the harness appends
/// `--workload NAME --seed N --seconds S --trace 0|1`.
pub const COMMAND: &[&str] = &[
    "cargo",
    "run",
    "--offline",
    "--release",
    "--quiet",
    "--manifest-path",
    "perfbench/Cargo.toml",
    "--",
];

/// Wall seconds of timed work a run measures at least. `solver-tail` runs
/// longer, whole passes until the 90th percentile has ten samples beyond
/// it, and `portfolio-share` makes at least six passes.
pub const RUN_SECONDS: u64 = 8;

/// One workload: a fixed row set, generated from the repository's
/// workload generators and ordered by the run's seed.
pub struct WorkloadDef {
    /// Stable name; later changes cite it.
    pub name: &'static str,
    /// Why it exists: the layers it stresses and the metrics they move.
    pub why: &'static str,
}

/// Every workload, in run order.
pub const WORKLOADS: &[WorkloadDef] = &[
    WorkloadDef {
        name: "suite-light",
        why: "Full suite minus the solver tail, SC/TSO/PSO via try_verify: parse, unroll, SSA, \
              zpre-analysis and the encoder are about half of a row, so front-end layers move \
              verdict_p50_ms",
    },
    WorkloadDef {
        name: "solver-tail",
        why: "The 9 conflict-heavy Full-suite tasks (counter-5x2-locked and s204 SC only): \
              zpre-sat and zpre-smt take >99% of a row, so solver, decision order and pruning \
              move rows_per_s",
    },
    WorkloadDef {
        name: "sweep-deep",
        why: "The 24 loop tasks x 3 models via try_verify_sweep_full to horizon 8: one encoding, \
              learnt clauses carried across 8 assumption frames; zpre::incremental moves \
              rows_per_s",
    },
    WorkloadDef {
        name: "portfolio-share",
        why: "contended_family(3) + stress (s204 SC only) via verify_portfolio, 2 ZPRE members, \
              default sharing: the only path through zpre::portfolio and zpre_sat::share",
    },
];

/// Which way a metric improves.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One reported metric.
pub struct Metric {
    /// Stable name.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// End-to-end metrics: the share of the parent's median by which the
    /// metric may worsen before a change counts as a regression.
    pub bound: f64,
    /// Per-layer metrics: the end-to-end metric and workload the layer is
    /// predicted to move. On every other workload the prediction is no
    /// change.
    pub moves: &'static str,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
        moves: "",
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: 0.0,
        moves,
    }
}

use Better::{Higher, Lower};

/// Untraced-run metrics, reported on every workload.
pub const END_TO_END: &[Metric] = &[
    e2e("rows_per_s", "1/s", Higher, 0.25),
    e2e("verdict_p50_ms", "ms", Lower, 0.25),
    e2e("verdict_p90_ms", "ms", Lower, 0.25),
    e2e("solved_share", "ratio", Higher, 0.05),
    e2e("peak_rss_mb", "MB", Lower, 0.25),
    e2e("setup_s", "s", Lower, 0.25),
];

const FRONT: &str = "verdict_p50_ms on suite-light";
const TAIL: &str = "rows_per_s on solver-tail";
const TAIL_P90: &str = "rows_per_s and verdict_p90_ms on solver-tail";
const SWEEP: &str = "rows_per_s on sweep-deep";
const SHARE: &str = "rows_per_s and verdict_p90_ms on portfolio-share";

/// Traced-run metrics, reported on every workload. Times are mean
/// milliseconds per row; counts are totals per pass.
pub const PER_LAYER: &[Metric] = &[
    layer("prog.parse_ms", "ms", Lower, FRONT),
    layer("prog.unroll_ms", "ms", Lower, FRONT),
    layer("prog.ssa_ms", "ms", Lower, FRONT),
    layer("prog.events", "count", Lower, FRONT),
    layer("analysis.analyze_ms", "ms", Lower, FRONT),
    layer("analysis.rf_pruned", "count", Higher, TAIL),
    layer("analysis.ws_pruned", "count", Higher, TAIL),
    layer("analysis.reads_resolved", "count", Higher, TAIL),
    layer("encoder.encode_ms", "ms", Lower, FRONT),
    layer("encoder.solver_vars", "count", Lower, FRONT),
    layer("encoder.rf_vars", "count", Lower, FRONT),
    layer("encoder.ws_vars", "count", Lower, FRONT),
    layer("core.order_ms", "ms", Lower, TAIL),
    layer("core.guided_share", "ratio", Higher, TAIL),
    layer("sat.solve_ms", "ms", Lower, TAIL_P90),
    layer("sat.decisions", "count", Lower, TAIL_P90),
    layer("sat.propagations", "count", Lower, TAIL_P90),
    layer("sat.conflicts", "count", Lower, TAIL_P90),
    layer("sat.restarts", "count", Lower, TAIL_P90),
    layer("sat.reductions", "count", Lower, TAIL_P90),
    layer("sat.learnt_clauses", "count", Lower, TAIL_P90),
    layer("sat.props_per_ms", "1/ms", Higher, TAIL_P90),
    layer("smt.eog_checks", "count", Lower, TAIL),
    layer("smt.eog_visited", "count", Lower, TAIL),
    layer("smt.eog_promoted", "count", Lower, TAIL),
    layer("smt.theory_conflicts", "count", Lower, TAIL),
    layer("smt.theory_propagations", "count", Higher, TAIL),
    layer("sweep.encode_ms", "ms", Lower, SWEEP),
    layer("sweep.frames", "count", Lower, SWEEP),
    layer("sweep.frame_solve_ms", "ms", Lower, SWEEP),
    layer("sweep.reused_learnts", "count", Higher, SWEEP),
    layer("portfolio.cancel_latency_ms", "ms", Lower, SHARE),
    layer("portfolio.attempt_ratio", "ratio", Lower, SHARE),
    layer("share.exported", "count", Higher, SHARE),
    layer("share.imported", "count", Higher, SHARE),
    layer("share.dropped", "count", Lower, SHARE),
    layer("share.import_hits", "count", Higher, SHARE),
    layer(
        "obs.overhead_pct",
        "%",
        Lower,
        "nothing: the traced run against the untraced one",
    ),
];

/// Looks up a metric's unit by name.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|m| m.name == name)
        .map(|m| m.unit)
        .unwrap_or_else(|| panic!("metric {name} is not declared in the manifest"))
}

/// Minimal JSON string quoting for the ASCII text of these tables.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The content of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let list = |items: Vec<String>| format!("[\n{}\n  ]", items.join(",\n"));
    let command: Vec<String> = COMMAND.iter().map(|s| quote(s)).collect();
    let workloads = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                quote(w.name),
                quote(w.why)
            )
        })
        .collect();
    let e2e = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                quote(m.name),
                quote(m.unit),
                quote(m.better.as_str()),
                m.bound
            )
        })
        .collect();
    let per_layer = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                quote(m.name),
                quote(m.unit),
                quote(m.better.as_str())
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [\"perfbench\"],\n  \"run_seconds\": {},\n  \
         \"workloads\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}\n",
        command.join(", "),
        RUN_SECONDS,
        list(workloads),
        list(e2e),
        list(per_layer)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_manifest_is_generated_from_these_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate with --write-manifest BENCHMARK.json"
        );
    }

    #[test]
    fn tables_respect_the_manifest_limits() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        for w in WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        for m in PER_LAYER {
            assert!(!m.moves.is_empty(), "{} names no end-to-end effect", m.name);
        }
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.name).collect();
        names.extend(WORKLOADS.iter().map(|w| w.name));
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "names are used once");
    }
}
