//! Parallel execution of the benchmark suite.

use rayon::prelude::*;
use zpre::{
    try_verify, verify_portfolio, PortfolioOptions, ShareConfig, Strategy, VerifyError,
    VerifyOptions, VerifyOutcome,
};
use zpre_obs::analyze::TraceStats;
use zpre_obs::ndjson::{self, Dec, Obj};
use zpre_obs::{Recorder, TraceConfig, TraceSnapshot};
use zpre_prog::MemoryModel;
use zpre_workloads::{Subcat, Task};

/// Configuration of one experiment run.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Options every row starts from: the conflict budget (standing in for
    /// the paper's 1800 s per-task timeout, reported as `TO`), wall-clock
    /// cap, seed, certification and pruning. A row sets
    /// its own memory model, strategy, unroll bound and recorder. Rejected
    /// verdicts (a witness that does not replay or, with `certify`, a
    /// proof that does not check) are reported as `"rejected"` instead of
    /// crashing the suite; `prune: false` measures the historic unpruned
    /// encoding.
    pub base: VerifyOptions,
    /// Attach a `zpre-obs` recorder to every measurement: its snapshot
    /// (phase spans, exact counters, histograms) lands in
    /// [`TaskResult::telemetry`] (and, flattened per group, in
    /// `BENCH_TELEMETRY.json` via the harness). Off by default so timing
    /// rows stay untouched by event-buffer overhead.
    pub telemetry: bool,
    /// Cross-member clause sharing for portfolio measurements
    /// ([`run_one_portfolio`]); single-strategy rows ignore it (there is
    /// nobody to share with).
    pub share: Option<ShareConfig>,
}

impl Default for RunConfig {
    fn default() -> RunConfig {
        RunConfig {
            base: VerifyOptions {
                max_conflicts: Some(200_000),
                ..VerifyOptions::default()
            },
            telemetry: false,
            share: None,
        }
    }
}

/// One measurement: a task solved under one memory model with one strategy.
#[derive(Clone, Debug)]
pub struct TaskResult {
    /// Task name.
    pub task: String,
    /// Subcategory name.
    pub subcat: String,
    /// Memory-model name.
    pub mm: String,
    /// Strategy name.
    pub strategy: String,
    /// Verdict: "safe" / "unsafe" / "unknown".
    pub verdict: String,
    /// Solve time in milliseconds (excluding encoding).
    pub solve_ms: f64,
    /// Encoding time in milliseconds.
    pub encode_ms: f64,
    /// Decisions.
    pub decisions: u64,
    /// Propagations.
    pub propagations: u64,
    /// Conflicts.
    pub conflicts: u64,
    /// Decisions answered by the interference guide.
    pub guided_decisions: u64,
    /// `true` when the verdict matches the generator's ground truth (or the
    /// ground truth is unknown / the verdict is unknown).
    pub expected_ok: bool,
    /// Portfolio rows only: name of the member whose verdict won the race.
    pub winner: Option<String>,
    /// Portfolio rows only: milliseconds from the winner's cancellation
    /// signal until the last loser actually stopped.
    pub cancel_latency_ms: Option<f64>,
    /// Certified rows only: one-line certificate summary.
    pub certified: Option<String>,
    /// Portfolio rows only: members quarantined after a panic or a
    /// certification failure, `;`-separated.
    pub quarantined: Option<String>,
    /// The row's counters-only recorder snapshot, present when
    /// [`RunConfig::telemetry`] is on. Its [`TraceStats`] are the row's
    /// telemetry, in the trace vocabulary.
    pub telemetry: Option<TraceSnapshot>,
}

/// A recorder keeping counters and spans, all a bench row needs: skipping
/// event storage keeps memory flat across a full suite.
pub fn counters_recorder() -> Recorder {
    Recorder::new(TraceConfig {
        events: false,
        decision_sample: 1,
    })
}

fn mk_recorder(cfg: &RunConfig) -> Option<Recorder> {
    cfg.telemetry.then(counters_recorder)
}

impl TaskResult {
    /// `true` when the task was solved within budget.
    pub fn solved(&self) -> bool {
        self.verdict != "unknown"
    }
}

/// Runs `tasks × mms × strategies` in parallel, invoking `on_row` as each
/// measurement completes. Rows arrive in completion order (not job order);
/// the returned vector is still in deterministic job order.
///
/// This is the interrupt-safe entry point: the harness flushes each row to
/// disk the moment it arrives, so a run killed mid-suite leaves every
/// finished measurement behind instead of losing hours of work to one
/// buffered `write` at the end.
pub fn run_suite_streaming<F>(
    tasks: &[Task],
    mms: &[MemoryModel],
    strategies: &[Strategy],
    cfg: &RunConfig,
    on_row: F,
) -> Vec<TaskResult>
where
    F: Fn(&TaskResult) + Sync,
{
    let mut jobs: Vec<(&Task, MemoryModel, Strategy)> = Vec::new();
    for t in tasks {
        for &mm in mms {
            for &st in strategies {
                jobs.push((t, mm, st));
            }
        }
    }
    jobs.par_iter()
        .map(|&(task, mm, strategy)| {
            let r = run_one(task, mm, strategy, cfg);
            on_row(&r);
            r
        })
        .collect()
}

/// Runs a single (task, memory model, strategy) measurement.
pub fn run_one(task: &Task, mm: MemoryModel, strategy: Strategy, cfg: &RunConfig) -> TaskResult {
    let recorder = mk_recorder(cfg);
    let opts = row_options(task, mm, strategy, &recorder, cfg);
    let out = try_verify(&task.program, &opts);
    task_result(task, mm, strategy.name(), out, &recorder)
}

/// Runs a single (task, memory model) measurement with the default
/// portfolio racing the main strategies. The row's `strategy` column is
/// `"portfolio"`; solver statistics come from the winning member.
pub fn run_one_portfolio(task: &Task, mm: MemoryModel, cfg: &RunConfig) -> TaskResult {
    let recorder = mk_recorder(cfg);
    let base = row_options(task, mm, Strategy::Zpre, &recorder, cfg);
    let mut folio_opts = PortfolioOptions::new(base);
    if let Some(share_cfg) = cfg.share {
        folio_opts = folio_opts.with_share(share_cfg);
    }
    let folio = verify_portfolio(&task.program, &folio_opts);
    TaskResult {
        winner: folio.winner,
        cancel_latency_ms: folio.cancel_latency.map(|d| d.as_secs_f64() * 1e3),
        quarantined: (!folio.quarantined.is_empty()).then(|| folio.quarantined.join(";")),
        ..task_result(task, mm, "portfolio", Ok(folio.outcome), &recorder)
    }
}

/// A row's options: `cfg.base` at the task's bound, under `mm` and
/// `strategy`, with the row's recorder.
fn row_options(
    task: &Task,
    mm: MemoryModel,
    strategy: Strategy,
    recorder: &Option<Recorder>,
    cfg: &RunConfig,
) -> VerifyOptions {
    VerifyOptions {
        mm,
        strategy,
        unroll_bound: task.unroll_bound,
        max_bound: task.unroll_bound,
        recorder: recorder.clone(),
        ..cfg.base.clone()
    }
}

/// The row of one outcome. A rejected verdict (certification failure) is
/// recorded as `"rejected"`, not propagated as a panic: one bad row must
/// not sink the suite.
fn task_result(
    task: &Task,
    mm: MemoryModel,
    strategy: &str,
    out: Result<VerifyOutcome, VerifyError>,
    recorder: &Option<Recorder>,
) -> TaskResult {
    let (verdict, certified, expected_ok, out) = match out {
        Ok(out) => (
            out.verdict.to_string(),
            out.certificate.as_ref().map(|c| c.summary()),
            task.expected.matches(mm, out.verdict),
            out,
        ),
        Err(e) => (
            "rejected".to_string(),
            Some(format!("rejected: {e}")),
            false,
            VerifyOutcome::default(),
        ),
    };
    TaskResult {
        task: task.name.clone(),
        subcat: task.subcat.name().to_string(),
        mm: mm.name().to_string(),
        strategy: strategy.to_string(),
        verdict,
        solve_ms: out.solve_time.as_secs_f64() * 1e3,
        encode_ms: out.encode_time.as_secs_f64() * 1e3,
        decisions: out.stats.decisions,
        propagations: out.stats.propagations,
        conflicts: out.stats.conflicts,
        guided_decisions: out.stats.guided_decisions,
        expected_ok,
        winner: None,
        cancel_latency_ms: None,
        certified,
        quarantined: None,
        telemetry: recorder.as_ref().map(Recorder::snapshot),
    }
}

/// Runs `tasks × mms` through the portfolio engine, handing each finished
/// race to `on_row` immediately so callers can flush it to disk. Each job
/// already saturates several cores with its member threads, so jobs run
/// sequentially.
pub fn run_suite_portfolio_streaming<F>(
    tasks: &[Task],
    mms: &[MemoryModel],
    cfg: &RunConfig,
    mut on_row: F,
) -> Vec<TaskResult>
where
    F: FnMut(&TaskResult),
{
    let mut results = Vec::new();
    for t in tasks {
        for &mm in mms {
            let r = run_one_portfolio(t, mm, cfg);
            on_row(&r);
            results.push(r);
        }
    }
    results
}

/// The CSV header line (no trailing newline) matching [`csv_row`]. Per-row
/// telemetry is a vocabulary-keyed map a flat header cannot carry; it
/// rides in the JSON rows ([`json_row`]).
pub const CSV_HEADER: &str = "task,subcat,mm,strategy,verdict,solve_ms,encode_ms,decisions,propagations,conflicts,guided_decisions,expected_ok,winner,cancel_latency_ms,certified,quarantined";

// Certificate summaries contain commas; quote free-text columns.
fn quoted(s: Option<&str>) -> String {
    s.map_or(String::new(), |s| format!("\"{}\"", s.replace('"', "\"\"")))
}

/// One CSV line (no trailing newline) in [`CSV_HEADER`] column order.
pub fn csv_row(r: &TaskResult) -> String {
    format!(
        "{},{},{},{},{},{:.3},{:.3},{},{},{},{},{},{},{},{},{}",
        r.task,
        r.subcat,
        r.mm,
        r.strategy,
        r.verdict,
        r.solve_ms,
        r.encode_ms,
        r.decisions,
        r.propagations,
        r.conflicts,
        r.guided_decisions,
        r.expected_ok,
        r.winner.as_deref().unwrap_or(""),
        r.cancel_latency_ms
            .map_or(String::new(), |l| format!("{l:.3}")),
        quoted(r.certified.as_deref()),
        quoted(r.quarantined.as_deref()),
    )
}

/// One compact JSON object for a row (no trailing newline), suitable for
/// NDJSON streaming: the harness appends one per completed measurement so
/// an interrupted run leaves a parseable prefix behind. `telemetry` is the
/// snapshot's [`TraceStats`] object (`null` when telemetry was off).
pub fn json_row(r: &TaskResult) -> String {
    Obj::new()
        .field("task", &r.task)
        .field("subcat", &r.subcat)
        .field("mm", &r.mm)
        .field("strategy", &r.strategy)
        .field("verdict", &r.verdict)
        .field("solve_ms", Dec(r.solve_ms))
        .field("encode_ms", Dec(r.encode_ms))
        .field("decisions", r.decisions)
        .field("propagations", r.propagations)
        .field("conflicts", r.conflicts)
        .field("guided_decisions", r.guided_decisions)
        .field("expected_ok", r.expected_ok)
        .field("winner", &r.winner)
        .field("cancel_latency_ms", r.cancel_latency_ms.map(Dec))
        .field("certified", &r.certified)
        .field("quarantined", &r.quarantined)
        .field(
            "telemetry",
            r.telemetry
                .as_ref()
                .map(|snap| TraceStats::from_snapshots([snap])),
        )
        .finish()
}

/// Serializes results as CSV.
pub fn to_csv(results: &[TaskResult]) -> String {
    let mut out = String::from(CSV_HEADER);
    out.push('\n');
    for r in results {
        out.push_str(&csv_row(r));
        out.push('\n');
    }
    out
}

/// Serializes results as one JSON array, one [`json_row`] object per line.
pub fn to_json(results: &[TaskResult]) -> String {
    ndjson::lines_array(results.iter().map(json_row), "")
}

/// Helper: the subcategory display order used by the figures.
pub fn subcat_order() -> Vec<&'static str> {
    Subcat::ALL.iter().map(|s| s.name()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use zpre_workloads::{suite, Scale};

    #[test]
    fn quick_run_produces_consistent_results() {
        let tasks: Vec<Task> = suite(Scale::Quick).into_iter().take(4).collect();
        let cfg = RunConfig::default();
        let results = run_suite_streaming(
            &tasks,
            &[MemoryModel::Sc],
            &[Strategy::Baseline, Strategy::Zpre],
            &cfg,
            |_| {},
        );
        assert_eq!(results.len(), tasks.len() * 2);
        for r in &results {
            assert!(
                r.expected_ok,
                "{} {} {} got {}",
                r.task, r.mm, r.strategy, r.verdict
            );
        }
        // Baseline and ZPRE agree on every verdict.
        for t in &tasks {
            let v: Vec<&str> = results
                .iter()
                .filter(|r| r.task == t.name)
                .map(|r| r.verdict.as_str())
                .collect();
            assert_eq!(v[0], v[1], "{}", t.name);
        }
    }

    #[test]
    fn csv_roundtrip_shape() {
        let tasks: Vec<Task> = suite(Scale::Quick).into_iter().take(1).collect();
        let cfg = RunConfig::default();
        let results =
            run_suite_streaming(&tasks, &[MemoryModel::Sc], &[Strategy::Zpre], &cfg, |_| {});
        let csv = to_csv(&results);
        assert_eq!(csv.lines().count(), results.len() + 1);
        assert!(csv.starts_with("task,"));
        // The 16 row columns, no telemetry tail; a row without winner,
        // latency, certificate or quarantine ends in four empty fields.
        assert_eq!(CSV_HEADER.split(',').count(), 16);
        let row = csv.lines().nth(1).unwrap();
        assert!(row.ends_with(",,,,"));
        assert_eq!(row.split(',').count(), CSV_HEADER.split(',').count());
    }

    /// A free-text column with a newline or another control character must
    /// not split the NDJSON line `BENCH_ROWS.json` streams.
    #[test]
    fn json_row_escapes_control_characters() {
        let tasks: Vec<Task> = suite(Scale::Quick).into_iter().take(1).collect();
        let cfg = RunConfig::default();
        let mut row =
            run_suite_streaming(&tasks, &[MemoryModel::Sc], &[Strategy::Zpre], &cfg, |_| {})
                .remove(0);
        row.certified = Some("a\nb\u{1}".to_string());
        row.quarantined = Some("x\ty\r".to_string());
        let line = json_row(&row);
        assert!(!line.chars().any(char::is_control), "{line}");
        assert!(line.contains(r#""certified":"a\nb\u0001""#), "{line}");
        assert!(line.contains(r#""quarantined":"x\ty\r""#), "{line}");
    }

    /// A row's `telemetry` object is its snapshot's `TraceStats`, keyed
    /// in the trace vocabulary, nested phases (`blast` inside `encode`)
    /// included.
    #[test]
    fn json_row_telemetry_is_the_snapshots_trace_stats() {
        let tasks: Vec<Task> = suite(Scale::Quick).into_iter().take(1).collect();
        let cfg = RunConfig {
            telemetry: true,
            ..RunConfig::default()
        };
        let row = run_one(&tasks[0], MemoryModel::Tso, Strategy::Zpre, &cfg);
        let snap = row.telemetry.as_ref().expect("telemetry on");
        let line = json_row(&row);
        let key = "\"telemetry\":";
        let object = &line[line.find(key).expect("telemetry field") + key.len()..line.len() - 1];
        let parsed = ndjson::parse_line(object).expect("flat telemetry object");
        let expected = TraceStats::from_snapshots([snap]).metrics;
        let expected: std::collections::BTreeMap<String, ndjson::JsonVal> = expected
            .into_iter()
            .map(|(k, v)| (k, ndjson::JsonVal::Num(v)))
            .collect();
        assert_eq!(parsed, expected);
        assert!(
            TraceStats::from_snapshots([snap]).get("phase_blast_us") > 0,
            "{object}"
        );
    }

    /// Table 2's decision and conflict columns must be reproducible from
    /// the row's telemetry alone: the per-class decision split sums to the
    /// solver's decision statistic, the trace's conflicts equal the
    /// solver's, and the event-fed LBD histogram observed every conflict,
    /// for baseline and ZPRE alike.
    #[test]
    fn table2_columns_reproduce_from_event_stream() {
        let tasks: Vec<Task> = suite(Scale::Quick).into_iter().take(3).collect();
        let cfg = RunConfig {
            telemetry: true,
            ..RunConfig::default()
        };
        let results = run_suite_streaming(
            &tasks,
            &[MemoryModel::Sc, MemoryModel::Tso],
            &[Strategy::Baseline, Strategy::Zpre],
            &cfg,
            |_| {},
        );
        for r in &results {
            let snap = r
                .telemetry
                .as_ref()
                .expect("telemetry row present when cfg.telemetry is set");
            let t = TraceStats::from_snapshots([snap]);
            assert_eq!(
                t.get("decisions"),
                r.decisions,
                "{} {} {}: histogram must sum to the decision count",
                r.task,
                r.mm,
                r.strategy
            );
            assert_eq!(
                t.get("conflicts"),
                r.conflicts,
                "{} {} {}: trace conflicts must match stats",
                r.task,
                r.mm,
                r.strategy
            );
            assert_eq!(
                t.get("conflict_lbd_count"),
                r.conflicts,
                "{} {} {}: every conflict event must reach the LBD histogram",
                r.task,
                r.mm,
                r.strategy
            );
            // LBD percentiles are monotone and present exactly when a
            // conflict was observed (every conflict has LBD >= 1).
            let lbd = |p: &str| t.get(&format!("conflict_lbd_{p}"));
            assert!(
                lbd("p50") <= lbd("p90") && lbd("p90") <= lbd("p99"),
                "{} {} {}: LBD percentiles must be monotone",
                r.task,
                r.mm,
                r.strategy
            );
            // A level-0 terminal conflict is recorded with LBD 0 (nothing
            // is learnt), so conflicts can outnumber positive LBD samples —
            // but a positive LBD always implies a conflict happened.
            assert!(
                lbd("p99") == 0 || t.get("conflicts") > 0,
                "{} {} {}: positive LBD p99 without any observed conflict",
                r.task,
                r.mm,
                r.strategy
            );
            // The guide explains the histogram: ZPRE front-loads
            // interference classes, so whenever it decided anything it
            // decided at least one interference variable.
            if r.strategy == "zpre" && r.decisions > 0 && r.guided_decisions > 0 {
                let interference = ["dec_rf_ext", "dec_rf_int", "dec_ws"].map(|k| t.get(k));
                assert!(
                    interference.iter().sum::<u64>() > 0,
                    "{} {}: guided run recorded no interference decisions",
                    r.task,
                    r.mm
                );
            }
        }
    }
}
