//! Parallel execution of the benchmark suite.

use rayon::prelude::*;
use zpre::{
    try_verify, verify_portfolio, PortfolioOptions, ShareConfig, Strategy, VerifyError,
    VerifyOptions, VerifyOutcome,
};
use zpre_obs::{ndjson, Counter, Hist, Phase, Recorder, TraceConfig, VarClass};
use zpre_prog::MemoryModel;
use zpre_workloads::{Subcat, Task};

/// Configuration of one experiment run.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Options every row starts from: the conflict budget (standing in for
    /// the paper's 1800 s per-task timeout, reported as `TO`), wall-clock
    /// cap, seed, model validation, certification and pruning. A row sets
    /// its own memory model, strategy, unroll bound and recorder. With
    /// `certify`, rejected verdicts are reported as `"rejected"` instead of
    /// crashing the suite; `prune: false` measures the historic unpruned
    /// encoding.
    pub base: VerifyOptions,
    /// Attach a `zpre-obs` recorder to every measurement: per-phase
    /// timings and per-class decision histograms land in the extra
    /// `TaskResult` columns (and in `BENCH_TELEMETRY.json` via the
    /// harness). Off by default so timing rows stay untouched by
    /// event-buffer overhead.
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
    /// Observability columns, present when [`RunConfig::telemetry`] is on.
    pub telemetry: Option<RowTelemetry>,
}

/// Per-row per-phase timings and decision histogram, read off a `zpre-obs`
/// recorder attached to the measurement. Phase times come from the
/// recorder's spans (so they agree with `--profile` output); the decision
/// histogram and conflict count come from the recorder's exact counters,
/// which lets Table 2's decision/conflict columns be reproduced from the
/// event stream alone.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RowTelemetry {
    /// Loop-unrolling time in milliseconds.
    pub unroll_ms: f64,
    /// SSA-conversion time in milliseconds.
    pub ssa_ms: f64,
    /// Constraint-encoding time in milliseconds (contains `blast_ms`).
    pub encode_ms: f64,
    /// Bit-blasting time in milliseconds (nested inside encode).
    pub blast_ms: f64,
    /// Solving time in milliseconds.
    pub solve_ms: f64,
    /// Decisions on external read-from selector variables.
    pub dec_rf_ext: u64,
    /// Decisions on internal (same-thread) read-from selectors.
    pub dec_rf_int: u64,
    /// Decisions on write-serialization selectors.
    pub dec_ws: u64,
    /// Decisions on every other variable class.
    pub dec_other: u64,
    /// Conflicts counted from the event stream.
    pub obs_conflicts: u64,
    /// EOG cycle checks run by the order theory (one per asserted atom or
    /// fixed edge reaching the incremental engine).
    pub cc_checks: u64,
    /// Cycle checks accepted in O(1) by the topological-level test.
    pub cc_accepted_o1: u64,
    /// Nodes visited across all bounded two-way searches.
    pub cc_visited: u64,
    /// Topological-level promotions performed by forward passes.
    pub cc_promoted: u64,
    /// Conflict-LBD distribution: median (0 when no conflicts).
    pub lbd_p50: u64,
    /// Conflict-LBD distribution: 90th percentile.
    pub lbd_p90: u64,
    /// Conflict-LBD distribution: 99th percentile.
    pub lbd_p99: u64,
    /// EOG lemma cycle length, 90th percentile (0 when no lemmas).
    pub cycle_len_p90: u64,
    /// Clauses exported to the portfolio share pool (0 without `--share`).
    pub sh_exported: u64,
    /// Foreign clauses imported from the pool.
    pub sh_imported: u64,
    /// Propagations/conflicts driven by imported clauses — the signal that
    /// sharing did useful work, not just traffic.
    pub sh_import_hits: u64,
}

impl RowTelemetry {
    /// Total decisions across all classes; must equal the solver's own
    /// decision statistic.
    pub fn total_decisions(&self) -> u64 {
        self.dec_rf_ext + self.dec_rf_int + self.dec_ws + self.dec_other
    }

    /// Interference-class decisions (the paper's `V_rf ∪ V_ws`).
    pub fn interference_decisions(&self) -> u64 {
        self.dec_rf_ext + self.dec_rf_int + self.dec_ws
    }

    /// Adds `o`'s phase times and counters to these. The distribution
    /// percentiles (`lbd_*`, `cycle_len_p90`) do not sum and stay as they
    /// are.
    pub fn accumulate(&mut self, o: &RowTelemetry) {
        let times = [
            (&mut self.unroll_ms, o.unroll_ms),
            (&mut self.ssa_ms, o.ssa_ms),
            (&mut self.encode_ms, o.encode_ms),
            (&mut self.blast_ms, o.blast_ms),
            (&mut self.solve_ms, o.solve_ms),
        ];
        for (total, v) in times {
            *total += v;
        }
        let counts = [
            (&mut self.dec_rf_ext, o.dec_rf_ext),
            (&mut self.dec_rf_int, o.dec_rf_int),
            (&mut self.dec_ws, o.dec_ws),
            (&mut self.dec_other, o.dec_other),
            (&mut self.obs_conflicts, o.obs_conflicts),
            (&mut self.cc_checks, o.cc_checks),
            (&mut self.cc_accepted_o1, o.cc_accepted_o1),
            (&mut self.cc_visited, o.cc_visited),
            (&mut self.cc_promoted, o.cc_promoted),
            (&mut self.sh_exported, o.sh_exported),
            (&mut self.sh_imported, o.sh_imported),
            (&mut self.sh_import_hits, o.sh_import_hits),
        ];
        for (total, v) in counts {
            *total += v;
        }
    }

    /// Every column as `(JSON key, rendered value)`, in [`CSV_HEADER`]
    /// order: times in milliseconds to three decimals, then counts.
    pub fn columns(&self) -> [(&'static str, String); TELEMETRY_COLUMNS] {
        let ms = |v: f64| format!("{v:.3}");
        let n = |v: u64| v.to_string();
        [
            ("unroll_ms", ms(self.unroll_ms)),
            ("ssa_ms", ms(self.ssa_ms)),
            ("encode_ms", ms(self.encode_ms)),
            ("blast_ms", ms(self.blast_ms)),
            ("solve_ms", ms(self.solve_ms)),
            ("dec_rf_ext", n(self.dec_rf_ext)),
            ("dec_rf_int", n(self.dec_rf_int)),
            ("dec_ws", n(self.dec_ws)),
            ("dec_other", n(self.dec_other)),
            ("obs_conflicts", n(self.obs_conflicts)),
            ("cc_checks", n(self.cc_checks)),
            ("cc_accepted_o1", n(self.cc_accepted_o1)),
            ("cc_visited", n(self.cc_visited)),
            ("cc_promoted", n(self.cc_promoted)),
            ("lbd_p50", n(self.lbd_p50)),
            ("lbd_p90", n(self.lbd_p90)),
            ("lbd_p99", n(self.lbd_p99)),
            ("cycle_len_p90", n(self.cycle_len_p90)),
            ("sh_exported", n(self.sh_exported)),
            ("sh_imported", n(self.sh_imported)),
            ("sh_import_hits", n(self.sh_import_hits)),
        ]
    }

    /// Reads phase timings and counters off a recorder snapshot.
    pub fn from_recorder(rec: &Recorder) -> RowTelemetry {
        let snap = rec.snapshot();
        let ms = |phase: Phase| -> f64 {
            snap.spans
                .iter()
                .filter(|s| s.phase == phase && s.closed)
                .map(|s| s.dur_us as f64 / 1e3)
                .sum()
        };
        let c = &snap.counters;
        RowTelemetry {
            unroll_ms: ms(Phase::Unroll),
            ssa_ms: ms(Phase::Ssa),
            encode_ms: ms(Phase::Encode),
            blast_ms: ms(Phase::Blast),
            solve_ms: ms(Phase::Solve),
            dec_rf_ext: c.decisions[VarClass::ExternalRf.index()],
            dec_rf_int: c.decisions[VarClass::InternalRf.index()],
            dec_ws: c.decisions[VarClass::Ws.index()],
            dec_other: c.decisions[VarClass::Other.index()],
            obs_conflicts: c[Counter::Conflicts],
            cc_checks: c[Counter::CycleChecks],
            cc_accepted_o1: c[Counter::CycleAcceptedO1],
            cc_visited: c[Counter::CycleVisited],
            cc_promoted: c[Counter::CyclePromoted],
            lbd_p50: snap.hists[Hist::ConflictLbd].percentile(0.50),
            lbd_p90: snap.hists[Hist::ConflictLbd].percentile(0.90),
            lbd_p99: snap.hists[Hist::ConflictLbd].percentile(0.99),
            cycle_len_p90: snap.hists[Hist::LemmaCycleLen].percentile(0.90),
            sh_exported: c[Counter::ShExported],
            sh_imported: c[Counter::ShImported],
            sh_import_hits: c[Counter::ShImportHits],
        }
    }
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

/// The options a Criterion bench solves `task` under: its unroll bound,
/// no model re-validation, no conflict budget.
pub fn bench_options(task: &Task, mm: MemoryModel, strategy: Strategy) -> VerifyOptions {
    let mut opts = VerifyOptions::new(mm, strategy);
    opts.unroll_bound = task.unroll_bound;
    opts.validate_models = false;
    opts
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
        telemetry: recorder.as_ref().map(RowTelemetry::from_recorder),
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

/// Telemetry columns at the end of every CSV row.
const TELEMETRY_COLUMNS: usize = 21;

/// The CSV header line (no trailing newline) matching [`csv_row`].
pub const CSV_HEADER: &str = "task,subcat,mm,strategy,verdict,solve_ms,encode_ms,decisions,propagations,conflicts,guided_decisions,expected_ok,winner,cancel_latency_ms,certified,quarantined,unroll_ms,ssa_ms,tele_encode_ms,blast_ms,tele_solve_ms,dec_rf_ext,dec_rf_int,dec_ws,dec_other,obs_conflicts,cc_checks,cc_accepted_o1,cc_visited,cc_promoted,lbd_p50,lbd_p90,lbd_p99,cycle_len_p90,sh_exported,sh_imported,sh_import_hits";

// Certificate summaries contain commas; quote free-text columns.
fn quoted(s: Option<&str>) -> String {
    s.map_or(String::new(), |s| format!("\"{}\"", s.replace('"', "\"\"")))
}

/// One CSV line (no trailing newline) in [`CSV_HEADER`] column order.
pub fn csv_row(r: &TaskResult) -> String {
    // Telemetry columns stay empty (not zero) when telemetry was off,
    // so downstream tooling can tell "unmeasured" from "measured zero".
    let tele = r.telemetry.as_ref().map_or_else(
        || ",".repeat(TELEMETRY_COLUMNS - 1),
        |t| t.columns().map(|(_, v)| v).join(","),
    );
    format!(
        "{},{},{},{},{},{:.3},{:.3},{},{},{},{},{},{},{},{},{},{}",
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
        tele
    )
}

/// One compact JSON object for a row (no trailing newline), suitable for
/// NDJSON streaming: the harness appends one per completed measurement so
/// an interrupted run leaves a parseable prefix behind.
pub fn json_row(r: &TaskResult) -> String {
    format!(
        "{{\"task\":{},\"subcat\":{},\"mm\":{},\"strategy\":{},\
         \"verdict\":{},\"solve_ms\":{:.3},\"encode_ms\":{:.3},\"decisions\":{},\
         \"propagations\":{},\"conflicts\":{},\"guided_decisions\":{},\"expected_ok\":{},\
         \"winner\":{},\"cancel_latency_ms\":{},\"certified\":{},\"quarantined\":{},\
         \"telemetry\":{}}}",
        ndjson::quoted(&r.task),
        ndjson::quoted(&r.subcat),
        ndjson::quoted(&r.mm),
        ndjson::quoted(&r.strategy),
        ndjson::quoted(&r.verdict),
        r.solve_ms,
        r.encode_ms,
        r.decisions,
        r.propagations,
        r.conflicts,
        r.guided_decisions,
        r.expected_ok,
        r.winner.as_deref().map_or("null".into(), ndjson::quoted),
        r.cancel_latency_ms
            .map_or("null".to_string(), |l| format!("{l:.3}")),
        r.certified.as_deref().map_or("null".into(), ndjson::quoted),
        r.quarantined
            .as_deref()
            .map_or("null".into(), ndjson::quoted),
        telemetry_json(r.telemetry.as_ref()),
    )
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

/// Serializes results as one JSON array, one [`json_row`] object per line
/// (hand-rolled: the build environment has no registry access, so serde
/// is not available).
pub fn to_json(results: &[TaskResult]) -> String {
    let rows: Vec<String> = results.iter().map(json_row).collect();
    format!("[\n{}\n]", rows.join(",\n"))
}

/// JSON fragment for a row's telemetry (or `null` when telemetry was off).
pub fn telemetry_json(t: Option<&RowTelemetry>) -> String {
    t.map_or("null".to_string(), |t| {
        let fields = t.columns().map(|(k, v)| format!("\"{k}\": {v}"));
        format!("{{{}}}", fields.join(", "))
    })
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
        // Telemetry was off: the trailing telemetry columns are empty, and
        // the row still has exactly one field per header column.
        let row = csv.lines().nth(1).unwrap();
        assert!(row.ends_with(",,,,,,,,,,,,,"));
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

    /// Table 2's decision and conflict columns must be reproducible from
    /// the observability event stream alone: the per-class histogram sums
    /// to the solver's decision statistic and the event-counted conflicts
    /// equal the solver's conflict statistic, for baseline and ZPRE alike.
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
            let t = r
                .telemetry
                .as_ref()
                .expect("telemetry row present when cfg.telemetry is set");
            assert_eq!(
                t.total_decisions(),
                r.decisions,
                "{} {} {}: histogram must sum to the decision count",
                r.task,
                r.mm,
                r.strategy
            );
            assert_eq!(
                t.obs_conflicts, r.conflicts,
                "{} {} {}: event-stream conflicts must match stats",
                r.task, r.mm, r.strategy
            );
            // LBD percentiles are monotone and present exactly when a
            // conflict was observed (every conflict has LBD >= 1).
            assert!(
                t.lbd_p50 <= t.lbd_p90 && t.lbd_p90 <= t.lbd_p99,
                "{} {} {}: LBD percentiles must be monotone",
                r.task,
                r.mm,
                r.strategy
            );
            // A level-0 terminal conflict is recorded with LBD 0 (nothing
            // is learnt), so conflicts can outnumber positive LBD samples —
            // but a positive LBD always implies a conflict happened.
            assert!(
                t.lbd_p99 == 0 || t.obs_conflicts > 0,
                "{} {} {}: positive LBD p99 without any observed conflict",
                r.task,
                r.mm,
                r.strategy
            );
            // The guide explains the histogram: ZPRE front-loads
            // interference classes, so whenever it decided anything it
            // decided at least one interference variable.
            if r.strategy == "zpre" && r.decisions > 0 && r.guided_decisions > 0 {
                assert!(
                    t.interference_decisions() > 0,
                    "{} {}: guided run recorded no interference decisions",
                    r.task,
                    r.mm
                );
            }
        }
    }
}
