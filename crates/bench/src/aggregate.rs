//! Aggregation of raw measurements into the paper's tables and figures.
//!
//! Conventions follow §5 of the paper: comparisons accumulate CPU time over
//! the *both-solved* instances (solved within budget by every compared
//! strategy); `sat` corresponds to property violations ("false" tasks),
//! `unsat` to proofs ("true" tasks); a `TO` is a budget exhaustion.

use crate::runner::TaskResult;
use std::collections::{BTreeMap, BTreeSet};
use zpre_obs::analyze::TraceStats;

/// Per-(memory model, strategy) telemetry over every row that carried a
/// recorder snapshot: the row count and the snapshots flattened by
/// [`TraceStats::from_snapshots`] (counters summed, histograms merged, so
/// the group's percentiles are those of all its observations). This is the
/// source of `BENCH_TELEMETRY.json`; keys order by memory model, then
/// strategy.
pub fn telemetry_summary(results: &[TaskResult]) -> BTreeMap<(&str, &str), (usize, TraceStats)> {
    let mut groups: BTreeMap<(&str, &str), Vec<_>> = BTreeMap::new();
    for r in results {
        if let Some(snap) = &r.telemetry {
            let key = (r.mm.as_str(), r.strategy.as_str());
            groups.entry(key).or_default().push(snap);
        }
    }
    let flatten =
        |(key, snaps): (_, Vec<_>)| (key, (snaps.len(), TraceStats::from_snapshots(snaps)));
    groups.into_iter().map(flatten).collect()
}

fn by_strategy<'a>(
    results: &'a [TaskResult],
    mm: &str,
    strategy: &str,
) -> BTreeMap<&'a str, &'a TaskResult> {
    results
        .iter()
        .filter(|r| r.mm == mm && r.strategy == strategy)
        .map(|r| (r.task.as_str(), r))
        .collect()
}

/// Tasks solved by every strategy in `strategies` under `mm`.
pub fn both_solved<'a>(
    results: &'a [TaskResult],
    mm: &str,
    strategies: &[&str],
) -> BTreeSet<&'a str> {
    let maps: Vec<_> = strategies
        .iter()
        .map(|s| by_strategy(results, mm, s))
        .collect();
    let mut tasks: BTreeSet<&str> = results
        .iter()
        .filter(|r| r.mm == mm)
        .map(|r| r.task.as_str())
        .collect();
    tasks.retain(|t| maps.iter().all(|m| m.get(t).is_some_and(|r| r.solved())));
    tasks
}

/// One row of Table 1: accumulated both-solved CPU time split by verdict.
#[derive(Debug, Clone, Default)]
pub struct Table1Row {
    /// Memory model.
    pub mm: String,
    /// Baseline seconds on satisfiable (unsafe) tasks.
    pub sat_base_s: f64,
    /// ZPRE seconds on satisfiable tasks.
    pub sat_zpre_s: f64,
    /// Baseline seconds on unsatisfiable (safe) tasks.
    pub unsat_base_s: f64,
    /// ZPRE seconds on unsatisfiable tasks.
    pub unsat_zpre_s: f64,
    /// Baseline seconds over all both-solved tasks.
    pub all_base_s: f64,
    /// ZPRE seconds over all both-solved tasks.
    pub all_zpre_s: f64,
}

impl Table1Row {
    /// Speedups `(sat, unsat, all)`.
    pub fn speedups(&self) -> (f64, f64, f64) {
        (
            ratio(self.sat_base_s, self.sat_zpre_s),
            ratio(self.unsat_base_s, self.unsat_zpre_s),
            ratio(self.all_base_s, self.all_zpre_s),
        )
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        f64::NAN
    }
}

/// Table 1: baseline vs ZPRE accumulated time per memory model.
pub fn table1(results: &[TaskResult], mms: &[&str]) -> Vec<Table1Row> {
    mms.iter()
        .map(|&mm| {
            let solved = both_solved(results, mm, &["baseline", "zpre"]);
            let base = by_strategy(results, mm, "baseline");
            let zpre = by_strategy(results, mm, "zpre");
            let mut row = Table1Row {
                mm: mm.to_string(),
                ..Table1Row::default()
            };
            for t in solved {
                let (b, z) = (base[t], zpre[t]);
                let (bs, zs) = (b.solve_ms / 1e3, z.solve_ms / 1e3);
                if b.verdict == "unsafe" {
                    row.sat_base_s += bs;
                    row.sat_zpre_s += zs;
                } else {
                    row.unsat_base_s += bs;
                    row.unsat_zpre_s += zs;
                }
                row.all_base_s += bs;
                row.all_zpre_s += zs;
            }
            row
        })
        .collect()
}

/// One row of Table 2: search-procedure statistics.
#[derive(Debug, Clone, Default)]
pub struct Table2Row {
    /// Memory model.
    pub mm: String,
    /// Baseline decisions on both-solved tasks.
    pub decisions_base: u64,
    /// ZPRE decisions.
    pub decisions_zpre: u64,
    /// Baseline propagations.
    pub propagations_base: u64,
    /// ZPRE propagations.
    pub propagations_zpre: u64,
    /// Baseline conflicts.
    pub conflicts_base: u64,
    /// ZPRE conflicts.
    pub conflicts_zpre: u64,
}

impl Table2Row {
    /// Ratios `(decisions, propagations, conflicts)` of baseline over ZPRE.
    pub fn ratios(&self) -> (f64, f64, f64) {
        (
            ratio(self.decisions_base as f64, self.decisions_zpre as f64),
            ratio(self.propagations_base as f64, self.propagations_zpre as f64),
            ratio(self.conflicts_base as f64, self.conflicts_zpre as f64),
        )
    }
}

/// Table 2: decisions / propagations / conflicts per memory model.
pub fn table2(results: &[TaskResult], mms: &[&str]) -> Vec<Table2Row> {
    mms.iter()
        .map(|&mm| {
            let solved = both_solved(results, mm, &["baseline", "zpre"]);
            let base = by_strategy(results, mm, "baseline");
            let zpre = by_strategy(results, mm, "zpre");
            let mut row = Table2Row {
                mm: mm.to_string(),
                ..Table2Row::default()
            };
            for t in solved {
                row.decisions_base += base[t].decisions;
                row.decisions_zpre += zpre[t].decisions;
                row.propagations_base += base[t].propagations;
                row.propagations_zpre += zpre[t].propagations;
                row.conflicts_base += base[t].conflicts;
                row.conflicts_zpre += zpre[t].conflicts;
            }
            row
        })
        .collect()
}

/// One strategy's column block in Table 3.
#[derive(Debug, Clone)]
pub struct Table3Strategy {
    /// Strategy name.
    pub strategy: String,
    /// Timeouts (budget exhaustions) over all tasks of the memory model.
    pub timeouts: usize,
    /// Accumulated seconds on the three-way both-solved set.
    pub cpu_s: f64,
    /// Speedup of this strategy over the baseline on that set.
    pub speedup: f64,
}

/// One row of Table 3.
#[derive(Debug, Clone)]
pub struct Table3Row {
    /// Memory model.
    pub mm: String,
    /// Total tasks (the paper's "SMT files").
    pub files: usize,
    /// Tasks solved by all three strategies.
    pub both_solved: usize,
    /// Safe (unsat, "true") verdicts among both-solved.
    pub true_count: usize,
    /// Unsafe (sat, "false") verdicts among both-solved.
    pub false_count: usize,
    /// Per-strategy blocks: baseline, zpre-, zpre.
    pub strategies: Vec<Table3Strategy>,
}

/// Table 3: three-way comparison (baseline vs ZPRE⁻ vs ZPRE).
pub fn table3(results: &[TaskResult], mms: &[&str]) -> Vec<Table3Row> {
    let names = ["baseline", "zpre-", "zpre"];
    mms.iter()
        .map(|&mm| {
            let solved = both_solved(results, mm, &names);
            let maps: Vec<_> = names.iter().map(|s| by_strategy(results, mm, s)).collect();
            let files = maps[0].len();
            let true_count = solved
                .iter()
                .filter(|t| maps[0][**t].verdict == "safe")
                .count();
            let false_count = solved.len() - true_count;
            let base_s: f64 = solved.iter().map(|t| maps[0][*t].solve_ms / 1e3).sum();
            let strategies = names
                .iter()
                .enumerate()
                .map(|(i, s)| {
                    let cpu_s: f64 = solved.iter().map(|t| maps[i][*t].solve_ms / 1e3).sum();
                    Table3Strategy {
                        strategy: s.to_string(),
                        timeouts: maps[i].values().filter(|r| !r.solved()).count(),
                        cpu_s,
                        speedup: ratio(base_s, cpu_s),
                    }
                })
                .collect();
            Table3Row {
                mm: mm.to_string(),
                files,
                both_solved: solved.len(),
                true_count,
                false_count,
                strategies,
            }
        })
        .collect()
}

/// Scatter data for Figures 6–8: `(task, baseline_ms, zpre_ms)`.
pub fn fig_scatter(results: &[TaskResult], mm: &str) -> Vec<(String, f64, f64)> {
    let base = by_strategy(results, mm, "baseline");
    let zpre = by_strategy(results, mm, "zpre");
    let mut out = Vec::new();
    for (t, b) in &base {
        if let Some(z) = zpre.get(t) {
            out.push((t.to_string(), b.solve_ms, z.solve_ms));
        }
    }
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}

/// Per-subcategory totals for Figures 9–11:
/// `(subcat, baseline_s, zpre_s, speedup)`, both-solved only.
pub fn fig_subcats(results: &[TaskResult], mm: &str) -> Vec<(String, f64, f64, f64)> {
    let solved = both_solved(results, mm, &["baseline", "zpre"]);
    let base = by_strategy(results, mm, "baseline");
    let zpre = by_strategy(results, mm, "zpre");
    let mut per: BTreeMap<String, (f64, f64)> = BTreeMap::new();
    for t in solved {
        let entry = per.entry(base[t].subcat.clone()).or_insert((0.0, 0.0));
        entry.0 += base[t].solve_ms / 1e3;
        entry.1 += zpre[t].solve_ms / 1e3;
    }
    crate::runner::subcat_order()
        .into_iter()
        .filter_map(|s| per.get(s).map(|&(b, z)| (s.to_string(), b, z, ratio(b, z))))
        .collect()
}

/// Ablation summary: `(strategy, total_s_on_common, timeouts, solved)`.
pub fn ablation(
    results: &[TaskResult],
    mm: &str,
    strategies: &[&str],
) -> Vec<(String, f64, usize, usize)> {
    let solved = both_solved(results, mm, strategies);
    strategies
        .iter()
        .map(|&s| {
            let m = by_strategy(results, mm, s);
            let total: f64 = solved.iter().map(|t| m[*t].solve_ms / 1e3).sum();
            let timeouts = m.values().filter(|r| !r.solved()).count();
            let n_solved = m.values().filter(|r| r.solved()).count();
            (s.to_string(), total, timeouts, n_solved)
        })
        .collect()
}

/// Verdict-consistency report: tasks whose verdict disagrees with the
/// generator's ground truth (must be empty for a sound pipeline).
pub fn mismatches(results: &[TaskResult]) -> Vec<&TaskResult> {
    results.iter().filter(|r| !r.expected_ok).collect()
}

/// Summary of a portfolio run: per-strategy win counts and cancellation
/// latencies across all `strategy == "portfolio"` rows.
#[derive(Debug, Clone)]
pub struct PortfolioSummary {
    /// Portfolio rows considered.
    pub rows: usize,
    /// Rows with a definitive verdict (a winner exists).
    pub decided: usize,
    /// Win count per member name, descending by count then by name.
    pub wins: Vec<(String, usize)>,
    /// Mean cancellation latency in milliseconds over rows that cancelled
    /// losers (`None` when no row did).
    pub mean_cancel_latency_ms: Option<f64>,
    /// Maximum cancellation latency in milliseconds.
    pub max_cancel_latency_ms: Option<f64>,
}

/// Aggregates all portfolio rows into a [`PortfolioSummary`].
pub fn portfolio_summary(results: &[TaskResult]) -> PortfolioSummary {
    let rows: Vec<&TaskResult> = results
        .iter()
        .filter(|r| r.strategy == "portfolio")
        .collect();
    let mut counts: BTreeMap<&str, usize> = BTreeMap::new();
    for r in &rows {
        if let Some(w) = &r.winner {
            *counts.entry(w.as_str()).or_insert(0) += 1;
        }
    }
    let decided = counts.values().sum();
    let mut wins: Vec<(String, usize)> = counts
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
    wins.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    let latencies: Vec<f64> = rows.iter().filter_map(|r| r.cancel_latency_ms).collect();
    let (mean, max) = if latencies.is_empty() {
        (None, None)
    } else {
        (
            Some(latencies.iter().sum::<f64>() / latencies.len() as f64),
            latencies
                .iter()
                .cloned()
                .fold(None, |m: Option<f64>, l| Some(m.map_or(l, |m| m.max(l)))),
        )
    };
    PortfolioSummary {
        rows: rows.len(),
        decided,
        wins,
        mean_cancel_latency_ms: mean,
        max_cancel_latency_ms: max,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zpre_obs::{Counter, Hist, Phase, SpanRecord, TraceSnapshot};

    fn mk(task: &str, mm: &str, strategy: &str, verdict: &str, ms: f64) -> TaskResult {
        TaskResult {
            task: task.into(),
            subcat: "wmm".into(),
            mm: mm.into(),
            strategy: strategy.into(),
            verdict: verdict.into(),
            solve_ms: ms,
            encode_ms: 0.0,
            decisions: 10,
            propagations: 100,
            conflicts: 5,
            guided_decisions: 0,
            expected_ok: true,
            winner: None,
            cancel_latency_ms: None,
            certified: None,
            quarantined: None,
            telemetry: None,
        }
    }

    #[test]
    fn both_solved_excludes_timeouts() {
        let rs = vec![
            mk("a", "sc", "baseline", "safe", 1.0),
            mk("a", "sc", "zpre", "safe", 1.0),
            mk("b", "sc", "baseline", "unknown", 1.0),
            mk("b", "sc", "zpre", "safe", 1.0),
        ];
        let s = both_solved(&rs, "sc", &["baseline", "zpre"]);
        assert!(s.contains("a"));
        assert!(!s.contains("b"));
    }

    #[test]
    fn table1_accumulates_by_verdict() {
        let rs = vec![
            mk("a", "sc", "baseline", "safe", 2000.0),
            mk("a", "sc", "zpre", "safe", 1000.0),
            mk("b", "sc", "baseline", "unsafe", 3000.0),
            mk("b", "sc", "zpre", "unsafe", 1000.0),
        ];
        let t = table1(&rs, &["sc"]);
        assert_eq!(t.len(), 1);
        let row = &t[0];
        assert!((row.unsat_base_s - 2.0).abs() < 1e-9);
        assert!((row.sat_base_s - 3.0).abs() < 1e-9);
        let (sat, unsat, all) = row.speedups();
        assert!((sat - 3.0).abs() < 1e-9);
        assert!((unsat - 2.0).abs() < 1e-9);
        assert!((all - 2.5).abs() < 1e-9);
    }

    #[test]
    fn table3_counts_true_false_and_timeouts() {
        let rs = vec![
            mk("a", "sc", "baseline", "safe", 1.0),
            mk("a", "sc", "zpre-", "safe", 1.0),
            mk("a", "sc", "zpre", "safe", 1.0),
            mk("b", "sc", "baseline", "unsafe", 1.0),
            mk("b", "sc", "zpre-", "unsafe", 1.0),
            mk("b", "sc", "zpre", "unsafe", 1.0),
            mk("c", "sc", "baseline", "unknown", 1.0),
            mk("c", "sc", "zpre-", "safe", 1.0),
            mk("c", "sc", "zpre", "safe", 1.0),
        ];
        let t = table3(&rs, &["sc"]);
        let row = &t[0];
        assert_eq!(row.files, 3);
        assert_eq!(row.both_solved, 2);
        assert_eq!(row.true_count, 1);
        assert_eq!(row.false_count, 1);
        assert_eq!(row.strategies[0].timeouts, 1);
        assert_eq!(row.strategies[2].timeouts, 0);
    }

    #[test]
    fn scatter_pairs_tasks() {
        let rs = vec![
            mk("a", "sc", "baseline", "safe", 5.0),
            mk("a", "sc", "zpre", "safe", 2.0),
        ];
        let pts = fig_scatter(&rs, "sc");
        assert_eq!(pts, vec![("a".to_string(), 5.0, 2.0)]);
    }

    #[test]
    fn portfolio_summary_counts_wins_and_latency() {
        let mut a = mk("a", "sc", "portfolio", "safe", 1.0);
        a.winner = Some("zpre".into());
        a.cancel_latency_ms = Some(2.0);
        let mut b = mk("b", "sc", "portfolio", "unsafe", 1.0);
        b.winner = Some("zpre".into());
        b.cancel_latency_ms = Some(6.0);
        let mut c = mk("c", "sc", "portfolio", "safe", 1.0);
        c.winner = Some("baseline".into());
        let d = mk("d", "sc", "portfolio", "unknown", 1.0);
        let other = mk("a", "sc", "zpre", "safe", 1.0);
        let s = portfolio_summary(&[a, b, c, d, other]);
        assert_eq!(s.rows, 4);
        assert_eq!(s.decided, 3);
        assert_eq!(
            s.wins,
            vec![("zpre".to_string(), 2), ("baseline".to_string(), 1)]
        );
        assert!((s.mean_cancel_latency_ms.unwrap() - 4.0).abs() < 1e-9);
        assert!((s.max_cancel_latency_ms.unwrap() - 6.0).abs() < 1e-9);
    }

    /// A snapshot with one top-level solve span, the given decisions per
    /// class (`rf_ext`, `rf_int`, `ws`, `other`), counters and LBDs.
    fn snapshot(
        solve_us: u64,
        decisions: [u64; 4],
        counters: &[(Counter, u64)],
        lbds: &[u64],
    ) -> TraceSnapshot {
        let mut snap = TraceSnapshot::default();
        snap.spans.push(SpanRecord {
            phase: Phase::Solve,
            label: None,
            member: None,
            depth: 0,
            start_us: 0,
            dur_us: solve_us,
            closed: true,
        });
        snap.counters.decisions = decisions;
        for &(c, v) in counters {
            snap.counters[c] = v;
        }
        for &lbd in lbds {
            snap.hists[Hist::ConflictLbd].observe(lbd);
        }
        snap
    }

    #[test]
    fn telemetry_summary_accumulates_per_mm_strategy() {
        use Counter::*;
        let mut a = mk("a", "sc", "zpre", "safe", 1.0);
        a.telemetry = Some(snapshot(
            2000,
            [10, 0, 4, 6],
            &[
                (Conflicts, 3),
                (CycleChecks, 8),
                (CycleAcceptedO1, 6),
                (CycleVisited, 12),
                (CyclePromoted, 2),
                (ShExported, 7),
                (ShImported, 3),
                (ShImportHits, 2),
            ],
            &[2, 3, 4],
        ));
        let mut b = mk("b", "sc", "zpre", "safe", 1.0);
        b.telemetry = Some(snapshot(
            3000,
            [5, 5, 0, 0],
            &[
                (Conflicts, 1),
                (CycleChecks, 2),
                (CycleAcceptedO1, 2),
                (ShExported, 1),
                (ShImported, 2),
                (ShImportHits, 1),
            ],
            &[9],
        ));
        let no_tele = mk("c", "sc", "baseline", "safe", 1.0);
        let results = [a, b, no_tele];
        let rows = telemetry_summary(&results);
        assert_eq!(rows.len(), 1, "rows without telemetry are skipped");
        let (&(mm, strategy), (n, t)) = rows.iter().next().unwrap();
        assert_eq!((mm, strategy), ("sc", "zpre"));
        assert_eq!(*n, 2);
        assert_eq!(t.get("phase_solve_us"), 5000);
        let dec = ["rf_ext", "rf_int", "ws", "other"].map(|c| t.get(&format!("dec_{c}")));
        assert_eq!(dec, [15, 5, 4, 6]);
        assert_eq!(t.get("conflicts"), 4);
        assert_eq!(t.get("h1_share_pm"), 800);
        let cc = ["cc_total", "cc_o1", "cc_visited", "cc_promoted"].map(|k| t.get(k));
        assert_eq!(cc, [10, 8, 12, 2]);
        assert_eq!(t.get("cc_o1") * 1000 / t.get("cc_total"), 800);
        let sh = ["sh_exported", "sh_imported", "sh_import_hits"].map(|k| t.get(k));
        assert_eq!(sh, [8, 5, 3]);
        // Percentiles come from the merged histogram of both rows.
        assert_eq!(t.get("conflict_lbd_count"), 4);
        assert_eq!(t.get("conflict_lbd_max"), 9);
    }

    #[test]
    fn mismatch_report() {
        let mut r = mk("a", "sc", "zpre", "safe", 1.0);
        r.expected_ok = false;
        let rs = vec![r];
        assert_eq!(mismatches(&rs).len(), 1);
    }
}
