//! Experiment harness: regenerates every table and figure of the paper.
//!
//! ```text
//! harness [--scale quick|full] [--budget CONFLICTS] [--seed N] [--out DIR]
//!         [--telemetry] <experiment>...
//!
//! experiments:
//!   table1     accumulated both-solved time, Sat/Unsat/All × SC/TSO/PSO
//!   table2     decisions/propagations/conflicts ratios
//!   table3     baseline vs ZPRE⁻ vs ZPRE summary
//!   fig6 fig7 fig8      per-task scatter (SC, TSO, PSO)
//!   fig9 fig10 fig11    per-subcategory totals (SC, TSO, PSO)
//!   ablation   every strategy: heuristic stack, polarity, branch conditions
//!   portfolio  strategy race: win counts, cancellation latency, agreement
//!   validate   verdict consistency against generator ground truth
//!   all        everything above
//!   probe      the 40 slowest baseline rows next to ZPRE (not in `all`)
//! ```
//!
//! Any other argument, a misspelt flag included, is a usage error: the
//! harness exits 2 with the list of experiments before running anything.
//!
//! Raw measurements are written as CSV/JSON under `--out`
//! (default `target/experiments`). With `--telemetry`, every measurement
//! carries a `zpre-obs` recorder: its trace statistics (per-phase times,
//! per-class decisions, counters, histogram percentiles, keyed as in
//! `zpre-cli trace stats`) ride in each JSON row's `telemetry` object and
//! are aggregated per (memory model, strategy) into `BENCH_TELEMETRY.json`.
//!
//! The runner is interrupt-safe: every finished measurement is appended to
//! `raw.csv` and `BENCH_ROWS.json` (one JSON object per line) and flushed
//! the moment it completes, so a run killed mid-suite leaves all finished
//! rows on disk. `raw.csv` is rewritten in deterministic job order once the
//! suite completes; `raw.json` is only written for completed runs.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::Mutex;
use zpre::Strategy;
use zpre_bench::{
    ablation, ascii, csv_row, fig_scatter, fig_subcats, json_row, mismatches, portfolio_summary,
    run_suite_portfolio_streaming, run_suite_streaming, table1, table2, table3, telemetry_summary,
    to_csv, to_json, RunConfig, TaskResult, CSV_HEADER,
};
use zpre_obs::ndjson::{self, Obj};
use zpre_obs::{Counter, Phase, VarClass};
use zpre_prog::MemoryModel;
use zpre_workloads::{suite, Scale};

const MMS: [&str; 3] = ["sc", "tso", "pso"];

/// The experiments `all` runs, in order.
const EXPERIMENTS: [&str; 12] = [
    "validate",
    "table1",
    "table2",
    "table3",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "ablation",
    "portfolio",
];

/// Streams finished rows to `raw.csv` + `BENCH_ROWS.json`, flushing after
/// every append. A write failure downgrades the sink to a warning (printed
/// once) instead of sinking the suite: the in-memory results still produce
/// every table.
struct RowSink {
    csv: Option<std::fs::File>,
    rows: Option<std::fs::File>,
}

impl RowSink {
    fn open(out_dir: &std::path::Path) -> RowSink {
        let open = |name: &str, header: Option<&str>| -> Option<std::fs::File> {
            let path = out_dir.join(name);
            match std::fs::File::create(&path) {
                Ok(mut f) => {
                    if let Some(h) = header {
                        if let Err(e) = writeln!(f, "{h}") {
                            eprintln!("warning: cannot write {}: {e}", path.display());
                            return None;
                        }
                    }
                    Some(f)
                }
                Err(e) => {
                    eprintln!("warning: cannot create {}: {e}", path.display());
                    None
                }
            }
        };
        RowSink {
            csv: open("raw.csv", Some(CSV_HEADER)),
            rows: open("BENCH_ROWS.json", None),
        }
    }

    fn push(&mut self, r: &TaskResult) {
        for (file, line, name) in [
            (&mut self.csv, csv_row(r), "raw.csv"),
            (&mut self.rows, json_row(r), "BENCH_ROWS.json"),
        ] {
            if let Some(f) = file {
                if let Err(e) = writeln!(f, "{line}").and_then(|()| f.flush()) {
                    eprintln!("warning: cannot append to {name}: {e}; partial rows stop here");
                    *file = None;
                }
            }
        }
    }
}

fn parse_num(args: &[String], i: &mut usize, flag: &str) -> u64 {
    *i += 1;
    match args.get(*i).map(|raw| (raw, raw.parse())) {
        Some((_, Ok(n))) => n,
        Some((raw, Err(_))) => {
            eprintln!("{flag}: invalid value {raw:?}");
            std::process::exit(2);
        }
        None => {
            eprintln!("{flag} requires a value");
            std::process::exit(2);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::Full;
    let mut cfg = RunConfig::default();
    let mut out_dir = PathBuf::from("target/experiments");
    let mut experiments: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                scale = match args.get(i).map(String::as_str) {
                    Some("quick") => Scale::Quick,
                    Some("full") => Scale::Full,
                    other => {
                        eprintln!("unknown scale {other:?}");
                        std::process::exit(2);
                    }
                };
            }
            "--budget" => cfg.base.max_conflicts = Some(parse_num(&args, &mut i, "--budget")),
            "--seed" => cfg.base.seed = parse_num(&args, &mut i, "--seed"),
            "--out" => {
                i += 1;
                match args.get(i) {
                    Some(dir) => out_dir = PathBuf::from(dir),
                    None => {
                        eprintln!("--out requires a value");
                        std::process::exit(2);
                    }
                }
            }
            "--telemetry" => cfg.telemetry = true,
            exp => experiments.push(exp.to_string()),
        }
        i += 1;
    }
    let known = |e: &String| EXPERIMENTS.contains(&e.as_str()) || e == "probe" || e == "all";
    let unknown: Vec<&String> = experiments.iter().filter(|e| !known(e)).collect();
    if experiments.is_empty() || !unknown.is_empty() {
        if !unknown.is_empty() {
            eprintln!("unknown experiment or flag: {unknown:?}");
        }
        eprintln!("usage: harness [--scale quick|full] [--budget N] [--seed N] [--out DIR] [--telemetry] <experiment>...");
        eprintln!("experiments: {} probe all", EXPERIMENTS.join(" "));
        std::process::exit(2);
    }
    let experiments = expand_all(&experiments);

    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("cannot create output dir {}: {e}", out_dir.display());
        std::process::exit(2);
    }

    // Which strategies are needed?
    let needs_ablation = experiments.iter().any(|e| e == "ablation");
    // The ablation runs, and its table prints, every strategy.
    let strategies = if needs_ablation {
        Strategy::ALL.to_vec()
    } else if experiments.iter().any(|e| e == "table3") {
        vec![Strategy::Baseline, Strategy::Zpre, Strategy::ZpreMinus]
    } else {
        vec![Strategy::Baseline, Strategy::Zpre]
    };

    let tasks = suite(scale);
    eprintln!(
        "running {} tasks x 3 memory models x {} strategies (budget {} conflicts)...",
        tasks.len(),
        strategies.len(),
        cfg.base.max_conflicts.unwrap_or_default()
    );
    let t0 = std::time::Instant::now();
    let sink = Mutex::new(RowSink::open(&out_dir));
    let mut results = run_suite_streaming(&tasks, &MemoryModel::ALL, &strategies, &cfg, |r| {
        sink.lock().unwrap().push(r)
    });
    if experiments.iter().any(|e| e == "portfolio") {
        eprintln!(
            "racing the portfolio over {} tasks x 3 memory models...",
            tasks.len()
        );
        results.extend(run_suite_portfolio_streaming(
            &tasks,
            &MemoryModel::ALL,
            &cfg,
            |r| sink.lock().unwrap().push(r),
        ));
    }
    drop(sink);
    eprintln!("suite finished in {:.1}s", t0.elapsed().as_secs_f64());

    // The streamed raw.csv is in completion order; rewrite it in
    // deterministic job order now that the suite is complete, and persist
    // the pretty JSON document (completed runs only — interrupted runs
    // fall back to the streamed BENCH_ROWS.json prefix).
    if let Err(e) = std::fs::write(out_dir.join("raw.csv"), to_csv(&results)) {
        eprintln!("warning: cannot rewrite raw.csv: {e}");
    }
    if let Err(e) = std::fs::write(out_dir.join("raw.json"), to_json(&results)) {
        eprintln!("warning: cannot write raw.json: {e}");
    }
    if cfg.telemetry {
        let path = out_dir.join("BENCH_TELEMETRY.json");
        if let Err(e) = std::fs::write(&path, telemetry_json_doc(&results)) {
            eprintln!("warning: cannot write {}: {e}", path.display());
        }
        println!("\n================ telemetry ================");
        print_telemetry(&results);
        println!("(aggregate: {})", path.display());
    }

    for exp in &experiments {
        println!("\n================ {exp} ================");
        match exp.as_str() {
            "validate" => print_validate(&results),
            "table1" => print_table1(&results),
            "table2" => print_table2(&results),
            "table3" => print_table3(&results),
            "fig6" => {
                print_fig_scatter(&results, "sc", "Figure 6: ZPRE vs baseline in SC", &out_dir)
            }
            "fig7" => print_fig_scatter(
                &results,
                "tso",
                "Figure 7: ZPRE vs baseline in TSO",
                &out_dir,
            ),
            "fig8" => print_fig_scatter(
                &results,
                "pso",
                "Figure 8: ZPRE vs baseline in PSO",
                &out_dir,
            ),
            "fig9" => print_fig_subcats(&results, "sc", "Figure 9: subcategory time in SC"),
            "fig10" => print_fig_subcats(&results, "tso", "Figure 10: subcategory time in TSO"),
            "fig11" => print_fig_subcats(&results, "pso", "Figure 11: subcategory time in PSO"),
            "ablation" => print_ablation(&results),
            "portfolio" => print_portfolio(&results),
            "probe" => print_probe(&results),
            other => unreachable!("experiment {other:?} passed the name check"),
        }
    }
}

/// Per-(mm, strategy) trace statistics as a standalone JSON document, one
/// object per group with the rows' shape: `{"mm", "strategy", "rows",
/// "telemetry": {...}}`.
fn telemetry_json_doc(results: &[TaskResult]) -> String {
    let groups = telemetry_summary(results)
        .into_iter()
        .map(|((mm, st), (rows, stats))| {
            Obj::new()
                .field("mm", mm)
                .field("strategy", st)
                .field("rows", rows)
                .field("telemetry", stats)
                .finish()
        });
    ndjson::lines_array(groups, "  ")
}

/// The telemetry table's columns: phase times, decisions per class, the
/// interference share, then the EOG cycle-check and share-pool counters.
fn telemetry_columns() -> Vec<String> {
    let phases = [Phase::Encode, Phase::Blast, Phase::Solve];
    let phases = phases.map(|p| format!("phase_{}_us", p.name()));
    let classes = VarClass::ALL.map(|c| format!("dec_{}", c.name()));
    let counters = [
        Counter::CycleChecks,
        Counter::CycleAcceptedO1,
        Counter::CycleVisited,
        Counter::CyclePromoted,
        Counter::ShExported,
        Counter::ShImported,
        Counter::ShImportHits,
    ];
    let counters = counters.map(|c| c.name().to_string());
    let share = ["h1_share_pm".to_string()];
    phases
        .into_iter()
        .chain(classes)
        .chain(share)
        .chain(counters)
        .collect()
}

fn print_telemetry(results: &[TaskResult]) {
    let columns = telemetry_columns();
    let mut header = format!("{:<5} {:<15}", "MM", "strategy");
    for c in &columns {
        header.push_str(&format!(" {c:>10}"));
    }
    println!("{header}");
    for ((mm, strategy), (_, stats)) in telemetry_summary(results) {
        let mut line = format!("{:<5} {strategy:<15}", mm.to_uppercase());
        for c in &columns {
            line.push_str(&format!(" {:>w$}", stats.get(c), w = c.len().max(10)));
        }
        println!("{line}");
    }
}

/// Slowest tasks by baseline time, with the ZPRE comparison.
fn print_probe(results: &[TaskResult]) {
    let mut rows: Vec<&TaskResult> = results
        .iter()
        .filter(|r| r.strategy == "baseline")
        .collect();
    rows.sort_by(|a, b| b.solve_ms.partial_cmp(&a.solve_ms).unwrap());
    println!(
        "{:<34} {:>4} {:>10} {:>10} {:>8} {:>9}",
        "task", "mm", "base(ms)", "zpre(ms)", "verdict", "conflicts"
    );
    for r in rows.iter().take(40) {
        let z = results
            .iter()
            .find(|x| x.task == r.task && x.mm == r.mm && x.strategy == "zpre");
        println!(
            "{:<34} {:>4} {:>10.1} {:>10.1} {:>8} {:>9}",
            r.task,
            r.mm,
            r.solve_ms,
            z.map_or(f64::NAN, |x| x.solve_ms),
            r.verdict,
            r.conflicts
        );
    }
}

fn print_validate(results: &[TaskResult]) {
    let bad = mismatches(results);
    let mut counts: BTreeMap<(&str, &str), usize> = BTreeMap::new();
    for r in results {
        *counts
            .entry((r.mm.as_str(), r.verdict.as_str()))
            .or_default() += 1;
    }
    println!("verdict counts per memory model:");
    for ((mm, verdict), n) in &counts {
        println!("  {mm:>4} {verdict:>8}: {n}");
    }
    if bad.is_empty() {
        println!("ground-truth check: all verdicts consistent");
    } else {
        println!("ground-truth check: {} MISMATCHES:", bad.len());
        for r in bad {
            println!("  {} {} {} -> {}", r.task, r.mm, r.strategy, r.verdict);
        }
    }
}

/// The whole suite, then the seeded `stress` family alone and every other
/// family, each labelled by the suffix its table rows carry.
fn stress_split(results: &[TaskResult]) -> [(&'static str, Vec<TaskResult>); 3] {
    let (stress, other) = results.iter().cloned().partition(|r| r.subcat == "stress");
    [
        ("", results.to_vec()),
        ("/stress", stress),
        ("/other", other),
    ]
}

fn print_table1(results: &[TaskResult]) {
    println!("Table 1. Overall results: baseline vs ZPRE (both-solved accumulated time)");
    println!(
        "{:<10} {:>22} {:>22} {:>22}",
        "MM", "Sat (base/zpre, x)", "Unsat (base/zpre, x)", "All (base/zpre, x)"
    );
    for (suffix, part) in stress_split(results) {
        for row in table1(&part, &MMS) {
            let (s, u, a) = row.speedups();
            println!(
                "{:<10} {:>9.2}/{:<6.2} {:>4.2}x {:>9.2}/{:<6.2} {:>4.2}x {:>9.2}/{:<6.2} {:>4.2}x",
                format!("{}{suffix}", row.mm.to_uppercase()),
                row.sat_base_s,
                row.sat_zpre_s,
                s,
                row.unsat_base_s,
                row.unsat_zpre_s,
                u,
                row.all_base_s,
                row.all_zpre_s,
                a
            );
        }
    }
}

fn print_table2(results: &[TaskResult]) {
    println!("Table 2. Decisions / propagations / conflicts: baseline vs ZPRE");
    println!(
        "{:<10} {:>26} {:>26} {:>26}",
        "MM", "Decisions (b/z, x)", "Propagations (b/z, x)", "Conflicts (b/z, x)"
    );
    for (suffix, part) in stress_split(results) {
        for row in table2(&part, &MMS) {
            let (d, p, c) = row.ratios();
            println!(
                "{:<10} {:>10}/{:<10} {:>4.2}x {:>10}/{:<10} {:>4.2}x {:>9}/{:<9} {:>4.2}x",
                format!("{}{suffix}", row.mm.to_uppercase()),
                row.decisions_base,
                row.decisions_zpre,
                d,
                row.propagations_base,
                row.propagations_zpre,
                p,
                row.conflicts_base,
                row.conflicts_zpre,
                c
            );
        }
    }
}

fn print_table3(results: &[TaskResult]) {
    println!("Table 3. Summary: baseline vs ZPRE- vs ZPRE");
    println!(
        "{:<5} {:>6} {:>7} {:>6} {:>6} | {:>20} | {:>22} | {:>22}",
        "MM", "files", "solved", "true", "false", "baseline TO/s", "zpre- TO/s/x", "zpre TO/s/x"
    );
    for row in table3(results, &MMS) {
        let s = &row.strategies;
        println!(
            "{:<5} {:>6} {:>7} {:>6} {:>6} | {:>8} {:>10.2}s | {:>4} {:>8.2}s {:>5.2}x | {:>4} {:>8.2}s {:>5.2}x",
            row.mm.to_uppercase(),
            row.files,
            row.both_solved,
            row.true_count,
            row.false_count,
            s[0].timeouts,
            s[0].cpu_s,
            s[1].timeouts,
            s[1].cpu_s,
            s[1].speedup,
            s[2].timeouts,
            s[2].cpu_s,
            s[2].speedup,
        );
    }
}

fn print_fig_scatter(results: &[TaskResult], mm: &str, title: &str, out_dir: &std::path::Path) {
    let pts = fig_scatter(results, mm);
    let csv_name = format!("fig_scatter_{mm}.csv");
    let mut csv = String::from("task,baseline_ms,zpre_ms\n");
    for (t, b, z) in &pts {
        csv.push_str(&format!("{t},{b:.3},{z:.3}\n"));
    }
    if let Err(e) = std::fs::write(out_dir.join(&csv_name), csv) {
        eprintln!("warning: cannot write {csv_name}: {e}");
    }
    println!("{}", ascii::scatter(&pts, title));
    println!("(raw data: {csv_name})");
}

fn print_fig_subcats(results: &[TaskResult], mm: &str, title: &str) {
    let rows = fig_subcats(results, mm);
    println!("{}", ascii::subcat_bars(&rows, title));
}

fn print_portfolio(results: &[TaskResult]) {
    let s = portfolio_summary(results);
    println!("Portfolio race over {} (task, memory model) pairs", s.rows);
    println!("  decided: {} ({} unknown)", s.decided, s.rows - s.decided);
    println!("  wins per member:");
    for (name, n) in &s.wins {
        println!("    {name:<16} {n}");
    }
    match (s.mean_cancel_latency_ms, s.max_cancel_latency_ms) {
        (Some(mean), Some(max)) => {
            println!("  cancellation latency: mean {mean:.2} ms, max {max:.2} ms");
        }
        _ => println!("  cancellation latency: no losers were cancelled"),
    }
    // Agreement: every decided portfolio verdict must match single-strategy
    // ZPRE on the same (task, mm) when ZPRE is decided too.
    let mut checked = 0usize;
    let mut disagreements = 0usize;
    for p in results
        .iter()
        .filter(|r| r.strategy == "portfolio" && r.solved())
    {
        if let Some(z) = results
            .iter()
            .find(|r| r.strategy == "zpre" && r.task == p.task && r.mm == p.mm && r.solved())
        {
            checked += 1;
            if z.verdict != p.verdict {
                disagreements += 1;
                println!(
                    "  DISAGREEMENT {} {}: portfolio={} zpre={}",
                    p.task, p.mm, p.verdict, z.verdict
                );
            }
        }
    }
    println!(
        "  agreement with zpre: {}/{} checked pairs",
        checked - disagreements,
        checked
    );
}

fn print_ablation(results: &[TaskResult]) {
    let strategies = Strategy::ALL.map(Strategy::name);
    for mm in MMS {
        println!("Ablation under {}:", mm.to_uppercase());
        println!(
            "{:<18} {:>12} {:>5} {:>7}",
            "strategy", "common(s)", "TO", "solved"
        );
        for (s, total, to, solved) in ablation(results, mm, &strategies) {
            println!("{s:<18} {total:>12.3} {to:>5} {solved:>7}");
        }
        println!();
    }
}

/// Expands each `all` in place into every experiment it names and drops
/// repeats, keeping first occurrences: `all probe` runs the whole set and
/// then `probe`, which `all` does not include.
fn expand_all(experiments: &[String]) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    for e in experiments {
        let names = if e == "all" {
            EXPERIMENTS.to_vec()
        } else {
            vec![e.as_str()]
        };
        for name in names {
            if !out.iter().any(|o| o == name) {
                out.push(name.to_string());
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(args: &[&str]) -> Vec<String> {
        expand_all(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn all_probe_keeps_probe() {
        let got = names(&["all", "probe"]);
        assert_eq!(got.len(), EXPERIMENTS.len() + 1);
        assert_eq!(got[..EXPERIMENTS.len()], EXPERIMENTS.map(String::from));
        assert_eq!(got.last().map(String::as_str), Some("probe"));
    }

    #[test]
    fn repeats_run_once_in_first_order() {
        let got = names(&["probe", EXPERIMENTS[1], "all", "probe"]);
        assert_eq!(got[0], "probe");
        assert_eq!(got[1], EXPERIMENTS[1]);
        assert_eq!(got.len(), EXPERIMENTS.len() + 1);
    }
}
