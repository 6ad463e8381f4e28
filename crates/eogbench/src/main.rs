//! `eog-bench` — command-line driver for the EOG engine microbenchmarks.
//!
//! ```text
//! eog-bench [--quick] [--tag NAME] [--out PATH]
//! ```
//!
//! Plays every synthetic shape (chain / grid / random-DAG / near-cycle) at
//! 10²–10⁴ nodes through the engine in both modes (incremental vs forced
//! full DFS), prints a comparison table, and appends one NDJSON line per
//! measurement to `BENCH_EOG.json` so the perf trajectory accumulates
//! across commits.
//!
//! The end-to-end counterpart, the stress and wmm families solved under
//! `zpre` vs the `zpre-dfs-check` ablation with their visited-nodes ratio,
//! is `ab-bench eog`.

use std::fs::OpenOptions;
use std::io::Write as _;

use zpre_eog_bench::{run_scenario, sizes, Shape};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let tag = flag_value(&args, "--tag")
        .unwrap_or_else(|| if quick { "quick" } else { "full" }.to_string());
    let out_path = flag_value(&args, "--out").unwrap_or_else(|| "BENCH_EOG.json".to_string());

    let mut lines = Vec::new();

    println!(
        "{:<12} {:>7} {:<12} {:>10} {:>10} {:>12} {:>10} {:>8}",
        "shape", "nodes", "mode", "wall(ms)", "checks", "visited", "promoted", "o1%"
    );
    for shape in Shape::ALL {
        for &n in sizes(quick) {
            for full_dfs in [false, true] {
                let r = run_scenario(shape, n, 0xE06, full_dfs);
                let o1 = if r.stats.checks > 0 {
                    100.0 * r.stats.accepted_o1 as f64 / r.stats.checks as f64
                } else {
                    0.0
                };
                println!(
                    "{:<12} {:>7} {:<12} {:>10.3} {:>10} {:>12} {:>10} {:>7.1}%",
                    r.shape,
                    r.nodes,
                    r.mode,
                    r.wall_ms,
                    r.stats.checks,
                    r.stats.visited,
                    r.stats.promoted,
                    o1
                );
                lines.push(r.json_line(&tag));
            }
        }
    }

    let mut f = OpenOptions::new()
        .create(true)
        .append(true)
        .open(&out_path)
        .expect("open BENCH_EOG.json for append");
    for l in &lines {
        writeln!(f, "{l}").expect("append bench line");
    }
    println!("appended {} lines to {out_path}", lines.len());
}

fn flag_value(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}
