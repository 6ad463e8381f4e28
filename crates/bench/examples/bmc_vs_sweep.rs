//! Repeated A/B of the two ways to check bounds `1..=K`: the per-bound loop
//! (`zpre::verify_bmc`, a fresh instance per bound, `zpre-cli --bmc K`)
//! against the incremental sweep (`zpre::try_verify_sweep`, one solver
//! over assumption frames, `zpre-cli --incremental --max-bound K`).
//!
//! Rows are the Full suite's loop tasks under SC, TSO and PSO, ZPRE, up to
//! the horizon `K`. Each of `--reps` repetitions times every row once per
//! side, alternating which side goes first, and checks that both sides
//! report the same verdict at the same bound. The per-row figure
//! is the median over the repetitions. The summary splits the rows into
//! those whose bug is at bound 1 and all others.
//!
//! ```text
//! cargo run --release -p zpre-bench --example bmc_vs_sweep -- [--reps N] [--horizon K]
//! ```

use std::time::Instant;
use zpre::{try_verify_sweep, verify_bmc, Strategy, Verdict, VerifyOptions};
use zpre_prog::MemoryModel;
use zpre_workloads::{suite, Scale};

fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str, default: u32| -> u32 {
        args.iter()
            .position(|a| a == name)
            .map(|i| args[i + 1].parse().expect("a number"))
            .unwrap_or(default)
    };
    let (reps, horizon) = (flag("--reps", 11), flag("--horizon", 6));

    let tasks: Vec<_> = suite(Scale::Full)
        .into_iter()
        .filter(|t| t.program.has_loops())
        .collect();
    struct Row {
        id: String,
        verdict: Verdict,
        bound: u32,
        bmc_ms: Vec<f64>,
        sweep_ms: Vec<f64>,
    }
    let mut rows: Vec<Row> = Vec::new();
    for t in &tasks {
        for mm in MemoryModel::ALL {
            rows.push(Row {
                id: format!("{}@{}", t.name, mm.name()),
                verdict: Verdict::Unknown,
                bound: 0,
                bmc_ms: Vec::new(),
                sweep_ms: Vec::new(),
            });
        }
    }
    for rep in 0..reps {
        let mut row = rows.iter_mut();
        for t in &tasks {
            for mm in MemoryModel::ALL {
                let r = row.next().expect("one row per task and model");
                let opts = VerifyOptions {
                    max_bound: horizon,
                    ..VerifyOptions::new(mm, Strategy::Zpre)
                };
                let time_bmc = || {
                    let t0 = Instant::now();
                    let out = verify_bmc(&t.program, horizon, &opts).expect("bmc");
                    (t0.elapsed().as_secs_f64() * 1e3, out.verdict, out.bound)
                };
                let time_sweep = || {
                    let t0 = Instant::now();
                    let out = try_verify_sweep(&t.program, &opts).expect("sweep");
                    (t0.elapsed().as_secs_f64() * 1e3, out.verdict, out.bound)
                };
                let (b, s) = if rep % 2 == 0 {
                    let b = time_bmc();
                    (b, time_sweep())
                } else {
                    let s = time_sweep();
                    (time_bmc(), s)
                };
                assert_eq!((b.1, b.2), (s.1, s.2), "{}: bmc and sweep disagree", r.id);
                (r.verdict, r.bound) = (b.1, b.2);
                r.bmc_ms.push(b.0);
                r.sweep_ms.push(s.0);
            }
        }
    }

    println!("| row | verdict | bound | bmc ms | sweep ms | bmc/sweep |");
    println!("|---|---|---:|---:|---:|---:|");
    // (rows, bmc, sweep, rows where the per-bound loop was faster)
    let mut split = [(0usize, 0.0f64, 0.0f64, 0usize); 2];
    for r in &mut rows {
        let (b, s) = (median(&mut r.bmc_ms), median(&mut r.sweep_ms));
        println!(
            "| {} | {} | {} | {b:.3} | {s:.3} | {:.2} |",
            r.id,
            r.verdict,
            r.bound,
            b / s
        );
        let shallow = r.verdict == Verdict::Unsafe && r.bound == 1;
        let g = &mut split[usize::from(!shallow)];
        *g = (g.0 + 1, g.1 + b, g.2 + s, g.3 + usize::from(b < s));
    }
    println!();
    println!("| rows | n | bmc ms (sum of medians) | sweep ms | sweep speedup | bmc faster on |");
    println!("|---|---:|---:|---:|---:|---:|");
    let all = (
        split[0].0 + split[1].0,
        split[0].1 + split[1].1,
        split[0].2 + split[1].2,
        split[0].3 + split[1].3,
    );
    for (name, (n, b, s, wins)) in [
        ("bug at bound 1", split[0]),
        ("all others", split[1]),
        ("all", all),
    ] {
        println!(
            "| {name} | {n} | {b:.1} | {s:.1} | {:.2}x | {wins}/{n} |",
            b / s
        );
    }
    println!("\n{reps} alternating repetitions, horizon {horizon}, ZPRE");
}
