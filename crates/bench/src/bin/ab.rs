//! `ab-bench` — one two-sided comparison through the `zpre_bench::ab` loop.
//!
//! ```text
//! ab-bench {sweep|bmc|share|prune} [--quick] [--tag NAME] [--out PATH]
//!          [--budget N] [--seed N] [--max-bound K] [--tolerance PCT] [--reps N]
//! ```
//!
//! The pairs, their families and gates are tabled in `zpre_bench::ab`.
//! Every row runs `--reps` times per side (default 3), alternating which
//! side goes first; both sides must agree on every row. `--quick` uses the
//! quick-scale families. Defaults: `--budget 200000` conflicts, `--seed
//! 12648430` (0xC0FFEE), `--max-bound 6`, `--tolerance 15`, tag
//! `quick`/`full`, and `--out target/ab/PAIR.ndjson`, to which the NDJSON
//! lines are appended. Exits 0 when every check passes, 1 when one fails,
//! 2 on a usage error.

use std::fs::OpenOptions;
use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use zpre_bench::ab::{self, AbOptions, PAIRS};

fn usage(problem: &str) -> ExitCode {
    eprintln!("{problem}");
    eprintln!(
        "usage: ab-bench {{{}}} [--quick] [--tag NAME] [--out PATH] [--budget N] [--seed N] \
         [--max-bound K] [--tolerance PCT] [--reps N]",
        PAIRS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut opts = AbOptions::default();
    let (mut name, mut quick, mut tag, mut out) = (None, false, None, None);
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let mut value = || {
            i += 1;
            args.get(i).cloned().ok_or(format!("{flag} needs a value"))
        };
        let parsed: Result<(), String> = match flag {
            "--quick" => {
                quick = true;
                Ok(())
            }
            "--tag" => value().map(|v| tag = Some(v)),
            "--out" => value().map(|v| out = Some(PathBuf::from(v))),
            "--budget" => number(value()).map(|n| opts.base.max_conflicts = Some(n)),
            "--seed" => number(value()).map(|n| opts.base.seed = n),
            "--max-bound" => number(value()).map(|n| opts.base.max_bound = n),
            "--reps" => number(value()).map(|n| opts.reps = n),
            "--tolerance" => number(value()).map(|pct| opts.tolerance_pct = pct),
            _ if name.is_none() && !flag.starts_with("--") => {
                name = Some(flag.to_string());
                Ok(())
            }
            _ => Err(format!("unknown argument {flag}")),
        };
        if let Err(e) = parsed {
            return usage(&e);
        }
        i += 1;
    }
    let Some(name) = name else {
        return usage("missing PAIR");
    };
    let Some(pair) = ab::pair(&name, quick) else {
        return usage(&format!("unknown pair {name:?}"));
    };
    let tag = tag.unwrap_or_else(|| if quick { "quick" } else { "full" }.to_string());
    let out = out.unwrap_or_else(|| PathBuf::from(format!("target/ab/{name}.ndjson")));

    let report = ab::run(&pair, &opts);
    let checks = report.checks(&opts);
    println!(
        "{}",
        ab::table(pair.title, pair.sides.map(|s| s.0), &report.families())
    );
    for f in &report.failures {
        eprintln!("VERDICT DISAGREEMENT {f}");
    }
    for c in &checks {
        let mark = c.ok.map_or("info", |ok| if ok { "PASS" } else { "FAIL" });
        println!("{mark}: {}", c.what);
    }
    let lines = report.ndjson(&tag, &checks);
    if let Err(e) = append(&out, &lines) {
        eprintln!("cannot append to {}: {e}", out.display());
        return ExitCode::from(1);
    }
    println!("appended {} lines to {}", lines.len(), out.display());
    if ab::accept(&checks) {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// A flag's number; a trailing `%` is allowed (`--tolerance 50%`).
fn number<T: std::str::FromStr>(v: Result<String, String>) -> Result<T, String> {
    let v = v?;
    v.trim_end_matches('%')
        .parse()
        .map_err(|_| format!("invalid number {v:?}"))
}

fn append(path: &PathBuf, lines: &[String]) -> std::io::Result<()> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)?;
    }
    let mut f = OpenOptions::new().create(true).append(true).open(path)?;
    f.write_all((lines.join("\n") + "\n").as_bytes())
}
