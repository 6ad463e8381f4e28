//! `zpre-perfbench` — the repository benchmark.
//!
//! ```text
//! zpre-perfbench --workload NAME --seed N --seconds S --trace 0|1
//! zpre-perfbench --write-manifest PATH
//! ```
//!
//! Generates the named workload and sets it up (generation, `.zc` round
//! trip, front-end warm-up), then drives the public `zpre` API in a closed
//! loop with one client, in whole passes over the row set, until at least
//! `S` wall seconds have been measured and the tail percentile has ten
//! samples beyond it. The set-up is repeated before the first timed row for
//! `setup_s`. Every time reported is scaled to a fixed reference speed by a
//! kernel run between rows (`reference.rs`). Every
//! verdict is checked against ground truth and every work counter of the
//! single-threaded workloads must repeat exactly. The last line of standard
//! output is one JSON object: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics of a traced run with `--trace 1`. See README.md in
//! this directory.

mod ledger;
mod manifest;
mod reference;
mod run;
mod stats;
mod workload;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

use ledger::Ledger;
use manifest::{quote, unit_of, PER_LAYER};
use reference::{Speed, NOMINAL_MS};
use run::Run;
use stats::{median, quartiles, tail_percentile};
use workload::{generate, pass_order, Path, Workload};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// Hard stop for the timed part, so a run ends well inside three minutes
/// even on a slow machine.
const MAX_MEASURE_S: f64 = 150.0;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        flags.insert(flag.as_str(), value.as_str());
    }
    let mut get = |k: &str| flags.remove(k).ok_or_else(|| format!("missing {k}"));
    let num = |k: &str, v: &str| v.parse::<u64>().map_err(|e| format!("{k} {v:?}: {e}"));
    let args = Args {
        workload: get("--workload")?.to_string(),
        seed: num("--seed", get("--seed")?)?,
        seconds: num("--seconds", get("--seconds")?)? as f64,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace {other:?}: expected 0 or 1")),
        },
    };
    if let Some(k) = flags.keys().next() {
        return Err(format!("unknown flag {k}"));
    }
    if args.seconds < 1.0 {
        return Err("--seconds must be at least 1".to_string());
    }
    Ok(args)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.len() == 2 && argv[0] == "--write-manifest" {
        let names = manifest::END_TO_END.iter().chain(PER_LAYER).map(|m| m.name);
        if let Some(bad) = names
            .chain(manifest::WORKLOADS.iter().map(|w| w.name))
            .find(|n| !stats::valid_name(n))
        {
            eprintln!("zpre-perfbench: invalid name {bad:?}");
            std::process::exit(2);
        }
        if let Err(e) = std::fs::write(&argv[1], manifest::benchmark_json()) {
            eprintln!("zpre-perfbench: write {}: {e}", argv[1]);
            std::process::exit(2);
        }
        return;
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("zpre-perfbench: {e}");
            eprintln!(
                "usage: zpre-perfbench --workload NAME --seed N --seconds S --trace 0|1\n       \
                 zpre-perfbench --write-manifest PATH"
            );
            std::process::exit(2);
        }
    };
    match bench(&args) {
        Ok(correct) => std::process::exit(if correct { 0 } else { 1 }),
        Err(e) => {
            eprintln!("zpre-perfbench: {e}");
            std::process::exit(2);
        }
    }
}

/// Runs one measurement and prints its report; returns whether every
/// check passed.
fn bench(args: &Args) -> Result<bool, String> {
    let out_dir = out_dir()?;
    let mut ledger = Ledger::persistent(&out_dir, &args.workload)?;

    // Set-up is repeated SETUPS times before the first timed row; the
    // last one prepares the run, and `setup_s` is their median.
    let mut speed = Speed::new();
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut prepared = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        prepared = Some(set_up(&args.workload, &mut ledger)?);
        setup_s.push(t.elapsed().as_secs_f64() * speed.checkpoint());
    }
    let w = prepared.ok_or("no set-up ran")?;
    let mut run = Run::new(ledger, speed);
    let start = Instant::now();
    for pass in 0.. {
        let order = pass_order(w.rows.len(), args.seed, pass);
        let traced = args.trace && pass % 2 == 1;
        run.pass(&w, &order, traced);
        let measured: f64 = run.wall_pass_s.iter().sum();
        let enough = run.wall_pass_s.len() >= w.min_passes
            && if args.trace {
                traced && measured >= args.seconds
            } else {
                measured >= args.seconds && tail_percentile(&run.row_ms, 0.9).is_some()
            };
        if enough || start.elapsed().as_secs_f64() >= MAX_MEASURE_S {
            break;
        }
    }

    let mut log = String::new();
    let _ = writeln!(
        log,
        "workload {} seed {} seconds {} trace {}: {} rows per pass, {} set-ups",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        w.rows.len(),
        SETUPS
    );
    let _ = writeln!(log, "{}", noise_line("wall", &run.wall_pass_s));
    let _ = writeln!(
        log,
        "{}",
        noise_line("untraced scaled", &run.untraced_pass_s)
    );
    if args.trace {
        let _ = writeln!(log, "{}", noise_line("traced scaled", &run.traced_pass_s));
    }
    let _ = writeln!(log, "{}", speed_line(&run.speed.samples_ms));
    let metrics = if args.trace {
        let spans = write_spans(&out_dir, &w, args.seed, &run)?;
        let _ = writeln!(
            log,
            "spans: {} written to {}",
            run.tracer.spans.len(),
            spans.display()
        );
        per_layer(&run)
    } else {
        end_to_end(&run, &setup_s, &mut log)?
    };

    run.ledger.save()?;
    let t = &run.tally;
    let _ = writeln!(
        log,
        "verdicts: {} attempted, {} solved, {} unknown, {} wrong, {} errors",
        t.attempted, t.solved, t.unknown, t.wrong, t.errors
    );
    for e in &run.errors {
        let _ = writeln!(log, "FAIL {e}");
    }
    for d in run.ledger.drift.iter().take(10) {
        let _ = writeln!(log, "DRIFT {d}");
    }
    let drift_free = run.ledger.drift.is_empty();
    if w.path != Path::Portfolio {
        let _ = writeln!(
            log,
            "exact counters ({}): {}",
            ledger::EXACT.join(", "),
            if drift_free {
                "repeat exactly".to_string()
            } else {
                format!("{} drifts", run.ledger.drift.len())
            }
        );
    }
    for (name, value) in &metrics {
        let moves = PER_LAYER
            .iter()
            .find(|m| m.name == *name)
            .map_or(String::new(), |m| format!("  moves {}", m.moves));
        let _ = writeln!(
            log,
            "  {name:<28} {value:>16.4} {:<6}{moves}",
            unit_of(name)
        );
    }
    print!("{log}");

    let correct = t.correct() && drift_free;
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(name),
                json_number(*value),
                quote(unit_of(name))
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        t.attempted,
        t.failed(),
        body.join(", ")
    );
    Ok(correct)
}

/// Generates the workload and warms up every row's front end.
fn set_up(name: &str, ledger: &mut Ledger) -> Result<Workload, String> {
    let w = generate(name)?;
    run::warm_up(&w, ledger)?;
    Ok(w)
}

/// The end-to-end metrics of an untraced run, with sample counts logged.
fn end_to_end(
    run: &Run,
    setup_s: &[f64],
    log: &mut String,
) -> Result<Vec<(&'static str, f64)>, String> {
    let n = run.row_ms.len();
    let p90 = tail_percentile(&run.row_ms, 0.9).ok_or_else(|| {
        format!("{n} row samples leave fewer than ten beyond the 90th percentile")
    })?;
    let scaled: f64 = run.untraced_pass_s.iter().sum();
    let _ = writeln!(
        log,
        "samples: rows_per_s over {n} rows in {} passes ({scaled:.3} s scaled), verdict_p50_ms and \
         verdict_p90_ms over {n} row times, setup_s over {} set-ups",
        run.untraced_pass_s.len(),
        setup_s.len()
    );
    Ok(vec![
        ("rows_per_s", n as f64 / scaled),
        ("verdict_p50_ms", median(&run.row_ms)),
        ("verdict_p90_ms", p90),
        ("solved_share", run.tally.solved_share()),
        ("peak_rss_mb", peak_rss_mb()?),
        ("setup_s", median(setup_s)),
    ])
}

/// The per-layer metrics of a traced run. Times are mean milliseconds per
/// traced row, counts are totals per traced pass.
fn per_layer(run: &Run) -> Vec<(&'static str, f64)> {
    let rows = run.traced_rows.max(1) as f64;
    let passes = run.traced_pass_s.len().max(1) as f64;
    let span_ms = run.span_ms();
    let span = |k: &str| span_ms.get(k).copied().unwrap_or(0.0) / rows;
    let sum = |k: &str| run.sums.get(k).copied().unwrap_or(0.0);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    PER_LAYER
        .iter()
        .map(|m| {
            let value = match m.name {
                "prog.parse_ms" => span("parse_program"),
                "prog.unroll_ms" => span("unroll_program"),
                "prog.ssa_ms" => span("to_ssa"),
                "analysis.analyze_ms" => span("analyze"),
                "encoder.encode_ms" => span("try_encode_opts"),
                "core.order_ms" => span("decision_order"),
                "core.guided_share" => ratio(sum("core.guided_decisions"), sum("sat.decisions")),
                "sat.props_per_ms" => ratio(sum("sat.propagations"), sum("sat.solve_ms")),
                "portfolio.attempt_ratio" => {
                    ratio(sum("portfolio.member_ms"), sum("portfolio.winner_ms"))
                }
                "obs.overhead_pct" => {
                    let untraced = median(&run.untraced_pass_s);
                    let traced = median(&run.traced_pass_s);
                    (traced / untraced - 1.0) * 100.0
                }
                name if m.unit == "ms" => sum(name) / rows,
                name => sum(name) / passes,
            };
            (m.name, value)
        })
        .collect()
}

fn speed_line(samples_ms: &[f64]) -> String {
    let (q1, q3) = quartiles(samples_ms);
    format!(
        "speed: {} reference samples, kernel ms min {:.4} q1 {q1:.4} median {:.4} q3 {q3:.4} \
         max {:.4} (nominal {NOMINAL_MS})",
        samples_ms.len(),
        samples_ms.iter().copied().fold(f64::INFINITY, f64::min),
        median(samples_ms),
        samples_ms.iter().copied().fold(0.0, f64::max),
    )
}

fn noise_line(kind: &str, pass_s: &[f64]) -> String {
    if pass_s.is_empty() {
        return format!("noise: no {kind} passes");
    }
    let min = pass_s.iter().copied().fold(f64::INFINITY, f64::min);
    let max = pass_s.iter().copied().fold(0.0, f64::max);
    let (q1, q3) = quartiles(pass_s);
    format!(
        "noise: {} {kind} passes, pass time min {min:.4} q1 {q1:.4} median {:.4} q3 {q3:.4} \
         max {max:.4} s, slowest/fastest {:.4}",
        pass_s.len(),
        median(pass_s),
        max / min
    )
}

/// Peak resident set of this process, from `/proc/self/status`.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// The benchmark's output directory, beside its executable in the build
/// directory.
fn out_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let dir = exe
        .parent()
        .ok_or("executable has no parent directory")?
        .join("perfbench-out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}

/// Writes the traced run's spans as NDJSON, one span per line.
fn write_spans(
    dir: &std::path::Path,
    w: &Workload,
    seed: u64,
    run: &Run,
) -> Result<PathBuf, String> {
    let path = dir.join(format!("spans-{}-seed{seed}.ndjson", w.name));
    let mut text = String::new();
    for s in &run.tracer.spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            text,
            "{{\"name\": {}, \"id\": {}, \"parent\": {parent}, \"pass\": {}, \"row\": {}, \
             \"start_us\": {}, \"end_us\": {}}}",
            quote(s.name),
            s.id,
            s.pass,
            quote(&w.rows[s.row as usize].id),
            s.start.as_micros(),
            s.end.as_micros()
        );
    }
    std::fs::write(&path, text).map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(path)
}

/// A metric value as a JSON number with every digit measured.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}
