//! `zpre-cli` — verify concurrent programs from `.zc` files.
//!
//! ```text
//! zpre-cli verify FILE [--mm sc|tso|pso|all] [--strategy NAME] [--portfolio]
//!                      [--share] [--share-lbd-max N]
//!                      [--unroll N] [--bmc MAXBOUND]
//!                      [--incremental] [--max-bound K]
//!                      [--budget CONFLICTS] [--seed N] [--stats] [--trace]
//!                      [--profile] [--trace-out FILE] [--trace-sample N]
//!                      [--certify] [--replay-witness] [--prune] [--no-prune]
//!                      [--json]
//! zpre-cli batch  FILE... [--mm sc|tso|pso|all] [--strategy NAME]
//!                      [--max-bound K] [--budget CONFLICTS] [--timeout-ms N]
//!                      [--max-memory-mib N] [--journal FILE] [--resume]
//!                      [--retries N] [--backoff-ms N] [--fault NAME]
//!                      [--kill-after N] [--heartbeat SECS] [--metrics-out FILE]
//!                      [--no-prune] [--json] [--profile] [--trace-out FILE]
//! zpre-cli oracle FILE [--mm sc|tso|pso] [--unroll N]
//! zpre-cli dump   FILE [--mm sc|tso|pso] [--unroll N]
//! zpre-cli pretty FILE
//! zpre-cli trace check FILE
//! zpre-cli trace top   FILE [-n N]
//! zpre-cli trace stats FILE [--json]
//! zpre-cli trace flame FILE [--out FILE]
//! zpre-cli trace diff  BASE NEW [--gate-tolerance PCT] [--gate-time]
//!                               [--all] [--json]
//! ```
//!
//! `batch` runs every (file × memory model) pair as one resilient
//! bound-sweep task: budgets abort structurally instead of killing the
//! process, exhausted tasks are retried and degraded down a strategy
//! ladder, and `--journal` checkpoints every solved frame so `--resume`
//! continues an interrupted batch at its first unsolved frame. `--fault`
//! (member-oom, deadline-skew, corrupt-journal) and `--kill-after N` are
//! the chaos-testing injections of the harness.
//!
//! Exit codes (the most severe outcome wins):
//!
//! | code | meaning                                         |
//! |------|-------------------------------------------------|
//! | 0    | every verdict Safe                              |
//! | 1    | some verdict Unsafe                             |
//! | 2    | usage error                                     |
//! | 3    | some verdict Unknown (budgets/ladder exhausted) |
//! | 4    | invalid program or I/O failure                  |
//! | 5    | encoding refused                                |
//! | 6    | model validation failed                         |
//! | 7    | certification failed                            |
//! | 8    | portfolio member panicked                       |
//!
//! `verify` runs the interference-guided SMT pipeline, and its modes
//! compose. The bounds are one `--unroll N`, the per-bound `--bmc K` loop
//! (a fresh instance per bound), or `--incremental`: bounds `1..=K` (`K`
//! from `--bmc`, else `--max-bound`) as assumption frames of one solver.
//! Each bound, or the whole sweep, is solved by one strategy or, with
//! `--portfolio`, raced by the main strategies plus a polarity-varied ZPRE
//! (first verdict wins; `--share` lets single-bound members exchange
//! clauses, and has no effect on a race of sweeps).
//! `--certify` certifies every verdict; a sweep cannot certify yet and
//! fails closed (exit 7). The one usage error left is `--share` without
//! `--portfolio`. `oracle` runs the explicit-state reference checker
//! (exhaustive, for small programs); `dump` emits the verification
//! condition as SMT-LIB 2; `pretty` parses and re-prints the program.
//!
//! Observability: `--profile` prints a hierarchical per-phase timing report
//! (parse → unroll → SSA → encode per memory model → bit-blast → solve →
//! certify/replay) plus decision histograms by variable class; `--trace-out
//! FILE` additionally streams every solver event (decisions tagged
//! external-RF/internal-RF/WS/other, conflicts, theory lemmas with
//! event-order-graph cycle length, restarts, learnt-DB reductions) as
//! NDJSON; `--trace-sample N` keeps only every Nth decision event (counters
//! stay exact). `trace check` (spelled `trace-check` historically; both
//! work) validates an NDJSON trace file's schema and internal invariants —
//! the CI telemetry smoke job runs it on every example program.
//!
//! The rest of the `trace` family analyzes what `--trace-out` wrote:
//! `trace top` ranks phases by self time, `trace stats` flattens a trace
//! into the named metric map (`--json` emits the one-line `metrics` form
//! used as a CI baseline), `trace flame` exports a collapsed-stack
//! flamegraph (`flamegraph.pl`/inferno format), and `trace diff BASE NEW`
//! compares two traces (or metrics files) under a relative tolerance —
//! exit 0 when the telemetry gate passes, 1 when a gated metric regressed.
//! Tolerance accepts `20%` or `0.2`; wall-clock metrics stay informational
//! unless `--gate-time` is given.
//!
//! `batch --heartbeat N` prints a progress line every N seconds and, with
//! `--metrics-out FILE`, appends a `metrics` snapshot line on the same
//! cadence — a killed batch leaves an inspectable trail, and `--resume`
//! continues appending to it.
//!
//! `--certify` (and its witness-focused alias `--replay-witness`) asks the
//! pipeline to certify definitive verdicts: Safe verdicts carry a
//! RUP-checked proof with every theory lemma independently re-justified,
//! Unsafe verdicts replay their witness through the concrete interpreter.
//! A verdict whose evidence fails certification is reported on stderr and
//! the process exits with failure. `--json` prints one JSON object per
//! memory model instead of the human-readable lines.
//!
//! Static interference pruning (`zpre-analysis`) runs before encoding by
//! default: must-happen-before, lockset, and thread-locality analyses
//! remove provably redundant `V_rf`/`V_ws` selectors. `--no-prune`
//! reproduces the historic unpruned encoding (`--prune` restates the
//! default); under `--certify`, every pruned pair's justification is
//! re-verified by an independent checker before the smaller encoding is
//! trusted.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;
use zpre::{
    run_batch, try_verify, try_verify_portfolio_sweep, try_verify_sweep, verify_bmc_with,
    verify_portfolio, BatchFault, BatchOptions, BatchTask, Certificate, PortfolioOptions,
    PortfolioOutcome, ShareConfig, Strategy, Verdict, VerifyError, VerifyOptions, VerifyOutcome,
};
use zpre_obs::ndjson::quoted;
use zpre_obs::{profile_report, Recorder, TraceConfig};
use zpre_prog::interp::{check_sc, Limits, Outcome};
use zpre_prog::wmm::check_wmm;
use zpre_prog::{flatten, parse_program_traced, pretty, unroll_program, MemoryModel, Program};

fn usage() -> ExitCode {
    let strategies: Vec<&str> = Strategy::ALL.iter().map(|s| s.name()).collect();
    eprintln!(
        "usage:\n  zpre-cli verify FILE [--mm sc|tso|pso|all] [--strategy NAME] [--portfolio] \
         [--share] [--share-lbd-max N] \
         [--unroll N] [--bmc MAXBOUND] [--incremental] [--max-bound K] \
         [--budget CONFLICTS] [--seed N] [--stats] [--trace] \
         [--profile] [--trace-out FILE] [--trace-sample N] \
         [--certify] [--replay-witness] [--prune] [--no-prune] [--json]\n  \
         zpre-cli batch FILE... [--mm sc|tso|pso|all] [--strategy NAME] [--max-bound K] \
         [--budget CONFLICTS] [--timeout-ms N] [--max-memory-mib N] [--journal FILE] \
         [--resume] [--retries N] [--backoff-ms N] [--fault member-oom|deadline-skew|\
corrupt-journal] [--kill-after N] [--heartbeat SECS] [--metrics-out FILE] [--no-prune] \
         [--json] [--profile] [--trace-out FILE]\n  \
         zpre-cli oracle FILE [--mm sc|tso|pso] [--unroll N]\n  \
         zpre-cli dump FILE [--mm sc|tso|pso] [--unroll N]\n  \
         zpre-cli pretty FILE\n  \
         zpre-cli trace check FILE\n  \
         zpre-cli trace top FILE [-n N]\n  \
         zpre-cli trace stats FILE [--json]\n  \
         zpre-cli trace flame FILE [--out FILE]\n  \
         zpre-cli trace diff BASE NEW [--gate-tolerance PCT] [--gate-time] [--all] \
         [--json]\n\nstrategies: {}",
        strategies.join(" ")
    );
    ExitCode::from(2)
}

/// Maps every [`VerifyError`] variant to its own non-zero exit code (see
/// the table in the crate docs).
fn exit_for_error(e: &VerifyError) -> ExitCode {
    ExitCode::from(match e {
        VerifyError::Exhausted(_) => 3,
        VerifyError::InvalidProgram(_) => 4,
        VerifyError::Encode(_) => 5,
        VerifyError::ModelValidation(_) => 6,
        VerifyError::Certification { .. } => 7,
        VerifyError::MemberPanic { .. } => 8,
    })
}

/// Fetches the value of flag `flag` from `args[*i + 1]`, advancing the
/// cursor — the safe replacement for the old `i += 1; args[i]` pattern
/// that panicked when a flag was the last argument.
fn flag_value<'a>(args: &'a [String], i: &mut usize, flag: &str) -> Result<&'a str, String> {
    *i += 1;
    args.get(*i)
        .map(String::as_str)
        .ok_or_else(|| format!("{flag} requires a value"))
}

/// Parses a flag's value, rejecting (instead of silently defaulting on)
/// malformed input.
fn flag_parse<T: std::str::FromStr>(
    args: &[String],
    i: &mut usize,
    flag: &str,
) -> Result<T, String> {
    let raw = flag_value(args, i, flag)?;
    raw.parse()
        .map_err(|_| format!("{flag}: invalid value {raw:?}"))
}

/// A JSON string (escaped), or `null`.
fn json_opt(s: Option<&str>) -> String {
    s.map_or("null".to_string(), quoted)
}

/// JSON fragment describing a certificate (or its absence).
fn certificate_json(cert: Option<&Certificate>) -> String {
    match cert {
        Some(Certificate::Safe {
            lemmas_checked,
            proof_steps,
        }) => format!(
            "{{\"kind\":\"safe\",\"lemmas_checked\":{lemmas_checked},\
             \"proof_steps\":{proof_steps},\"rup\":\"ok\"}}"
        ),
        Some(Certificate::Unsafe { replayed_steps }) => format!(
            "{{\"kind\":\"unsafe\",\"replayed_steps\":{replayed_steps},\"replay\":\"confirmed\"}}"
        ),
        None => "null".to_string(),
    }
}

fn parse_strategy(name: &str) -> Option<Strategy> {
    Strategy::ALL.into_iter().find(|s| s.name() == name)
}

fn parse_mm(name: &str) -> Option<Vec<MemoryModel>> {
    match name {
        "sc" => Some(vec![MemoryModel::Sc]),
        "tso" => Some(vec![MemoryModel::Tso]),
        "pso" => Some(vec![MemoryModel::Pso]),
        "all" => Some(MemoryModel::ALL.to_vec()),
        _ => None,
    }
}

fn load(path: &str) -> Result<Program, String> {
    load_traced(path, None)
}

fn load_traced(path: &str, rec: Option<&Recorder>) -> Result<Program, String> {
    let src = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut program = parse_program_traced(&src, rec).map_err(|e| e.to_string())?;
    program.name = std::path::Path::new(path)
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| "program".to_string());
    program.validate().map_err(|e| e.to_string())?;
    Ok(program)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        return usage();
    };
    match cmd.as_str() {
        "verify" => cmd_verify(&args[1..]),
        "batch" => cmd_batch(&args[1..]),
        "oracle" => cmd_oracle(&args[1..]),
        "dump" => cmd_dump(&args[1..]),
        "pretty" => cmd_pretty(&args[1..]),
        "trace" => cmd_trace(&args[1..]),
        // Historical spelling, kept because CI scripts use it.
        "trace-check" => cmd_trace_check(&args[1..]),
        _ => usage(),
    }
}

/// The trace analytics family: everything that consumes an NDJSON trace
/// file after the fact.
fn cmd_trace(args: &[String]) -> ExitCode {
    let Some(sub) = args.first() else {
        return usage();
    };
    match sub.as_str() {
        "check" => cmd_trace_check(&args[1..]),
        "top" => cmd_trace_top(&args[1..]),
        "stats" => cmd_trace_stats(&args[1..]),
        "flame" => cmd_trace_flame(&args[1..]),
        "diff" => cmd_trace_diff(&args[1..]),
        _ => usage(),
    }
}

/// The resilient batch runner: every (file × memory model) pair becomes one
/// bound-sweep task of `zpre::harness::run_batch`. Files that fail to load
/// are reported and skipped — a bad input degrades the batch, it does not
/// stop it.
fn cmd_batch(args: &[String]) -> ExitCode {
    let mut files: Vec<String> = Vec::new();
    let mut mms = vec![MemoryModel::Sc];
    let mut strategy = Strategy::Zpre;
    let mut max_bound = 6u32;
    let mut opts = BatchOptions::default();
    let mut json = false;
    let mut profile = false;
    let mut trace_out: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--mm" => match flag_value(args, &mut i, "--mm").map(parse_mm) {
                Ok(Some(m)) => mms = m,
                _ => return usage(),
            },
            "--strategy" => match flag_value(args, &mut i, "--strategy").map(parse_strategy) {
                Ok(Some(s)) => strategy = s,
                _ => return usage(),
            },
            "--max-bound" => match flag_parse(args, &mut i, "--max-bound") {
                Ok(k) if k >= 1 => max_bound = k,
                _ => return usage(),
            },
            "--budget" => match flag_parse(args, &mut i, "--budget") {
                Ok(n) => opts.max_conflicts = Some(n),
                Err(e) => {
                    eprintln!("{e}");
                    return usage();
                }
            },
            "--timeout-ms" => match flag_parse(args, &mut i, "--timeout-ms") {
                Ok(ms) => opts.timeout = Some(Duration::from_millis(ms)),
                Err(e) => {
                    eprintln!("{e}");
                    return usage();
                }
            },
            "--max-memory-mib" => match flag_parse::<u64>(args, &mut i, "--max-memory-mib") {
                Ok(mib) => opts.max_memory = Some(mib.saturating_mul(1 << 20)),
                Err(e) => {
                    eprintln!("{e}");
                    return usage();
                }
            },
            "--seed" => match flag_parse(args, &mut i, "--seed") {
                Ok(n) => opts.seed = n,
                Err(e) => {
                    eprintln!("{e}");
                    return usage();
                }
            },
            "--journal" => match flag_value(args, &mut i, "--journal") {
                Ok(f) => opts.journal = Some(PathBuf::from(f)),
                Err(_) => return usage(),
            },
            "--resume" => opts.resume = true,
            "--retries" => match flag_parse(args, &mut i, "--retries") {
                Ok(n) => opts.max_retries = n,
                Err(e) => {
                    eprintln!("{e}");
                    return usage();
                }
            },
            "--backoff-ms" => match flag_parse(args, &mut i, "--backoff-ms") {
                Ok(ms) => opts.backoff = Duration::from_millis(ms),
                Err(e) => {
                    eprintln!("{e}");
                    return usage();
                }
            },
            "--fault" => match flag_value(args, &mut i, "--fault") {
                Ok("member-oom") => opts.fault = Some(BatchFault::MemberOom),
                Ok("deadline-skew") => opts.fault = Some(BatchFault::DeadlineSkew),
                Ok("corrupt-journal") => opts.fault = Some(BatchFault::CorruptJournal),
                _ => return usage(),
            },
            "--kill-after" => match flag_parse(args, &mut i, "--kill-after") {
                Ok(n) => opts.fault = Some(BatchFault::MidBatchKill(n)),
                Err(e) => {
                    eprintln!("{e}");
                    return usage();
                }
            },
            "--heartbeat" => match flag_parse::<u64>(args, &mut i, "--heartbeat") {
                Ok(secs) if secs >= 1 => opts.heartbeat = Some(Duration::from_secs(secs)),
                _ => return usage(),
            },
            "--metrics-out" => match flag_value(args, &mut i, "--metrics-out") {
                Ok(f) => opts.metrics_out = Some(PathBuf::from(f)),
                Err(_) => return usage(),
            },
            "--prune" => opts.prune = true,
            "--no-prune" => opts.prune = false,
            "--json" => json = true,
            "--profile" => profile = true,
            "--trace-out" => match flag_value(args, &mut i, "--trace-out") {
                Ok(f) => trace_out = Some(f.to_owned()),
                Err(_) => return usage(),
            },
            flag if flag.starts_with("--") => return usage(),
            file => files.push(file.to_owned()),
        }
        i += 1;
    }
    if files.is_empty() {
        return usage();
    }
    let recorder = (profile || trace_out.is_some()).then(|| {
        Recorder::new(TraceConfig {
            events: trace_out.is_some(),
            decision_sample: 1,
        })
    });
    opts.recorder = recorder.clone();

    let mut tasks: Vec<BatchTask> = Vec::new();
    let mut load_errors = 0usize;
    for file in &files {
        match load(file) {
            Ok(p) => {
                for mm in &mms {
                    tasks.push(BatchTask::new(p.clone(), *mm, strategy, max_bound));
                }
            }
            Err(e) => {
                eprintln!("{e}");
                load_errors += 1;
            }
        }
    }
    if tasks.is_empty() {
        return ExitCode::from(4);
    }

    let out = run_batch(&tasks, &opts);
    for r in &out.reports {
        if json {
            let ladder: Vec<String> = r
                .ladder
                .iter()
                .map(|rec| {
                    let verdict = rec
                        .verdict
                        .map(|v| format!("\"{v}\""))
                        .unwrap_or_else(|| "null".to_string());
                    let exh = rec
                        .exhaustion
                        .map(|x| format!("\"{x}\""))
                        .unwrap_or_else(|| "null".to_string());
                    let error = json_opt(rec.error.as_deref());
                    format!(
                        "{{\"rung\":\"{}\",\"strategy\":\"{}\",\"bound\":{},\
                         \"attempt\":{},\"verdict\":{},\"exhaustion\":{},\"error\":{}}}",
                        rec.rung.name(),
                        rec.strategy,
                        rec.bound,
                        rec.attempt,
                        verdict,
                        exh,
                        error,
                    )
                })
                .collect();
            let exh = r
                .exhaustion
                .map(|x| format!("\"{x}\""))
                .unwrap_or_else(|| "null".to_string());
            let resumed = r
                .resumed_at
                .map(|b| b.to_string())
                .unwrap_or_else(|| "null".to_string());
            println!(
                "{{\"task\":{},\"verdict\":\"{}\",\"bound\":{},\
                 \"from_journal\":{},\"resumed_at\":{},\"exhaustion\":{},\"ladder\":[{}]}}",
                quoted(&r.key),
                r.verdict,
                r.bound,
                r.from_journal,
                resumed,
                exh,
                ladder.join(","),
            );
        } else {
            let mut notes = String::new();
            if r.from_journal {
                notes.push_str(" (from journal)");
            }
            if let Some(b) = r.resumed_at {
                notes.push_str(&format!(" (resumed at k={b})"));
            }
            if let Some(x) = r.exhaustion {
                notes.push_str(&format!(" ({x})"));
            }
            println!("{}: {} at bound {}{}", r.key, r.verdict, r.bound, notes);
            if r.ladder.len() > 1 {
                for rec in &r.ladder {
                    let what = rec
                        .verdict
                        .map(|v| v.to_string())
                        .or_else(|| rec.error.clone())
                        .unwrap_or_else(|| "failed".to_string());
                    let why = rec
                        .exhaustion
                        .map(|x| format!(" ({x})"))
                        .unwrap_or_default();
                    println!(
                        "  rung {} [{} k<={}] attempt {}: {}{}",
                        rec.rung.name(),
                        rec.strategy,
                        rec.bound,
                        rec.attempt,
                        what,
                        why
                    );
                }
            }
        }
    }
    if !json {
        println!(
            "batch: {} tasks ({} solved, {} from journal), {} retries, {} degradations{}",
            out.reports.len(),
            out.tasks_run,
            out.tasks_skipped,
            out.retries,
            out.degradations,
            if out.interrupted {
                " — interrupted"
            } else {
                ""
            }
        );
    }
    if let Some(e) = &out.journal_error {
        eprintln!("warning: {e}");
    }
    if let Some(rec) = &recorder {
        let snapshot = rec.snapshot();
        if let Some(file) = &trace_out {
            let ndjson = zpre_obs::ndjson::to_ndjson(&snapshot);
            if let Err(e) = std::fs::write(file, ndjson) {
                eprintln!("cannot write trace to {file}: {e}");
                return ExitCode::from(4);
            }
        }
        if profile {
            print!("{}", profile_report(&snapshot));
        }
    }

    let any_unsafe = out.reports.iter().any(|r| r.verdict == Verdict::Unsafe);
    let any_unknown = out.reports.iter().any(|r| r.verdict == Verdict::Unknown);
    if any_unsafe {
        ExitCode::from(1)
    } else if load_errors > 0 {
        ExitCode::from(4)
    } else if any_unknown || out.interrupted {
        ExitCode::from(3)
    } else {
        ExitCode::SUCCESS
    }
}

/// Validates an NDJSON trace file produced by `verify --trace-out` and
/// prints a one-screen summary of what it contains. Exits nonzero on any
/// schema or invariant violation, so CI can gate on it.
fn cmd_trace_check(args: &[String]) -> ExitCode {
    let Some(path) = args.first() else {
        return usage();
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return ExitCode::from(4);
        }
    };
    match zpre_obs::ndjson::validate(&text) {
        Ok(report) => {
            println!(
                "{path}: ok ({} block{}, {} spans, {} events, {} members)",
                report.blocks,
                if report.blocks == 1 { "" } else { "s" },
                report.spans,
                report.events,
                report.members,
            );
            println!("  phases: {}", report.phases_seen.join(" "));
            let d = &report.decisions_by_class;
            println!(
                "  decisions: rf_ext {} rf_int {} ws {} other {}  conflicts {}  lemmas {}",
                d[0], d[1], d[2], d[3], report.conflicts, report.lemmas
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{path}: invalid trace: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Reads `path` and parses its trace blocks; any failure is reported and
/// mapped to exit code 4 (I/O / invalid input).
fn load_trace_blocks(path: &str) -> Result<Vec<zpre_obs::TraceSnapshot>, ExitCode> {
    let text = std::fs::read_to_string(path).map_err(|e| {
        eprintln!("cannot read {path}: {e}");
        ExitCode::from(4)
    })?;
    zpre_obs::analyze::load_blocks(&text).map_err(|e| {
        eprintln!("{path}: {e}");
        ExitCode::from(4)
    })
}

/// Collapsed stacks summed across every block in the trace (a batch or
/// multi-model run writes several), deterministic lexicographic order.
fn merged_stacks(blocks: &[zpre_obs::TraceSnapshot]) -> Vec<(String, u64)> {
    let mut acc: std::collections::BTreeMap<String, u64> = std::collections::BTreeMap::new();
    for b in blocks {
        for (stack, self_us) in zpre_obs::flame::stack_entries(b) {
            *acc.entry(stack).or_insert(0) += self_us;
        }
    }
    acc.into_iter().collect()
}

/// Ranks span stacks by self time — the "where did the time go" one-liner.
fn cmd_trace_top(args: &[String]) -> ExitCode {
    let Some(path) = args.first() else {
        return usage();
    };
    let mut n = 10usize;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "-n" => match flag_parse(args, &mut i, "-n") {
                Ok(k) if k >= 1 => n = k,
                _ => return usage(),
            },
            _ => return usage(),
        }
        i += 1;
    }
    let blocks = match load_trace_blocks(path) {
        Ok(b) => b,
        Err(code) => return code,
    };
    let mut entries = merged_stacks(&blocks);
    entries.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    let total: u64 = entries.iter().map(|(_, v)| v).sum();
    println!("{:>12} {:>6}  stack", "self_us", "share");
    for (stack, self_us) in entries.iter().take(n) {
        let share = if total > 0 {
            100.0 * *self_us as f64 / total as f64
        } else {
            0.0
        };
        println!("{self_us:>12} {share:>5.1}%  {stack}");
    }
    if entries.len() > n {
        println!("  ... {} more stacks ({total} us total)", entries.len() - n);
    }
    ExitCode::SUCCESS
}

/// Flattens a trace into the named metric map; `--json` prints the one-line
/// `metrics` form that doubles as a CI baseline file.
fn cmd_trace_stats(args: &[String]) -> ExitCode {
    let Some(path) = args.first() else {
        return usage();
    };
    let mut json = false;
    for a in &args[1..] {
        match a.as_str() {
            "--json" => json = true,
            _ => return usage(),
        }
    }
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return ExitCode::from(4);
        }
    };
    let stats = match zpre_obs::analyze::load_stats(&text) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{path}: {e}");
            return ExitCode::from(4);
        }
    };
    if json {
        println!("{}", stats.to_metrics_line());
    } else {
        println!("{:<24} {:>12}", "metric", "value");
        for (name, value) in &stats.metrics {
            println!("{name:<24} {value:>12}");
        }
    }
    ExitCode::SUCCESS
}

/// Exports the collapsed-stack flamegraph (`flamegraph.pl`/inferno input).
fn cmd_trace_flame(args: &[String]) -> ExitCode {
    let Some(path) = args.first() else {
        return usage();
    };
    let mut out: Option<String> = None;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--out" => match flag_value(args, &mut i, "--out") {
                Ok(f) => out = Some(f.to_owned()),
                Err(_) => return usage(),
            },
            _ => return usage(),
        }
        i += 1;
    }
    let blocks = match load_trace_blocks(path) {
        Ok(b) => b,
        Err(code) => return code,
    };
    let mut text = String::new();
    for (stack, self_us) in merged_stacks(&blocks) {
        text.push_str(&format!("{stack} {self_us}\n"));
    }
    match out {
        Some(file) => {
            if let Err(e) = std::fs::write(&file, &text) {
                eprintln!("cannot write {file}: {e}");
                return ExitCode::from(4);
            }
            eprintln!("flame: {} stacks -> {file}", text.lines().count());
        }
        None => print!("{text}"),
    }
    ExitCode::SUCCESS
}

/// `--gate-tolerance` accepts `20%` or a fraction `0.2`; bare numbers >= 1
/// are read as percentages since a 100%+ fractional tolerance is useless.
fn parse_tolerance(raw: &str) -> Option<f64> {
    let (num, percent) = match raw.strip_suffix('%') {
        Some(n) => (n, true),
        None => (raw, false),
    };
    let v: f64 = num.parse().ok()?;
    if !v.is_finite() || v < 0.0 {
        return None;
    }
    Some(if percent || v >= 1.0 { v / 100.0 } else { v })
}

/// The telemetry regression gate: compares two traces (or `metrics`-line
/// baselines) and exits 1 when a gated metric moved the wrong way beyond
/// tolerance.
fn cmd_trace_diff(args: &[String]) -> ExitCode {
    let mut paths: Vec<&str> = Vec::new();
    let mut opts = zpre_obs::DiffOptions::default();
    let mut json = false;
    let mut all = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--gate-tolerance" => match flag_value(args, &mut i, "--gate-tolerance") {
                Ok(raw) => match parse_tolerance(raw) {
                    Some(t) => opts.tolerance = t,
                    None => {
                        eprintln!("--gate-tolerance: invalid value {raw:?}");
                        return usage();
                    }
                },
                Err(_) => return usage(),
            },
            "--gate-time" => opts.gate_time = true,
            "--json" => json = true,
            "--all" => all = true,
            flag if flag.starts_with("--") => return usage(),
            path => paths.push(path),
        }
        i += 1;
    }
    let [base_path, new_path] = paths.as_slice() else {
        return usage();
    };
    let load = |path: &str| -> Result<zpre_obs::analyze::TraceStats, ExitCode> {
        let text = std::fs::read_to_string(path).map_err(|e| {
            eprintln!("cannot read {path}: {e}");
            ExitCode::from(4)
        })?;
        zpre_obs::analyze::load_stats(&text).map_err(|e| {
            eprintln!("{path}: {e}");
            ExitCode::from(4)
        })
    };
    let (base, new) = match (load(base_path), load(new_path)) {
        (Ok(b), Ok(n)) => (b, n),
        (Err(code), _) | (_, Err(code)) => return code,
    };
    let report = zpre_obs::diff::diff(&base, &new, &opts);
    if json {
        print!("{}", report.to_ndjson());
    } else {
        print!("{}", report.render(all));
    }
    if report.gate_failed() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn cmd_pretty(args: &[String]) -> ExitCode {
    let Some(path) = args.first() else {
        return usage();
    };
    match load(path) {
        Ok(p) => {
            print!("{}", pretty::pretty_program(&p));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(4)
        }
    }
}

fn cmd_dump(args: &[String]) -> ExitCode {
    let Some(path) = args.first() else {
        return usage();
    };
    let mut mm = MemoryModel::Sc;
    let mut unroll = 2u32;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--mm" => match flag_value(args, &mut i, "--mm").map(parse_mm) {
                Ok(Some(ref ms)) if ms.len() == 1 => mm = ms[0],
                _ => return usage(),
            },
            "--unroll" => match flag_parse(args, &mut i, "--unroll") {
                Ok(n) => unroll = n,
                Err(e) => {
                    eprintln!("{e}");
                    return usage();
                }
            },
            _ => return usage(),
        }
        i += 1;
    }
    match load(path) {
        Ok(p) => {
            let ssa = zpre_prog::to_ssa(&unroll_program(&p, unroll));
            print!("{}", zpre_encoder::dump_smtlib(&ssa, mm));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(4)
        }
    }
}

fn cmd_oracle(args: &[String]) -> ExitCode {
    let Some(path) = args.first() else {
        return usage();
    };
    let mut mms = vec![MemoryModel::Sc];
    let mut unroll = 2u32;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--mm" => match flag_value(args, &mut i, "--mm").map(parse_mm) {
                Ok(Some(m)) => mms = m,
                _ => return usage(),
            },
            "--unroll" => match flag_parse(args, &mut i, "--unroll") {
                Ok(n) => unroll = n,
                Err(e) => {
                    eprintln!("{e}");
                    return usage();
                }
            },
            _ => return usage(),
        }
        i += 1;
    }
    let program = match load(path) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(4);
        }
    };
    let fp = flatten(&unroll_program(&program, unroll));
    for mm in mms {
        let outcome = match mm {
            MemoryModel::Sc => check_sc(&fp, Limits::default()),
            _ => check_wmm(&fp, mm, Limits::default()),
        };
        let text = match outcome {
            Outcome::Safe => "safe",
            Outcome::Unsafe => "unsafe",
            Outcome::ResourceLimit => "resource-limit",
        };
        println!(
            "{}: {} ({} oracle, unroll {})",
            program.name,
            text,
            mm.name(),
            unroll
        );
    }
    ExitCode::SUCCESS
}

/// Which bounds `verify` solves: the one `--unroll` bound, the per-bound
/// `--bmc` loop, or the `--incremental` sweep in one solver.
#[derive(Clone, Copy)]
enum Bounds {
    Single,
    Bmc(u32),
    Sweep,
}

/// Runs what the flags select: the bound loop (or the sweep) around a
/// single-bound step, which is a plain verify or, with `race` set (to its
/// share configuration), one portfolio race. Returns the outcome and, for a
/// race, the last race's footer (a `--bmc` loop races once per bound).
fn run_verify(
    program: &Program,
    opts: &VerifyOptions,
    bounds: Bounds,
    race: Option<Option<ShareConfig>>,
) -> Result<(VerifyOutcome, Option<PortfolioOutcome>), VerifyError> {
    let folio = |o: &VerifyOptions| PortfolioOptions {
        share: race.flatten(),
        ..PortfolioOptions::new(o.clone())
    };
    let mut footer = None;
    let mut raced = |mut f: PortfolioOutcome| {
        let outcome = std::mem::take(&mut f.outcome);
        footer = Some(f);
        outcome
    };
    let mut step = |o: &VerifyOptions| match race {
        Some(_) => Ok(raced(verify_portfolio(program, &folio(o)))),
        None => try_verify(program, o),
    };
    let outcome = match (bounds, race) {
        (Bounds::Single, _) => step(opts),
        (Bounds::Bmc(k), _) => verify_bmc_with(program, k, opts, step),
        (Bounds::Sweep, Some(_)) => try_verify_portfolio_sweep(program, &folio(opts)).map(raced),
        (Bounds::Sweep, None) => try_verify_sweep(program, opts),
    }?;
    Ok((outcome, footer))
}

/// One JSON object. The overall `"verdict"` comes before any frame's, and
/// every mode's keys keep their historical names and order.
fn report_json(
    program: &str,
    opts: &VerifyOptions,
    bounds: Bounds,
    o: &VerifyOutcome,
    race: Option<&PortfolioOutcome>,
) -> String {
    let mut out = format!(
        "{{\"program\":{},\"mm\":\"{}\"",
        quoted(program),
        opts.mm.name()
    );
    if race.is_none() {
        out += &format!(",\"strategy\":\"{}\"", opts.strategy);
    }
    let mode: Vec<&str> = [
        match bounds {
            Bounds::Single => None,
            Bounds::Bmc(_) => Some("bmc"),
            Bounds::Sweep => Some("incremental"),
        },
        race.map(|_| "portfolio"),
    ]
    .into_iter()
    .flatten()
    .collect();
    if !mode.is_empty() {
        out += &format!(",\"mode\":\"{}\"", mode.join("+"));
    }
    out += &format!(",\"verdict\":\"{}\"", o.verdict);
    let has_bounds = !matches!(bounds, Bounds::Single);
    if has_bounds {
        out += &format!(",\"bound\":{}", o.bound);
    }
    if let Some(race) = race {
        let quarantined: Vec<String> = race.quarantined.iter().map(|q| quoted(q)).collect();
        out += &format!(
            ",\"winner\":{},\"quarantined\":[{}],\"unknown_reason\":{}",
            json_opt(race.winner.as_deref()),
            quarantined.join(","),
            json_opt(race.unknown_reason.as_deref()),
        );
    }
    out += &format!(
        ",\"certificate\":{},\"events\":{},\"vars\":{},\"decisions\":{},\
         \"conflicts\":{},\"solve_time_ms\":{:.3}",
        certificate_json(o.certificate.as_ref()),
        o.num_events,
        o.num_solver_vars,
        o.stats.decisions,
        o.stats.conflicts,
        o.solve_time.as_secs_f64() * 1e3,
    );
    if has_bounds {
        let frames: Vec<String> = o
            .frames
            .iter()
            .map(|f| {
                format!(
                    "{{\"bound\":{},\"verdict\":\"{}\",\"conflicts\":{},\
                     \"decisions\":{},\"reused_learnts\":{},\"reused_conflicts\":{},\
                     \"solve_time_ms\":{:.3}}}",
                    f.bound,
                    f.verdict,
                    f.conflicts,
                    f.decisions,
                    f.reused_learnts,
                    f.reused_conflicts,
                    f.solve_time.as_secs_f64() * 1e3,
                )
            })
            .collect();
        out += &format!(",\"frames\":[{}]", frames.join(","));
    }
    out + "}"
}

/// The human-readable report: the verdict line, then (with `--stats` for
/// the details) the frames, the race footer and the statistics.
fn print_report(
    program: &str,
    opts: &VerifyOptions,
    bounds: Bounds,
    o: &VerifyOutcome,
    race: Option<&PortfolioOutcome>,
    show_stats: bool,
) {
    if let Some(trace) = &o.trace {
        print!("{trace}");
    }
    let who = match race {
        Some(race) => format!(
            "portfolio (winner {})",
            race.winner.as_deref().unwrap_or("none")
        ),
        None => opts.strategy.to_string(),
    };
    let at = match bounds {
        Bounds::Single => String::new(),
        Bounds::Bmc(_) => format!(" at bound {}", o.bound),
        Bounds::Sweep => format!(" incremental sweep to bound {}", o.bound),
    };
    println!(
        "{program}: {} under {} with {who}{at} [{:.2?}]",
        o.verdict, opts.mm, o.solve_time
    );
    if let Some(cert) = &o.certificate {
        println!("  certificate: {}", cert.summary());
    }
    if show_stats && !matches!(bounds, Bounds::Single) {
        for f in &o.frames {
            println!(
                "  frame k={:<2} {:<8} conflicts {:<8} decisions {:<8} \
                 reused learnts {:<6} reused conflicts {:<8} [{:.2?}]",
                f.bound,
                f.verdict.to_string(),
                f.conflicts,
                f.decisions,
                f.reused_learnts,
                f.reused_conflicts,
                f.solve_time
            );
        }
    }
    if let Some(race) = race {
        if !race.quarantined.is_empty() {
            println!("  quarantined: {}", race.quarantined.join(", "));
        }
        if let Some(reason) = &race.unknown_reason {
            println!("  unknown reason: {reason}");
        }
        if show_stats {
            for m in &race.members {
                println!(
                    "  {:<16} {:<8} [{:.2?}]{}{}",
                    m.name,
                    m.verdict.to_string(),
                    m.time,
                    if m.cancelled { " (cancelled)" } else { "" },
                    m.error
                        .as_deref()
                        .map(|e| format!(" (quarantined: {e})"))
                        .unwrap_or_default()
                );
            }
            if let Some(latency) = race.cancel_latency {
                println!("  cancellation latency {latency:.2?}");
            }
        }
    }
    if show_stats {
        println!(
            "  events {}  vars {}  (ssa {}, ord {}, rf {}, ws {})",
            o.num_events,
            o.num_solver_vars,
            o.class_counts.ssa,
            o.class_counts.ord,
            o.class_counts.rf,
            o.class_counts.ws
        );
        println!(
            "  decisions {} (guided {})  propagations {}  conflicts {}  restarts {}",
            o.stats.decisions,
            o.stats.guided_decisions,
            o.stats.propagations,
            o.stats.conflicts,
            o.stats.restarts
        );
    }
}

fn cmd_verify(args: &[String]) -> ExitCode {
    let Some(path) = args.first() else {
        return usage();
    };
    let mut mms = vec![MemoryModel::Sc];
    let mut strategy = Strategy::Zpre;
    let mut unroll = 2u32;
    let mut bmc: Option<u32> = None;
    let mut incremental = false;
    let mut max_bound = 6u32;
    let mut budget: Option<u64> = None;
    let mut seed = 0xC0FFEEu64;
    let mut show_stats = false;
    let mut want_trace = false;
    let mut portfolio = false;
    let mut share = false;
    let mut share_lbd_max: Option<u32> = None;
    let mut certify = false;
    let mut json = false;
    let mut profile = false;
    let mut prune = true;
    let mut trace_out: Option<String> = None;
    let mut trace_sample = 1u32;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--mm" => match flag_value(args, &mut i, "--mm").map(parse_mm) {
                Ok(Some(m)) => mms = m,
                _ => return usage(),
            },
            "--strategy" => match flag_value(args, &mut i, "--strategy").map(parse_strategy) {
                Ok(Some(s)) => strategy = s,
                _ => return usage(),
            },
            "--unroll" => match flag_parse(args, &mut i, "--unroll") {
                Ok(n) => unroll = n,
                Err(e) => {
                    eprintln!("{e}");
                    return usage();
                }
            },
            "--bmc" => match flag_parse(args, &mut i, "--bmc") {
                Ok(n) => bmc = Some(n),
                Err(e) => {
                    eprintln!("{e}");
                    return usage();
                }
            },
            "--incremental" => incremental = true,
            "--max-bound" => match flag_parse(args, &mut i, "--max-bound") {
                Ok(k) if k >= 1 => max_bound = k,
                _ => return usage(),
            },
            "--budget" => match flag_parse(args, &mut i, "--budget") {
                Ok(n) => budget = Some(n),
                Err(e) => {
                    eprintln!("{e}");
                    return usage();
                }
            },
            "--seed" => match flag_parse(args, &mut i, "--seed") {
                Ok(n) => seed = n,
                Err(e) => {
                    eprintln!("{e}");
                    return usage();
                }
            },
            "--stats" => show_stats = true,
            "--trace" => want_trace = true,
            "--profile" => profile = true,
            "--trace-out" => match flag_value(args, &mut i, "--trace-out") {
                Ok(f) => trace_out = Some(f.to_owned()),
                Err(_) => return usage(),
            },
            "--trace-sample" => match flag_parse(args, &mut i, "--trace-sample") {
                Ok(n) if n >= 1 => trace_sample = n,
                _ => return usage(),
            },
            "--portfolio" => portfolio = true,
            "--share" => share = true,
            "--share-lbd-max" => match flag_parse(args, &mut i, "--share-lbd-max") {
                Ok(n) if n >= 1 => share_lbd_max = Some(n),
                _ => return usage(),
            },
            "--certify" | "--replay-witness" => certify = true,
            "--prune" => prune = true,
            "--no-prune" => prune = false,
            "--json" => json = true,
            _ => return usage(),
        }
        i += 1;
    }
    // Every mode composes; sharing alone needs something to share with.
    if (share || share_lbd_max.is_some()) && !portfolio {
        eprintln!("--share/--share-lbd-max require --portfolio (sharing needs members)");
        return usage();
    }
    let race = portfolio.then(|| {
        (share || share_lbd_max.is_some()).then(|| {
            share_lbd_max
                .map(ShareConfig::with_lbd_max)
                .unwrap_or_default()
        })
    });
    // `--incremental` solves the bound loop in one solver: over `--bmc K`'s
    // bounds when given, else over `--max-bound`'s.
    let bounds = match (incremental, bmc) {
        (true, k) => {
            max_bound = k.unwrap_or(max_bound);
            Bounds::Sweep
        }
        (false, Some(k)) => Bounds::Bmc(k),
        (false, None) => Bounds::Single,
    };
    // One recorder spans the whole invocation (even `--mm all`): encode
    // spans are labeled per memory model, so a single NDJSON block carries
    // the full run. Event storage is only paid for when a trace file is
    // requested; `--profile` alone needs just spans and counters.
    let recorder = (profile || trace_out.is_some()).then(|| {
        Recorder::new(TraceConfig {
            events: trace_out.is_some(),
            decision_sample: trace_sample,
        })
    });
    let program = match load_traced(path, recorder.as_ref()) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(4);
        }
    };

    let mut any_unsafe = false;
    let mut any_unknown = false;
    for mm in mms {
        let opts = VerifyOptions {
            mm,
            strategy,
            unroll_bound: unroll,
            max_bound,
            max_conflicts: budget,
            timeout: None,
            max_memory: None,
            seed,
            prune,
            validate_models: true,
            want_trace,
            cancel: None,
            certify,
            fault: None,
            recorder: recorder.clone(),
            share: None,
        };
        let (outcome, footer) = match run_verify(&program, &opts, bounds, race) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("{}: verdict rejected under {}: {e}", program.name, mm);
                return exit_for_error(&e);
            }
        };
        let footer = footer.as_ref();
        if json {
            println!(
                "{}",
                report_json(&program.name, &opts, bounds, &outcome, footer)
            );
        } else {
            print_report(&program.name, &opts, bounds, &outcome, footer, show_stats);
        }
        any_unsafe |= outcome.verdict == Verdict::Unsafe;
        any_unknown |= outcome.verdict == Verdict::Unknown;
    }
    if let Some(rec) = &recorder {
        let snapshot = rec.snapshot();
        if let Some(file) = &trace_out {
            let ndjson = zpre_obs::ndjson::to_ndjson(&snapshot);
            if let Err(e) = std::fs::write(file, ndjson) {
                eprintln!("cannot write trace to {file}: {e}");
                return ExitCode::from(4);
            }
            eprintln!(
                "trace: {} spans, {} events -> {file}",
                snapshot.spans.len(),
                snapshot.events.len()
            );
        }
        if profile {
            print!("{}", profile_report(&snapshot));
        }
    }
    if any_unsafe {
        ExitCode::from(1)
    } else if any_unknown {
        ExitCode::from(3)
    } else {
        ExitCode::SUCCESS
    }
}
