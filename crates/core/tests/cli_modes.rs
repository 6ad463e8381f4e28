//! Every `zpre-cli verify` mode composes with every other.
//!
//! For every example program under every memory model, each bound mode
//! (`--unroll 2`, `--bmc 4`, `--incremental --max-bound 4`) is run plain,
//! raced (`--portfolio`), raced with clause sharing (`--portfolio
//! --share`), and each of those with and without `--certify`. Every run
//! must give the exit code and the overall per-model verdicts of its plain
//! bound mode, except that certified sweeps fail closed (exit 7, naming the
//! `sweep` stage) until sweeps can certify. The one usage error left is
//! `--share` without `--portfolio`. The `--json` key sequence of every mode
//! is pinned, so a rewrite of the report cannot rename or reorder a key.
//! So are `zpre-cli batch`'s `--json` keys and its exit codes over the
//! examples, for a clean run and for a killed run resumed from its journal,
//! and a batch trace records the parse phase as a verify trace does.
//! `zpre-cli dump` prints, for every example and model, an instance that
//! reads back into a fresh solver with `verify`'s verdict. The usage text
//! lists exactly the strategies `--strategy` accepts, and a name outside
//! that list (such as a removed strategy) is a usage error.

mod smtlib_reader;

use std::path::PathBuf;
use std::process::{Command, Output};
use zpre::Strategy;
use zpre_sat::SolveResult;

const BOUNDS: [&[&str]; 3] = [
    &["--unroll", "2"],
    &["--bmc", "4"],
    &["--incremental", "--max-bound", "4"],
];
const RACES: [&[&str]; 3] = [&[], &["--portfolio"], &["--portfolio", "--share"]];

fn examples() -> Vec<PathBuf> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples/programs");
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("cannot list {}: {e}", dir.display()))
        .map(|entry| entry.expect("directory entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "zc"))
        .collect();
    files.sort();
    assert!(!files.is_empty(), "no example programs found");
    files
}

fn verify(file: &PathBuf, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_zpre-cli"))
        .arg("verify")
        .arg(file)
        .args(["--mm", "all", "--json"])
        .args(args)
        .output()
        .expect("zpre-cli runs")
}

/// The overall verdict of each JSON line: the first `"verdict"` on it
/// (frames carry their own verdicts further along the line).
fn verdicts(out: &Output) -> Vec<String> {
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .map(|line| {
            let rest = line
                .split_once("\"verdict\":\"")
                .unwrap_or_else(|| panic!("no verdict in {line}"))
                .1;
            rest[..rest.find('"').expect("closing quote")].to_string()
        })
        .collect()
}

#[test]
fn every_mode_combination_agrees_with_its_plain_bound_mode() {
    for file in examples() {
        for bounds in BOUNDS {
            let plain = verify(&file, bounds);
            let code = plain.status.code();
            assert!(
                matches!(code, Some(0 | 1)),
                "{} {bounds:?}: plain run exited {code:?}",
                file.display()
            );
            assert_eq!(verdicts(&plain).len(), 3, "{}", file.display());
            for race in RACES {
                for certify in [&[][..], &["--certify"]] {
                    let args = [bounds, race, certify].concat();
                    let out = verify(&file, &args);
                    let what = format!("{} {args:?}", file.display());
                    if bounds[0] == "--incremental" && !certify.is_empty() {
                        let stderr = String::from_utf8_lossy(&out.stderr);
                        assert_eq!(out.status.code(), Some(7), "{what}: {stderr}");
                        assert!(stderr.contains("at sweep stage"), "{what}: {stderr}");
                        continue;
                    }
                    assert_eq!(out.status.code(), code, "{what}: exit code");
                    assert_eq!(verdicts(&out), verdicts(&plain), "{what}: verdicts");
                }
            }
        }
    }
}

/// The keys of a JSON line in order, nested objects' keys included.
fn keys(line: &str) -> String {
    let parts: Vec<&str> = line.split('"').collect();
    (1..parts.len())
        .step_by(2)
        .filter(|&i| parts.get(i + 1).is_some_and(|p| p.starts_with(':')))
        .map(|i| parts[i])
        .collect::<Vec<_>>()
        .join(" ")
}

/// The key sequence each mode printed before the one-outcome report, on a
/// safe loop-free program (one frame; a safe certificate). A race with and
/// without `--share` prints the same keys.
fn pinned_keys(bounds: &str, raced: bool, certify: bool) -> &'static str {
    match (bounds, raced, certify) {
        ("--unroll", false, false) => {
            "program mm strategy verdict certificate events vars decisions conflicts solve_time_ms"
        }
        ("--unroll", false, true) => {
            "program mm strategy verdict certificate kind lemmas_checked proof_steps rup events \
             vars decisions conflicts solve_time_ms"
        }
        ("--unroll", true, false) => {
            "program mm mode verdict winner quarantined unknown_reason certificate events vars \
             decisions conflicts solve_time_ms"
        }
        ("--unroll", true, true) => {
            "program mm mode verdict winner quarantined unknown_reason certificate kind \
             lemmas_checked proof_steps rup events vars decisions conflicts solve_time_ms"
        }
        ("--bmc", false, false) | ("--incremental", false, false) => {
            "program mm strategy mode verdict bound certificate events vars decisions conflicts \
             solve_time_ms frames bound verdict conflicts decisions reused_learnts \
             reused_conflicts solve_time_ms"
        }
        ("--bmc", false, true) => {
            "program mm strategy mode verdict bound certificate kind lemmas_checked proof_steps \
             rup events vars decisions conflicts solve_time_ms frames bound verdict conflicts \
             decisions reused_learnts reused_conflicts solve_time_ms"
        }
        ("--bmc", true, false) | ("--incremental", true, false) => {
            "program mm mode verdict bound winner quarantined unknown_reason certificate events \
             vars decisions conflicts solve_time_ms frames bound verdict conflicts decisions \
             reused_learnts reused_conflicts solve_time_ms"
        }
        ("--bmc", true, true) => {
            "program mm mode verdict bound winner quarantined unknown_reason certificate kind \
             lemmas_checked proof_steps rup events vars decisions conflicts solve_time_ms frames \
             bound verdict conflicts decisions reused_learnts reused_conflicts solve_time_ms"
        }
        other => panic!("no pinned keys for {other:?}"),
    }
}

#[test]
fn json_keys_of_every_mode_are_pinned() {
    let file =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples/programs/locked_counter.zc");
    for bounds in BOUNDS {
        for race in RACES {
            for certify in [&[][..], &["--certify"]] {
                if bounds[0] == "--incremental" && !certify.is_empty() {
                    continue; // fails closed before printing (see above)
                }
                let args = [bounds, race, certify].concat();
                let out = verify(&file, &args);
                let stdout = String::from_utf8_lossy(&out.stdout);
                let pin = pinned_keys(bounds[0], !race.is_empty(), !certify.is_empty());
                assert_eq!(stdout.lines().count(), 3, "{args:?}");
                for line in stdout.lines() {
                    assert_eq!(keys(line), pin, "{args:?}");
                }
            }
        }
    }
}

#[test]
fn share_without_portfolio_is_the_only_usage_error() {
    let file = &examples()[0];
    for args in [&["--share"][..], &["--share-lbd-max", "3"]] {
        let out = verify(file, args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("require --portfolio"), "{args:?}: {stderr}");
    }
}

/// `--certify` has one name: the removed alias is an unknown flag.
#[test]
fn replay_witness_alias_is_a_usage_error() {
    let out = verify(&examples()[0], &["--replay-witness"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "nothing was verified");
}

/// The `strategies:` line of the usage text names `Strategy::ALL`, in order.
#[test]
fn usage_lists_exactly_the_strategies() {
    let out = Command::new(env!("CARGO_BIN_EXE_zpre-cli"))
        .output()
        .expect("zpre-cli runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    let listed = stderr
        .lines()
        .find_map(|line| line.strip_prefix("strategies: "))
        .unwrap_or_else(|| panic!("no strategies line in {stderr}"));
    let names: Vec<&str> = Strategy::ALL.iter().map(|s| s.name()).collect();
    assert_eq!(listed.split(' ').collect::<Vec<_>>(), names);
}

/// A removed strategy fails loudly instead of falling back to a default.
#[test]
fn removed_strategy_is_a_usage_error() {
    let out = verify(&examples()[0], &["--strategy", "zpre-dfs-check"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "nothing was verified");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(r#"--strategy: invalid value "zpre-dfs-check""#),
        "{stderr}"
    );
}

fn dump(file: &std::path::Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_zpre-cli"))
        .arg("dump")
        .arg(file)
        .args(args)
        .output()
        .expect("zpre-cli runs")
}

/// Every example's dump under every model exits 0, and the printed
/// instance, solved by a fresh solver, gives `verify`'s verdict.
#[test]
fn dump_reads_back_with_the_verify_verdict() {
    for file in examples() {
        let verdicts = verdicts(&verify(&file, &["--unroll", "2"]));
        for (mm, verdict) in ["sc", "tso", "pso"].into_iter().zip(verdicts) {
            let out = dump(&file, &["--mm", mm, "--unroll", "2"]);
            let what = format!("{} --mm {mm}", file.display());
            assert_eq!(out.status.code(), Some(0), "{what}");
            let read_back = match smtlib_reader::solve_dump(&String::from_utf8_lossy(&out.stdout)) {
                SolveResult::Sat => "unsafe",
                SolveResult::Unsat => "safe",
                SolveResult::Unknown => "unknown",
            };
            assert_eq!(read_back, verdict, "{what}");
            if file.ends_with("locked_counter.zc") {
                assert_eq!(read_back, "safe", "{what}: the lost update is excluded");
            }
        }
    }
}

#[test]
fn dump_exit_codes() {
    let file = &examples()[0];
    assert_eq!(dump(file, &["--mm", "all"]).status.code(), Some(2));
    let missing = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("no_such_program.zc");
    assert_eq!(dump(&missing, &[]).status.code(), Some(4));
}

fn oracle(file: &std::path::Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_zpre-cli"))
        .arg("oracle")
        .arg(file)
        .args(["--mm", "all", "--unroll", "2"])
        .output()
        .expect("zpre-cli runs")
}

/// `oracle` exits by the same table as `verify`: 1 when some model is
/// unsafe, else 3 when some model hit the state or havoc limit, else 0.
#[test]
fn oracle_exit_codes_match_verify() {
    let mut unsafe_examples = Vec::new();
    for file in examples() {
        let code = oracle(&file).status.code();
        assert_eq!(
            code,
            verify(&file, &["--unroll", "2"]).status.code(),
            "{file:?}"
        );
        if code == Some(1) {
            unsafe_examples.push(file.file_stem().unwrap().to_string_lossy().into_owned());
        }
    }
    assert_eq!(
        unsafe_examples,
        [
            "peterson",
            "racy_counter",
            "read_then_lock",
            "store_buffering"
        ]
    );
    // A width-8 havoc is wider than the oracle enumerates.
    let wide = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("wide_havoc.zc");
    std::fs::write(
        &wide,
        "shared int x = 0;\nthread main { x = nondet(n); assert(x != 3); }\n",
    )
    .expect("write program");
    let out = oracle(&wide);
    assert_eq!(out.status.code(), Some(3));
    assert!(String::from_utf8_lossy(&out.stdout).contains("resource-limit"));
}

fn batch(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_zpre-cli"))
        .arg("batch")
        .args(examples())
        .args(["--mm", "all", "--json"])
        .args(args)
        .output()
        .expect("zpre-cli runs")
}

/// The key sequences `batch --json` printed before its flags were parsed
/// into `VerifyOptions`: a solved task carries its ladder of rung records,
/// a task answered from the journal an empty one.
const BATCH_SOLVED_KEYS: &str = "task verdict bound from_journal resumed_at exhaustion ladder \
     rung strategy bound attempt verdict exhaustion error";
const BATCH_JOURNALED_KEYS: &str = "task verdict bound from_journal resumed_at exhaustion ladder";

#[test]
fn batch_json_keys_and_exit_codes_are_pinned() {
    let clean = batch(&[]);
    assert_eq!(clean.status.code(), Some(1), "an example is unsafe");
    let stdout = String::from_utf8_lossy(&clean.stdout);
    assert_eq!(stdout.lines().count(), 3 * examples().len());
    for line in stdout.lines() {
        assert_eq!(keys(line), BATCH_SOLVED_KEYS, "{line}");
    }

    let journal =
        std::env::temp_dir().join(format!("zpre-cli-batch-{}.ndjson", std::process::id()));
    let journal = journal.to_str().expect("utf-8 temp path");
    let killed = batch(&["--journal", journal, "--kill-after", "5"]);
    assert_eq!(
        killed.status.code(),
        Some(1),
        "the kill lands after an unsafe task"
    );
    let resumed = batch(&["--journal", journal, "--resume"]);
    let _ = std::fs::remove_file(journal);
    assert_eq!(resumed.status.code(), Some(1));
    for line in String::from_utf8_lossy(&resumed.stdout).lines() {
        let pin = if line.contains("\"from_journal\":true") {
            BATCH_JOURNALED_KEYS
        } else {
            BATCH_SOLVED_KEYS
        };
        assert_eq!(keys(line), pin, "{line}");
    }
    assert_eq!(verdicts(&resumed), verdicts(&clean));
}

/// `batch --trace-out` records the parse phase, as `verify --trace-out`
/// does for the same file.
#[test]
fn batch_trace_records_the_parse_phase() {
    let file =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples/programs/racy_counter.zc");
    let parse_spans = |command: &str| {
        let trace = std::env::temp_dir().join(format!(
            "zpre-cli-{command}-parse-{}.ndjson",
            std::process::id()
        ));
        let out = Command::new(env!("CARGO_BIN_EXE_zpre-cli"))
            .arg(command)
            .arg(&file)
            .args(["--mm", "sc", "--trace-out"])
            .arg(&trace)
            .output()
            .expect("zpre-cli runs");
        assert_eq!(out.status.code(), Some(1), "racy_counter is unsafe");
        let text = std::fs::read_to_string(&trace).expect("trace written");
        let _ = std::fs::remove_file(&trace);
        text.lines()
            .filter(|l| l.contains("\"t\":\"span\"") && l.contains("\"phase\":\"parse\""))
            .count()
    };
    assert_eq!(parse_spans("verify"), 1);
    assert_eq!(parse_spans("batch"), 1);
}

/// `trace stats` reports every summary counter: a batch trace's
/// `batch_checkpoints` equals the number of journal lines the batch
/// appended.
#[test]
fn batch_trace_stats_count_journal_checkpoints() {
    let tmp = |what: &str| {
        std::env::temp_dir().join(format!(
            "zpre-cli-checkpoints-{what}-{}",
            std::process::id()
        ))
    };
    let (journal, trace) = (tmp("journal"), tmp("trace"));
    let out = Command::new(env!("CARGO_BIN_EXE_zpre-cli"))
        .arg("batch")
        .args(examples())
        .args(["--mm", "all", "--max-bound", "3", "--journal"])
        .arg(&journal)
        .arg("--trace-out")
        .arg(&trace)
        .output()
        .expect("zpre-cli runs");
    assert_eq!(out.status.code(), Some(1), "an example is unsafe");
    let appended = std::fs::read_to_string(&journal)
        .expect("journal written")
        .lines()
        .count();
    let stats = Command::new(env!("CARGO_BIN_EXE_zpre-cli"))
        .args(["trace", "stats"])
        .arg(&trace)
        .arg("--json")
        .output()
        .expect("zpre-cli runs");
    let _ = std::fs::remove_file(&journal);
    let _ = std::fs::remove_file(&trace);
    assert_eq!(stats.status.code(), Some(0));
    let line = String::from_utf8_lossy(&stats.stdout);
    assert!(appended > 0, "the batch journaled its tasks");
    assert!(
        line.contains(&format!("\"batch_checkpoints\":{appended},")),
        "{appended} journal lines, stats: {line}"
    );
}
