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

use std::path::PathBuf;
use std::process::{Command, Output};

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
