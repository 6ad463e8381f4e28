//! Every `zpre-cli verify` mode composes with every other.
//!
//! For every example program under every memory model, each bound mode
//! (`--unroll 2`, `--bmc 4`, `--incremental --max-bound 4`) is run plain,
//! raced (`--portfolio`), raced with clause sharing (`--portfolio
//! --share`), and each of those with and without `--certify`. Every run
//! must give the exit code and the overall per-model verdicts of its plain
//! bound mode, except that certified sweeps fail closed (exit 7, naming the
//! `sweep` stage) until sweeps can certify. The one usage error left is
//! `--share` without `--portfolio`.

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
