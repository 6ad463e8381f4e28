//! The exact-counter check. On single-threaded workloads the search is
//! deterministic, so a row's work counters must repeat exactly: across the
//! passes of one run, and across runs of the same build (through a file
//! beside the benchmark executable, keyed by a hash of that executable).
//! Count-based claims rest on this; any drift fails the run.

use std::collections::BTreeMap;
use std::hash::{DefaultHasher, Hasher};
use std::path::{Path, PathBuf};

/// The counters that must repeat exactly.
pub const EXACT: &[&str] = &[
    "sat.conflicts",
    "sat.decisions",
    "sat.propagations",
    "smt.eog_checks",
    "analysis.rf_pruned",
    "encoder.solver_vars",
];

/// Per-row counter values seen so far, and every drift found.
#[derive(Default)]
pub struct Ledger {
    seen: BTreeMap<(String, String), u64>,
    earlier_runs: BTreeMap<(String, String), u64>,
    /// One line per counter that did not repeat.
    pub drift: Vec<String>,
    file: Option<PathBuf>,
}

impl Ledger {
    /// A ledger that also checks against, and extends, the file of earlier
    /// runs of the same executable on the same workload.
    pub fn persistent(dir: &Path, workload: &str) -> Result<Ledger, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let bytes = std::fs::read(&exe).map_err(|e| format!("read {}: {e}", exe.display()))?;
        let mut h = DefaultHasher::new();
        h.write(&bytes);
        let file = dir.join(format!("counters-{workload}-{:016x}.txt", h.finish()));
        let mut ledger = Ledger {
            file: Some(file.clone()),
            ..Ledger::default()
        };
        if let Ok(text) = std::fs::read_to_string(&file) {
            ledger.earlier_runs = parse(&text)?;
        }
        Ok(ledger)
    }

    /// Records `value` for `counter` on `row`; a value differing from an
    /// earlier pass or run is drift.
    pub fn observe(&mut self, row: &str, counter: &str, value: u64) {
        debug_assert!(
            EXACT.contains(&counter),
            "{counter} is not an exact counter"
        );
        let key = (row.to_string(), counter.to_string());
        if let Some(&before) = self.earlier_runs.get(&key) {
            if before != value {
                self.drift.push(format!(
                    "{row} {counter}: {value}, an earlier run saw {before}"
                ));
            }
        }
        match self.seen.get(&key) {
            Some(&before) if before != value => self.drift.push(format!(
                "{row} {counter}: {value}, an earlier pass saw {before}"
            )),
            Some(_) => {}
            None => {
                self.seen.insert(key, value);
            }
        }
    }

    /// Writes the counters for later runs to compare against. Values
    /// recorded by earlier runs are kept as they are: a run that drifts
    /// adds only the rows they did not cover.
    pub fn save(&self) -> Result<(), String> {
        let Some(file) = &self.file else {
            return Ok(());
        };
        let mut all = self.earlier_runs.clone();
        for (k, v) in &self.seen {
            all.entry(k.clone()).or_insert(*v);
        }
        let text: String = all
            .iter()
            .map(|((row, counter), v)| format!("{row} {counter} {v}\n"))
            .collect();
        let tmp = file.with_extension("tmp");
        std::fs::write(&tmp, text).map_err(|e| format!("write {}: {e}", tmp.display()))?;
        std::fs::rename(&tmp, file).map_err(|e| format!("rename {}: {e}", file.display()))
    }
}

fn parse(text: &str) -> Result<BTreeMap<(String, String), u64>, String> {
    text.lines()
        .map(|line| {
            let mut f = line.split(' ');
            match (
                f.next(),
                f.next(),
                f.next().map(str::parse::<u64>),
                f.next(),
            ) {
                (Some(row), Some(counter), Some(Ok(v)), None) => {
                    Ok(((row.to_string(), counter.to_string()), v))
                }
                _ => Err(format!("malformed counter line {line:?}")),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drift_across_passes_and_runs_is_reported() {
        let mut l = Ledger::default();
        l.observe("a@sc", "sat.conflicts", 5);
        l.observe("a@sc", "sat.conflicts", 5);
        l.observe("b@sc", "sat.conflicts", 7);
        assert!(l.drift.is_empty());
        l.observe("a@sc", "sat.conflicts", 6);
        assert_eq!(l.drift.len(), 1);

        let dir = std::env::temp_dir().join(format!("perfbench-ledger-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut first = Ledger::persistent(&dir, "w").unwrap();
        first.observe("a@sc", "smt.eog_checks", 3);
        first.save().unwrap();
        let mut second = Ledger::persistent(&dir, "w").unwrap();
        second.observe("a@sc", "smt.eog_checks", 3);
        assert!(second.drift.is_empty());
        second.observe("a@tso", "smt.eog_checks", 1);
        assert!(second.drift.is_empty(), "a new row is not drift");
        let mut third = Ledger::persistent(&dir, "w").unwrap();
        third.observe("a@sc", "smt.eog_checks", 4);
        assert_eq!(third.drift.len(), 1, "{:?}", third.drift);
        third.save().unwrap();
        let mut fourth = Ledger::persistent(&dir, "w").unwrap();
        fourth.observe("a@sc", "smt.eog_checks", 3);
        assert!(
            fourth.drift.is_empty(),
            "a drifting run replaced the record"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn malformed_ledger_lines_are_rejected() {
        assert!(parse("a@sc sat.conflicts 3\n").is_ok());
        assert!(parse("a@sc sat.conflicts x\n").is_err());
        assert!(parse("a@sc 3\n").is_err());
    }
}
