//! Workload generation: the row sets, their ground truth, and the seeded
//! submission order.
//!
//! A row is one (task, memory model) verdict. The program reaches the
//! verifier only as `.zc` source text, rendered here from the repository's
//! generators; the timed part of every row starts by parsing that text.

use zpre_prog::parse::parse_program;
use zpre_prog::pretty::pretty_program;
use zpre_prog::{MemoryModel, Program};
use zpre_workloads::{suite, Scale, Subcat, Task};

/// Which public entry point a workload drives.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Path {
    /// `zpre::try_verify` at the task's own unroll bound.
    Verify,
    /// `zpre::try_verify_sweep_full` over bounds `1..=SWEEP_HORIZON`.
    Sweep,
    /// `zpre::verify_portfolio` with two sharing ZPRE members.
    Portfolio,
}

/// Sweep horizon of `sweep-deep`.
pub const SWEEP_HORIZON: u32 = 8;

/// Per-row conflict budget: the repository's stand-in for the paper's
/// timeout.
pub const MAX_CONFLICTS: u64 = 200_000;

/// The tasks that need at least a thousand conflicts under some memory
/// model (plus the two closest below that line, `twolocks-3x2` and
/// `ring-broken-4`, whose search is all solver too). Fixed by name so the
/// row set cannot shift when a change makes a task easier or harder.
pub const SOLVER_TAIL: &[&str] = &[
    "pthread/counter-4x2-locked",
    "pthread/counter-3x3-locked",
    "pthread/counter-5x2-locked",
    "driver-races/openclose-4-locked",
    "pthread/twolocks-3x2",
    "divine/ring-broken-4",
    "stress/s203-4x14",
    "stress/s204-5x14",
    "stress/s205-6x12",
];

/// Tasks run under SC only. In `solver-tail` these are its two largest
/// tasks, whose conflict counts differ by about 1% across memory models:
/// `counter-5x2-locked` (≈8 s per verdict) and `s204` (≈2 s). That keeps a
/// pass near twelve seconds, so the hundred rows its 90th percentile needs
/// take five passes. In `portfolio-share`, `s204` would otherwise race for
/// ≈1.5 s under each model, half of a pass; under SC alone it also puts the
/// 90th percentile inside the cluster of `s205` row times rather than on
/// the gap below it.
const SC_ONLY: &[&str] = &["pthread/counter-5x2-locked", "stress/s204-5x14"];

/// Ground truth for the seeded `stress` family, whose generator does not
/// know its verdicts: the tasks that are unsafe under every memory model.
/// Every other `stress` task is safe under every model. Each verdict was
/// certified (`--certify`: RUP-checked proofs for safe, concretely replayed
/// witnesses for unsafe) when pinned.
const STRESS_UNSAFE: &[&str] = &[
    "stress/s103-3x6",
    "stress/s106-2x5",
    "stress/s200-3x8",
    "stress/s202-4x10",
    "stress/s203-4x14",
    "stress/s204-5x14",
    "stress/s205-6x12",
];

/// One verdict to produce.
#[derive(Clone, Debug)]
pub struct Row {
    /// `task@mm`, unique within the workload.
    pub id: String,
    /// The program as `.zc` source text.
    pub text: String,
    /// Memory model.
    pub mm: MemoryModel,
    /// The task's own unroll bound (the checked frame for sweeps).
    pub bound: u32,
    /// Ground truth: `true` = safe.
    pub expected_safe: bool,
}

/// A generated workload.
pub struct Workload {
    /// Workload name.
    pub name: &'static str,
    /// Entry point it drives.
    pub path: Path,
    /// Rows of one pass, in canonical order.
    pub rows: Vec<Row>,
    /// Passes a run makes at least, whatever `--seconds` says.
    pub min_passes: usize,
}

/// Generates the named workload and checks the `.zc` round trip on every
/// program the benchmark can render.
pub fn generate(name: &str) -> Result<Workload, String> {
    let full = suite(Scale::Full);
    let contended = zpre_bench::contended_family(3);
    for t in full.iter().chain(&contended) {
        check_round_trip(&t.program).map_err(|e| format!("{}: {e}", t.name))?;
    }
    let (name, path, tasks): (&'static str, Path, Vec<&Task>) = match name {
        "suite-light" => (
            "suite-light",
            Path::Verify,
            full.iter()
                .filter(|t| !SOLVER_TAIL.contains(&t.name.as_str()))
                .collect(),
        ),
        "solver-tail" => (
            "solver-tail",
            Path::Verify,
            full.iter()
                .filter(|t| SOLVER_TAIL.contains(&t.name.as_str()))
                .collect(),
        ),
        "sweep-deep" => (
            "sweep-deep",
            Path::Sweep,
            full.iter().filter(|t| t.program.has_loops()).collect(),
        ),
        "portfolio-share" => (
            "portfolio-share",
            Path::Portfolio,
            contended
                .iter()
                .chain(full.iter().filter(|t| t.subcat == Subcat::Stress))
                .collect(),
        ),
        other => return Err(format!("unknown workload {other:?}")),
    };
    let mut rows = Vec::new();
    for t in tasks {
        let models = if SC_ONLY.contains(&t.name.as_str()) {
            vec![MemoryModel::Sc]
        } else {
            MemoryModel::ALL.to_vec()
        };
        let text = pretty_program(&t.program);
        for mm in models {
            let expected_safe = ground_truth(t, mm)?;
            if path == Path::Sweep && t.unroll_bound > SWEEP_HORIZON {
                return Err(format!("{}: bound beyond the sweep horizon", t.name));
            }
            rows.push(Row {
                id: format!("{}@{}", t.name, mm.name()),
                text: text.clone(),
                mm,
                bound: t.unroll_bound,
                expected_safe,
            });
        }
    }
    // A portfolio's small rows are two-thread races whose time follows how
    // fast the second vCPU wakes, which changes from one stretch of seconds
    // to the next. Their median row time spread 15% over ten runs of three
    // passes (12 s) but 9% over five runs of six (24 s).
    let min_passes = if path == Path::Portfolio { 6 } else { 1 };
    Ok(Workload {
        name,
        path,
        rows,
        min_passes,
    })
}

fn ground_truth(t: &Task, mm: MemoryModel) -> Result<bool, String> {
    if let Some(safe) = t.expected.get(mm) {
        return Ok(safe);
    }
    if t.subcat == Subcat::Stress {
        return Ok(!STRESS_UNSAFE.contains(&t.name.as_str()));
    }
    Err(format!("{}: no ground truth under {}", t.name, mm.name()))
}

/// `parse_program(pretty_program(p))` must give back `p`; only the name is
/// not carried by the surface syntax.
pub fn check_round_trip(p: &Program) -> Result<(), String> {
    let mut back = parse_program(&pretty_program(p)).map_err(|e| format!("reparse: {e}"))?;
    back.name.clone_from(&p.name);
    if &back == p {
        Ok(())
    } else {
        Err("pretty-printed program parses to a different program".to_string())
    }
}

/// The order in which the closed-loop client submits one pass's rows: a
/// Fisher–Yates shuffle keyed by the run seed and the pass number.
pub fn pass_order(n: usize, seed: u64, pass: u64) -> Vec<usize> {
    let mut state = seed ^ pass.wrapping_mul(0xD1B5_4A32_D192_ED03);
    let mut next = move || {
        // splitmix64
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_have_the_documented_shape() {
        let light = generate("suite-light").unwrap();
        let tail = generate("solver-tail").unwrap();
        assert_eq!(tail.rows.len(), 9 * 3 - 4);
        assert_eq!(light.rows.len(), 546);
        // Together the two verify workloads are the whole Full suite.
        assert_eq!(
            light.rows.len() + tail.rows.len() + 4,
            suite(Scale::Full).len() * 3
        );
        let sweep = generate("sweep-deep").unwrap();
        assert_eq!(sweep.rows.len(), 24 * 3);
        let port = generate("portfolio-share").unwrap();
        assert_eq!(port.rows.len(), (4 + 18) * 3 - 2);
        for w in [&light, &tail, &sweep, &port] {
            let mut ids: Vec<&str> = w.rows.iter().map(|r| r.id.as_str()).collect();
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(ids.len(), w.rows.len(), "{}", w.name);
        }
        assert!(generate("nope").is_err());
    }

    #[test]
    fn pinned_stress_verdicts_name_real_tasks() {
        let names: Vec<String> = suite(Scale::Full).into_iter().map(|t| t.name).collect();
        for n in STRESS_UNSAFE.iter().chain(SOLVER_TAIL) {
            assert!(names.iter().any(|m| m == n), "{n}");
        }
    }

    #[test]
    fn pass_order_is_a_seeded_permutation() {
        let a = pass_order(100, 7, 0);
        assert_eq!(a, pass_order(100, 7, 0));
        assert_ne!(a, pass_order(100, 8, 0));
        assert_ne!(a, pass_order(100, 7, 1));
        let mut s = a.clone();
        s.sort_unstable();
        assert_eq!(s, (0..100).collect::<Vec<_>>());
    }
}
