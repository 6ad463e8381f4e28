//! Scratch-vs-incremental bound-sweep comparison.
//!
//! The paper's experimental setup generates one SMT instance per loop
//! unrolling bound `k = 1..=K` and solves each from scratch — every bound
//! pays its own unroll/SSA/encode/bit-blast and starts its solver cold.
//! The incremental sweep ([`zpre::try_verify_sweep`]) encodes the horizon `K`
//! once and walks the bounds inside a single solver via assumption frames,
//! inheriting learnt clauses, phase saving, activity, and the order
//! theory's fixed program-order state from earlier bounds.
//!
//! [`compare_one`] races both drivers on a task, asserts the verdicts are
//! identical (this module doubles as an equivalence oracle), and records
//! wall-clock plus reused-learnt/decision telemetry. The `sweep-bench`
//! binary appends the rows to `BENCH_SWEEP.json` as NDJSON so the perf
//! trajectory accumulates across commits.

use rayon::prelude::*;
use zpre::{try_verify, try_verify_sweep_full, Strategy, Verdict, VerifyOptions};
use zpre_prog::MemoryModel;
use zpre_workloads::Task;

use crate::runner::RunConfig;

/// One task raced through both sweep drivers under one memory model.
#[derive(Clone, Debug)]
pub struct SweepComparison {
    /// Task name.
    pub task: String,
    /// Subcategory name.
    pub subcat: String,
    /// Memory-model name.
    pub mm: String,
    /// The (identical) verdict: "safe" / "unsafe" / "unknown".
    pub verdict: String,
    /// Bound at which the scratch loop stopped.
    pub scratch_bound: u32,
    /// Bound reported by the incremental sweep (1 for loop-free programs,
    /// whose single frame answers every bound).
    pub sweep_bound: u32,
    /// Total scratch wall clock across all bounds, milliseconds
    /// (re-encoding included — each bound is a fresh instance).
    pub scratch_ms: f64,
    /// Total incremental wall clock (one encode + all frames), ms.
    pub sweep_ms: f64,
    /// Decisions summed over all scratch bounds.
    pub scratch_decisions: u64,
    /// Decisions across all incremental frames (one solver, cumulative).
    pub sweep_decisions: u64,
    /// Conflicts summed over all scratch bounds.
    pub scratch_conflicts: u64,
    /// Conflicts across all incremental frames.
    pub sweep_conflicts: u64,
    /// Frames the incremental sweep solved.
    pub frames: u32,
    /// Learnt clauses inherited from earlier frames, summed over frame
    /// entries — the state a scratch restart would have thrown away.
    pub reused_learnts: u64,
    /// `true` when the task has no loops (sweep collapses to one frame).
    pub loop_free: bool,
}

impl SweepComparison {
    /// Scratch-over-incremental wall-clock ratio (> 1 means the sweep won).
    pub fn speedup(&self) -> f64 {
        if self.sweep_ms > 0.0 {
            self.scratch_ms / self.sweep_ms
        } else {
            f64::INFINITY
        }
    }

    /// One NDJSON line for `BENCH_SWEEP.json`.
    pub fn json_line(&self, tag: &str) -> String {
        format!(
            "{{\"tag\": \"{}\", \"task\": \"{}\", \"subcat\": \"{}\", \"mm\": \"{}\", \
             \"verdict\": \"{}\", \"scratch_bound\": {}, \"sweep_bound\": {}, \
             \"scratch_ms\": {:.3}, \"sweep_ms\": {:.3}, \"speedup\": {:.2}, \
             \"scratch_decisions\": {}, \"sweep_decisions\": {}, \
             \"scratch_conflicts\": {}, \"sweep_conflicts\": {}, \
             \"frames\": {}, \"reused_learnts\": {}, \"loop_free\": {}}}",
            tag,
            self.task,
            self.subcat,
            self.mm,
            self.verdict,
            self.scratch_bound,
            self.sweep_bound,
            self.scratch_ms,
            self.sweep_ms,
            self.speedup(),
            self.scratch_decisions,
            self.sweep_decisions,
            self.scratch_conflicts,
            self.sweep_conflicts,
            self.frames,
            self.reused_learnts,
            self.loop_free,
        )
    }
}

fn verdict_str(v: Verdict) -> &'static str {
    match v {
        Verdict::Safe => "safe",
        Verdict::Unsafe => "unsafe",
        Verdict::Unknown => "unknown",
    }
}

/// Races the per-bound scratch protocol against the incremental sweep on
/// one (task, memory model) pair and asserts the verdicts agree at every
/// bound.
///
/// Both sides follow the paper's evaluation protocol — a verdict at
/// **every** bound `1..=max_bound` (each per-bound SMT instance is an
/// independent benchmark there). Scratch pays a fresh unroll/encode/solve
/// per bound; the incremental driver encodes the horizon once and walks
/// the frames inside one solver. A loop-free program's single frame
/// stands in for all bounds (its instance is bound-independent), which is
/// exactly the reuse the sweep is meant to deliver.
///
/// # Panics
///
/// Panics when the two drivers disagree on any bound's verdict — a bench
/// run is also an equivalence check, and a divergence must sink it loudly.
pub fn compare_one(
    task: &Task,
    mm: MemoryModel,
    max_bound: u32,
    cfg: &RunConfig,
) -> SweepComparison {
    let base = VerifyOptions {
        mm,
        strategy: Strategy::Zpre,
        unroll_bound: task.unroll_bound,
        max_bound,
        max_conflicts: Some(cfg.max_conflicts),
        timeout: cfg.timeout,
        max_memory: None,
        seed: cfg.seed,
        validate_models: cfg.validate,
        want_trace: false,
        cancel: None,
        certify: false,
        fault: None,
        recorder: None,
        share: None,
        prune: cfg.prune,
    };

    // Scratch: one fresh instance per bound, each paying its own encode.
    let t0 = std::time::Instant::now();
    let mut scratch_verdicts: Vec<Verdict> = Vec::new();
    let mut scratch_bound = max_bound;
    let mut scratch_decisions = 0u64;
    let mut scratch_conflicts = 0u64;
    for k in 1..=max_bound {
        let opts = VerifyOptions {
            unroll_bound: k,
            ..base.clone()
        };
        let out = try_verify(&task.program, &opts)
            .unwrap_or_else(|e| panic!("{} {mm}: scratch bound {k}: {e}", task.name));
        scratch_decisions += out.stats.decisions;
        scratch_conflicts += out.stats.conflicts;
        if scratch_verdicts.iter().all(|&v| v == Verdict::Safe) {
            scratch_bound = k;
        }
        scratch_verdicts.push(out.verdict);
        if out.verdict == Verdict::Unknown {
            break;
        }
    }
    let scratch_ms = t0.elapsed().as_secs_f64() * 1e3;

    // Incremental: one encode at the horizon, one solver across frames.
    let t1 = std::time::Instant::now();
    let sweep = try_verify_sweep_full(&task.program, &base)
        .unwrap_or_else(|e| panic!("{} {mm}: sweep: {e}", task.name));
    let sweep_ms = t1.elapsed().as_secs_f64() * 1e3;

    for (i, &scratch_v) in scratch_verdicts.iter().enumerate() {
        // A loop-free sweep's single frame answers for every bound.
        let frame = if sweep.loop_free {
            &sweep.frames[0]
        } else {
            &sweep.frames[i]
        };
        assert_eq!(
            frame.verdict,
            scratch_v,
            "{} {mm}: bound {} verdict diverges between sweep and scratch",
            task.name,
            i + 1
        );
    }
    let scratch_verdict = scratch_verdicts
        .iter()
        .copied()
        .find(|&v| v != Verdict::Safe)
        .unwrap_or(Verdict::Safe);
    assert_eq!(
        sweep.verdict, scratch_verdict,
        "{} {mm}: overall verdict diverges between sweep and scratch",
        task.name
    );

    SweepComparison {
        task: task.name.clone(),
        subcat: task.subcat.name().to_string(),
        mm: mm.name().to_string(),
        verdict: verdict_str(sweep.verdict).to_string(),
        scratch_bound,
        sweep_bound: sweep.bound,
        scratch_ms,
        sweep_ms,
        scratch_decisions,
        scratch_conflicts,
        sweep_decisions: sweep.stats.decisions,
        sweep_conflicts: sweep.stats.conflicts,
        frames: sweep.frames.len() as u32,
        reused_learnts: sweep.frames.iter().map(|f| f.reused_learnts).sum(),
        loop_free: sweep.loop_free,
    }
}

/// Races `tasks × mms` in parallel.
pub fn compare_suite(
    tasks: &[Task],
    mms: &[MemoryModel],
    max_bound: u32,
    cfg: &RunConfig,
) -> Vec<SweepComparison> {
    let mut jobs: Vec<(&Task, MemoryModel)> = Vec::new();
    for t in tasks {
        for &mm in mms {
            jobs.push((t, mm));
        }
    }
    jobs.par_iter()
        .map(|&(task, mm)| compare_one(task, mm, max_bound, cfg))
        .collect()
}

/// Aggregate wall clock for a set of comparison rows.
#[derive(Clone, Debug, Default)]
pub struct SweepAggregate {
    /// Rows aggregated.
    pub rows: usize,
    /// Total scratch wall clock, ms.
    pub scratch_ms: f64,
    /// Total incremental wall clock, ms.
    pub sweep_ms: f64,
    /// Total learnt clauses inherited across frame entries.
    pub reused_learnts: u64,
    /// Total incremental decisions.
    pub sweep_decisions: u64,
    /// Total scratch decisions.
    pub scratch_decisions: u64,
}

impl SweepAggregate {
    /// Aggregates a slice of rows.
    pub fn of(rows: &[SweepComparison]) -> SweepAggregate {
        let mut a = SweepAggregate {
            rows: rows.len(),
            ..SweepAggregate::default()
        };
        for r in rows {
            a.scratch_ms += r.scratch_ms;
            a.sweep_ms += r.sweep_ms;
            a.reused_learnts += r.reused_learnts;
            a.sweep_decisions += r.sweep_decisions;
            a.scratch_decisions += r.scratch_decisions;
        }
        a
    }

    /// Aggregate scratch-over-incremental speedup.
    pub fn speedup(&self) -> f64 {
        if self.sweep_ms > 0.0 {
            self.scratch_ms / self.sweep_ms
        } else {
            f64::INFINITY
        }
    }

    /// One NDJSON summary line for `BENCH_SWEEP.json`.
    pub fn json_line(&self, tag: &str, family: &str) -> String {
        format!(
            "{{\"tag\": \"{}\", \"family\": \"{}\", \"rows\": {}, \
             \"scratch_ms\": {:.3}, \"sweep_ms\": {:.3}, \"speedup\": {:.2}, \
             \"scratch_decisions\": {}, \"sweep_decisions\": {}, \"reused_learnts\": {}}}",
            tag,
            family,
            self.rows,
            self.scratch_ms,
            self.sweep_ms,
            self.speedup(),
            self.scratch_decisions,
            self.sweep_decisions,
            self.reused_learnts,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zpre_workloads::{subcategory, Scale, Subcat};

    #[test]
    fn stress_rows_agree_and_carry_telemetry() {
        let tasks: Vec<Task> = subcategory(Scale::Quick, Subcat::Stress)
            .into_iter()
            .take(2)
            .collect();
        let cfg = RunConfig::default();
        let rows = compare_suite(&tasks, &[MemoryModel::Sc], 4, &cfg);
        assert_eq!(rows.len(), 2);
        for r in &rows {
            // compare_one asserted the verdicts already; the rows must be
            // well-formed on top of that.
            assert!(r.loop_free, "stress tasks are loop-free");
            assert_eq!(r.frames, 1, "loop-free sweep collapses to one frame");
            assert!(r.scratch_ms > 0.0 && r.sweep_ms > 0.0);
        }
        let agg = SweepAggregate::of(&rows);
        assert_eq!(agg.rows, 2);
        let line = agg.json_line("test", "stress");
        assert!(line.contains("\"family\": \"stress\""));
    }

    #[test]
    fn loopy_task_reuses_learnt_state() {
        use zpre_prog::build::*;
        let p = ProgramBuilder::new("kstar4")
            .shared("x", 0)
            .main(vec![
                while_(lt(v("x"), c(4)), vec![assign("x", add(v("x"), c(1)))]),
                assert_(ne(v("x"), c(4))),
            ])
            .build();
        let task = Task::new("loopy/kstar4", Subcat::Ext, p, 6, Default::default());
        let row = compare_one(&task, MemoryModel::Sc, 6, &RunConfig::default());
        assert_eq!(row.verdict, "unsafe");
        assert_eq!(row.sweep_bound, 4);
        assert_eq!(row.frames, 6, "full protocol solves every bound");
        assert!(!row.loop_free);
    }
}
