//! One A/B loop for every two-sided comparison the repository measures.
//!
//! A [`Pair`] is a set of workload families, two [`Side`]s and a gate.
//! Each side is one verification call returning
//! `Result<VerifyOutcome, VerifyError>`, timed as wall clock around that
//! call, with a fresh counters-only recorder attached on both sides. For
//! each of `reps` repetitions, [`run`] solves every (task, memory model)
//! row once per side, alternating which side goes first, and checks that
//! both sides agree: the same verdict, and the same verdict at every bound
//! (a loop-free program's one instance answers for every bound). An
//! unknown on one side is a disagreement; any disagreement or error fails
//! the run.
//!
//! The per-row time is the median over the repetitions. Family sums follow
//! the paper's §5 both-solved convention: rows where both sides exhaust the
//! budget are excluded from the gated time (with identical budgets such a
//! row measures per-conflict overhead, never time-to-verdict), but still
//! count for agreement and the counters. The `ab-bench` binary prints
//! [`table`] and the [`Check`]s, and appends [`Report::ndjson`].
//!
//! | pair    | side A                 | side B                  | gate |
//! |---------|------------------------|-------------------------|------|
//! | `sweep` | scratch at every bound | `try_verify_sweep_full` | stress+wmm ≥ 1.5× |
//! | `bmc`   | `verify_bmc`           | `try_verify_sweep`      | bug-at-bound-1 split (info) |
//! | `share` | isolated portfolio     | shared portfolio        | tolerance, `sh_import_hits > 0` |
//! | `prune` | `prune: false`         | `prune: true`           | tolerance, heavy vars removed |

use std::fmt::Write as _;
use std::time::Instant;

use zpre::{
    try_verify, try_verify_sweep, try_verify_sweep_full, verify_bmc, verify_portfolio,
    PortfolioOptions, ShareConfig, Verdict, VerifyError, VerifyOptions, VerifyOutcome,
};
use zpre_obs::ndjson::{Dec, Obj};
use zpre_obs::{Counter, Counters};
use zpre_prog::{to_ssa, unroll_program, MemoryModel};
use zpre_workloads::{subcategory, suite, Scale, Subcat, Task};

use crate::families::{contended_family, loopy_family};
use crate::runner::{counters_recorder, RunConfig};

/// One side's call: runs a task under the row's options (memory model,
/// the task's unroll bound, the horizon and a recorder already set).
pub type Run = fn(&Task, &VerifyOptions) -> Result<VerifyOutcome, VerifyError>;

/// One side of a pair: its column name and its call.
pub type Side = (&'static str, Run);

/// A named comparison: its families, its two sides and its gate.
pub struct Pair {
    /// Pair name (the `ab-bench` argument and the NDJSON `pair` field).
    pub name: &'static str,
    /// Table title.
    pub title: &'static str,
    /// Workload families, each solved under every memory model.
    pub families: Vec<(&'static str, Vec<Task>)>,
    /// Side A (the reference) and side B; speedups read A over B.
    pub sides: [Side; 2],
    /// The pair's own checks on top of verdict agreement.
    pub gate: Gate,
}

/// A pair's own checks over a finished run.
pub type Gate = fn(&Report, &AbOptions) -> Vec<Check>;

/// Settings shared by every pair.
#[derive(Clone, Debug)]
pub struct AbOptions {
    /// Row options: budget, seed, horizon (`max_bound`); the loop sets the
    /// memory model, unroll bound and recorder per row.
    pub base: VerifyOptions,
    /// Alternating repetitions per row.
    pub reps: usize,
    /// Timing gates' slack, percent: B may take up to `1 + pct/100` times A.
    pub tolerance_pct: f64,
}

impl Default for AbOptions {
    fn default() -> AbOptions {
        AbOptions {
            base: RunConfig::default().base,
            reps: 3,
            tolerance_pct: 15.0,
        }
    }
}

/// The recorder counters reported per side after its decision total (every
/// member of a race): conflicts, EOG cycle-check visited nodes, learnt
/// clauses inherited across sweep frames, and the share pool's exports,
/// imports and import hits. A side's NDJSON keys are `decisions` and these
/// counters' trace names, prefixed `a_`/`b_`.
pub const COUNTERS: [Counter; 6] = [
    Counter::Conflicts,
    Counter::CycleVisited,
    Counter::FrameReusedLearnts,
    Counter::ShExported,
    Counter::ShImported,
    Counter::ShImportHits,
];

/// `(key, value)` of every counter reported for `work`: `decisions`, then
/// [`COUNTERS`].
fn columns(work: &Counters) -> impl Iterator<Item = (&'static str, u64)> + '_ {
    let counters = COUNTERS.into_iter().map(|c| (c.name(), work[c]));
    std::iter::once(("decisions", work.total_decisions())).chain(counters)
}

/// One side of one row: its times over the repetitions and its last
/// outcome.
#[derive(Clone, Debug, Default)]
pub struct SideRun {
    /// Wall-clock milliseconds, one per repetition.
    pub ms: Vec<f64>,
    /// Verdict (`Unknown` on an error).
    pub verdict: Verdict,
    /// Deciding bound.
    pub bound: u32,
    /// Frames solved.
    pub frames: usize,
    /// Recorder counters.
    pub work: Counters,
}

impl SideRun {
    /// Median wall clock over the repetitions.
    pub fn median_ms(&self) -> f64 {
        let mut xs = self.ms.clone();
        xs.sort_by(f64::total_cmp);
        let n = xs.len();
        match n {
            0 => 0.0,
            _ if n % 2 == 1 => xs[n / 2],
            _ => (xs[n / 2 - 1] + xs[n / 2]) / 2.0,
        }
    }
}

/// One (task, memory model) row.
#[derive(Clone, Debug)]
pub struct Row<'p> {
    /// Family name.
    pub family: &'static str,
    /// The task.
    pub task: &'p Task,
    /// Memory model.
    pub mm: MemoryModel,
    /// Side A and side B.
    pub sides: [SideRun; 2],
    /// Both sides agreed in every repetition.
    pub agree: bool,
}

impl Row<'_> {
    /// Both sides exhausted the budget: excluded from gated time.
    pub fn both_unknown(&self) -> bool {
        self.sides.iter().all(|s| s.verdict == Verdict::Unknown)
    }
}

/// Sums over a set of rows.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Sum {
    /// Rows summed.
    pub rows: usize,
    /// Rows where both sides were unknown (not in `ms`).
    pub excluded: usize,
    /// Per-side sum of row medians over the both-solved rows.
    pub ms: [f64; 2],
    /// Per-side counters over every row.
    pub work: [Counters; 2],
}

impl Sum {
    /// A over B (> 1 means side B was faster).
    pub fn speedup(&self) -> f64 {
        if self.ms[1] > 0.0 {
            self.ms[0] / self.ms[1]
        } else {
            f64::INFINITY
        }
    }
}

/// A gate's verdict on one measured property.
#[derive(Clone, Debug, PartialEq)]
pub struct Check {
    /// What was measured, with its value and bar.
    pub what: String,
    /// Pass or fail; `None` is reported but not gated.
    pub ok: Option<bool>,
}

impl Check {
    fn gate(what: String, ok: bool) -> Check {
        Check { what, ok: Some(ok) }
    }

    fn info(what: String) -> Check {
        Check { what, ok: None }
    }
}

/// The rows of one run and every disagreement seen.
pub struct Report<'p> {
    /// The pair that ran.
    pub pair: &'p Pair,
    /// Rows in family, task, memory-model order.
    pub rows: Vec<Row<'p>>,
    /// One line per disagreement or error.
    pub failures: Vec<String>,
}

impl Report<'_> {
    /// Sums the rows whose family `keep` accepts.
    pub fn sum(&self, keep: impl Fn(&str) -> bool) -> Sum {
        let mut s = Sum::default();
        for r in self.rows.iter().filter(|r| keep(r.family)) {
            s.rows += 1;
            s.excluded += usize::from(r.both_unknown());
            for (i, side) in r.sides.iter().enumerate() {
                if !r.both_unknown() {
                    s.ms[i] += side.median_ms();
                }
                s.work[i].accumulate(&side.work);
            }
        }
        s
    }

    /// One sum per non-empty family, in family order.
    pub fn families(&self) -> Vec<(&'static str, Sum)> {
        let families = self.pair.families.iter();
        families
            .filter(|(_, tasks)| !tasks.is_empty())
            .map(|&(name, _)| (name, self.sum(|f| f == name)))
            .collect()
    }

    /// Verdict agreement plus the pair's gate.
    pub fn checks(&self, opts: &AbOptions) -> Vec<Check> {
        let (n, rows, reps) = (self.failures.len(), self.rows.len(), opts.reps);
        let what =
            format!("verdict agreement: {n} disagreement(s) over {rows} rows x {reps} rep(s)");
        let mut checks = vec![Check::gate(what, n == 0)];
        checks.extend((self.pair.gate)(self, opts));
        checks
    }

    /// Row, family, check and aggregate lines, one flat JSON object each.
    pub fn ndjson(&self, tag: &str, checks: &[Check]) -> Vec<String> {
        let [a, b] = self.pair.sides.map(|s| s.0);
        let head = |kind: &str| {
            Obj::new()
                .field("tag", tag)
                .field("pair", self.pair.name)
                .field("kind", kind)
                .field("a", a)
                .field("b", b)
        };
        let mut lines = Vec::new();
        for r in &self.rows {
            let mut l = head("row")
                .field("family", r.family)
                .field("task", &r.task.name)
                .field("mm", r.mm.name())
                .field("agree", r.agree)
                .field("both_unknown", r.both_unknown());
            for (p, s) in ["a", "b"].into_iter().zip(&r.sides) {
                l = l
                    .field(&format!("{p}_verdict"), s.verdict.to_string())
                    .field(&format!("{p}_bound"), s.bound)
                    .field(&format!("{p}_frames"), s.frames)
                    .field(&format!("{p}_ms"), Dec(s.median_ms()));
                l = with_work(l, p, &s.work);
            }
            lines.push(l.finish());
        }
        let sum = |family: &str, s: &Sum| {
            let l = head("family")
                .field("family", family)
                .field("rows", s.rows)
                .field("excluded", s.excluded)
                .field("a_ms", Dec(s.ms[0]))
                .field("b_ms", Dec(s.ms[1]))
                .field("speedup", Dec(s.speedup()));
            with_work(with_work(l, "a", &s.work[0]), "b", &s.work[1]).finish()
        };
        lines.extend(self.families().iter().map(|(f, s)| sum(f, s)));
        lines.push(sum("all", &self.sum(|_| true)));
        for c in checks {
            lines.push(
                head("check")
                    .field("check", &c.what)
                    .field("ok", c.ok)
                    .finish(),
            );
        }
        let aggregate = head("aggregate")
            .field("rows", self.rows.len())
            .field("reps", self.rows.first().map_or(0, |r| r.sides[0].ms.len()))
            .field("disagreements", self.failures.len())
            .field("accept", accept(checks));
        lines.push(aggregate.finish());
        lines
    }
}

/// `o` with every counter reported for `work`, its keys prefixed
/// `{prefix}_`.
fn with_work(o: Obj, prefix: &str, work: &Counters) -> Obj {
    columns(work).fold(o, |o, (k, v)| o.field(&format!("{prefix}_{k}"), v))
}

/// `true` when no check failed.
pub fn accept(checks: &[Check]) -> bool {
    checks.iter().all(|c| c.ok != Some(false))
}

/// Two outcomes agree when their verdicts match and so does every frame:
/// pairwise by bound for a program with loops, and all one verdict for a
/// loop-free program, whose one instance answers for every bound.
fn agree(task: &Task, a: &VerifyOutcome, b: &VerifyOutcome) -> bool {
    let (fa, fb) = (&a.frames, &b.frames);
    let frames = if task.program.has_loops() {
        let key = |f: &zpre::FrameOutcome| (f.bound, f.verdict);
        fa.len() == fb.len() && fa.iter().zip(fb).all(|(x, y)| key(x) == key(y))
    } else {
        fa.iter().chain(fb).all(|f| f.verdict == a.verdict)
    };
    a.verdict == b.verdict && frames
}

/// Runs every row of `pair` `opts.reps` times per side, side A first on
/// even repetitions and side B first on odd ones.
pub fn run<'p>(pair: &'p Pair, opts: &AbOptions) -> Report<'p> {
    let mut rows = Vec::new();
    for (family, tasks) in &pair.families {
        for task in tasks {
            for mm in MemoryModel::ALL {
                let (family, sides) = (*family, Default::default());
                rows.push(Row {
                    family,
                    task,
                    mm,
                    sides,
                    agree: true,
                });
            }
        }
    }
    let [na, nb] = pair.sides.map(|s| s.0);
    let mut failures = Vec::new();
    for rep in 0..opts.reps.max(1) {
        let order = if rep % 2 == 0 { [0, 1] } else { [1, 0] };
        for row in &mut rows {
            let task = row.task;
            let mut outs = [Ok(VerifyOutcome::default()), Ok(VerifyOutcome::default())];
            for i in order {
                let rec = counters_recorder();
                let o = VerifyOptions {
                    mm: row.mm,
                    unroll_bound: task.unroll_bound,
                    recorder: Some(rec.clone()),
                    ..opts.base.clone()
                };
                let t0 = Instant::now();
                let out = (pair.sides[i].1)(task, &o);
                let side = &mut row.sides[i];
                side.ms.push(t0.elapsed().as_secs_f64() * 1e3);
                side.work = rec.counters();
                (side.verdict, side.bound, side.frames) = match &out {
                    Ok(out) => (out.verdict, out.bound, out.frames.len()),
                    Err(_) => (Verdict::Unknown, 0, 0),
                };
                outs[i] = out;
            }
            let failure = match &outs {
                [Ok(a), Ok(b)] if agree(task, a, b) => continue,
                [Ok(a), Ok(b)] => format!(
                    "{na}={} (bound {}) {nb}={} (bound {})",
                    a.verdict, a.bound, b.verdict, b.bound
                ),
                [Err(e), _] => format!("{na} failed: {e}"),
                [_, Err(e)] => format!("{nb} failed: {e}"),
            };
            row.agree = false;
            let mm = row.mm.name();
            failures.push(format!("{} {mm} rep {rep}: {failure}", task.name));
        }
    }
    Report {
        pair,
        rows,
        failures,
    }
}

/// Renders family sums: times, the speedup, the decisions and every
/// [`COUNTERS`] counter as `a/b`, and a speedup bar.
pub fn table(title: &str, sides: [&str; 2], families: &[(&str, Sum)]) -> String {
    let [a, b] = sides.map(|s| format!("{s}(ms)"));
    let mut out = format!("{title}\n");
    let _ = write!(
        out,
        "{:<13} {:>5} {:>5} {a:>14} {b:>14} {:>8}",
        "family", "rows", "excl", "speedup"
    );
    for (k, _) in columns(&Counters::default()) {
        let _ = write!(out, " {k:>15}");
    }
    out.push_str("  speedup\n");
    for (family, s) in families {
        let (x, rows, excl) = (s.speedup(), s.rows, s.excluded);
        let [ma, mb] = s.ms;
        let _ = write!(
            out,
            "{family:<13} {rows:>5} {excl:>5} {ma:>14.1} {mb:>14.1} {x:>7.2}x"
        );
        for ((_, a), (_, b)) in columns(&s.work[0]).zip(columns(&s.work[1])) {
            let _ = write!(out, " {:>15}", format!("{a}/{b}"));
        }
        let bar = (x * 10.0).round().clamp(0.0, 60.0) as usize;
        let _ = writeln!(out, "  {}", "#".repeat(bar));
    }
    out
}

/// The pair names [`pair`] knows.
pub const PAIRS: [&str; 4] = ["sweep", "bmc", "share", "prune"];

/// The pair called `name`, its families at quick or full scale.
pub fn pair(name: &str, quick: bool) -> Option<Pair> {
    let scale = if quick { Scale::Quick } else { Scale::Full };
    let stress = ("stress", subcategory(scale, Subcat::Stress));
    let wmm = ("wmm", subcategory(scale, Subcat::Wmm));
    let contended = ("contended", contended_family(if quick { 2 } else { 4 }));
    let pthread = ("pthread", subcategory(scale, Subcat::Pthread));
    let loops = || suite(scale).into_iter().filter(|t| t.program.has_loops());
    let (title, families, sides, gate): (_, _, [Side; 2], Gate) = match name {
        "sweep" => (
            "Bound sweep: scratch at every bound vs one incremental solver",
            vec![stress, wmm, ("loopy", loopy_family())],
            [("scratch", every_bound), ("sweep", sweep_full)],
            sweep_gate,
        ),
        "bmc" => (
            "Bounds 1..K: per-bound loop vs incremental sweep",
            vec![("loops", loops().collect())],
            [("bmc", bmc), ("sweep", sweep)],
            bmc_split,
        ),
        "share" => (
            "Portfolio clause sharing: isolated vs shared",
            vec![stress, wmm, contended],
            [("isolated", isolated), ("shared", shared)],
            share_gate,
        ),
        "prune" => (
            "Static interference pruning: unpruned vs pruned",
            vec![stress, wmm, pthread, contended],
            [("unpruned", prune::<false>), ("pruned", prune::<true>)],
            prune_gate,
        ),
        _ => return None,
    };
    let name = PAIRS.into_iter().find(|p| *p == name)?;
    Some(Pair {
        name,
        title,
        families,
        sides,
        gate,
    })
}

type Outcome = Result<VerifyOutcome, VerifyError>;

/// The paper's per-bound protocol: a fresh instance at every bound
/// `1..=max_bound`, loop-free programs included, stopping only after an
/// `Unknown` bound. Reports the first non-`Safe` bound's outcome (the last
/// bound's when all are `Safe`) with every bound's frame.
fn every_bound(task: &Task, o: &VerifyOptions) -> Outcome {
    let last = o.max_bound.max(1);
    let mut frames = Vec::new();
    let mut decided = None;
    let mut o = o.clone();
    for k in 1..=last {
        o.unroll_bound = k;
        let mut out = try_verify(&task.program, &o)?;
        frames.append(&mut out.frames);
        let verdict = out.verdict;
        if decided.is_none() && (verdict != Verdict::Safe || k == last) {
            decided = Some(out);
        }
        if verdict == Verdict::Unknown {
            break;
        }
    }
    let decided = decided.expect("the last bound decides");
    Ok(VerifyOutcome { frames, ..decided })
}

fn sweep_full(t: &Task, o: &VerifyOptions) -> Outcome {
    try_verify_sweep_full(&t.program, o)
}

fn sweep(t: &Task, o: &VerifyOptions) -> Outcome {
    try_verify_sweep(&t.program, o)
}

fn bmc(t: &Task, o: &VerifyOptions) -> Outcome {
    verify_bmc(&t.program, o.max_bound, o)
}

fn isolated(t: &Task, o: &VerifyOptions) -> Outcome {
    Ok(verify_portfolio(&t.program, &PortfolioOptions::new(o.clone())).outcome)
}

fn shared(t: &Task, o: &VerifyOptions) -> Outcome {
    let folio = PortfolioOptions::new(o.clone()).with_share(ShareConfig::default());
    Ok(verify_portfolio(&t.program, &folio).outcome)
}

fn prune<const ON: bool>(t: &Task, o: &VerifyOptions) -> Outcome {
    let mut o = o.clone();
    o.prune = ON;
    try_verify(&t.program, &o)
}

/// The stress+wmm sweep is at least 1.5x faster than scratch.
fn sweep_gate(r: &Report, _: &AbOptions) -> Vec<Check> {
    let s = r.sum(|f| f == "stress" || f == "wmm");
    let ([a, b], x) = (s.ms, s.speedup());
    let what = format!("stress+wmm: scratch {a:.1} ms vs sweep {b:.1} ms => {x:.2}x (bar 1.5x)");
    vec![Check::gate(what, x >= 1.5)]
}

/// Shared within tolerance of isolated, with import hits.
fn share_gate(r: &Report, opts: &AbOptions) -> Vec<Check> {
    let hits = r.sum(|_| true).work[1][Counter::ShImportHits];
    let what = format!("import hits {hits} (bar > 0)");
    vec![within_tolerance(r, opts), Check::gate(what, hits > 0)]
}

/// Pruned within tolerance of unpruned, and the lock/join-heavy families
/// (`pthread`, `contended`) lose interference variables.
fn prune_gate(r: &Report, opts: &AbOptions) -> Vec<Check> {
    let heavy = r
        .pair
        .families
        .iter()
        .filter(|(f, _)| *f == "pthread" || *f == "contended");
    let tasks = heavy.flat_map(|(_, tasks)| tasks);
    let ledgers = tasks.flat_map(|t| MemoryModel::ALL.map(|mm| var_ledger(t, mm)));
    let (full, left) = ledgers.fold((0, 0), |(f, l), (full, left)| (f + full, l + left));
    let removed = full.saturating_sub(left);
    let what = format!("lock/join-heavy vars {full} -> {left}, removed {removed} (bar > 0)");
    vec![within_tolerance(r, opts), Check::gate(what, removed > 0)]
}

/// B's both-solved time within `tolerance_pct` of A's.
fn within_tolerance(r: &Report, opts: &AbOptions) -> Check {
    let s = r.sum(|_| true);
    let ([a, b], [ma, mb], n) = (r.pair.sides.map(|s| s.0), s.ms, s.excluded);
    let bar = 1.0 + opts.tolerance_pct / 100.0;
    let what =
        format!("both-solved ({n} excluded): {a} {ma:.1} ms vs {b} {mb:.1} ms (bar {bar:.2}x)");
    Check::gate(what, mb <= ma * bar)
}

/// The `bmc` pair's report: rows whose bug is at bound 1 (where the
/// per-bound loop builds one instance, as the sweep does) and all others.
fn bmc_split(r: &Report, _: &AbOptions) -> Vec<Check> {
    let shallow = |row: &&Row| row.sides[0].verdict == Verdict::Unsafe && row.sides[0].bound == 1;
    let split = [("bug at bound 1", true), ("all others", false)].map(|(name, want)| {
        let rows: Vec<&Row> = r.rows.iter().filter(|row| shallow(row) == want).collect();
        let [b, s] = [0, 1].map(|i| rows.iter().map(|row| row.sides[i].median_ms()).sum::<f64>());
        let wins = rows
            .iter()
            .filter(|row| row.sides[0].median_ms() < row.sides[1].median_ms());
        let (wins, n, x) = (wins.count(), rows.len(), b / s);
        let what = format!(
            "{name}: {n} rows, bmc {b:.1} ms vs sweep {s:.1} ms => {x:.2}x, \
             bmc faster on {wins}/{n}"
        );
        Check::info(what)
    });
    split.into()
}

/// Reruns the analysis pass standalone and returns `(vars_full,
/// vars_left)`: the interference variables the unpruned encoder emits vs
/// what survives the prune report.
fn var_ledger(task: &Task, mm: MemoryModel) -> (u64, u64) {
    let ssa = to_ssa(&unroll_program(&task.program, task.unroll_bound));
    let r = zpre_analysis::analyze(&ssa, mm);
    (r.unpruned_interference_vars(), r.interference_vars())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    fn quick_stress(n: usize) -> Vec<Task> {
        subcategory(Scale::Quick, Subcat::Stress)
            .into_iter()
            .take(n)
            .collect()
    }

    fn solve(t: &Task, o: &VerifyOptions) -> Result<VerifyOutcome, VerifyError> {
        try_verify(&t.program, o)
    }

    fn test_pair(families: Vec<(&'static str, Vec<Task>)>, [a, b]: [Run; 2]) -> Pair {
        Pair {
            name: "test",
            title: "test",
            families,
            sides: [("a", a), ("b", b)],
            gate: |_, _| Vec::new(),
        }
    }

    fn reps(reps: usize) -> AbOptions {
        AbOptions {
            reps,
            ..AbOptions::default()
        }
    }

    #[test]
    fn flipped_verdict_fails_the_run_and_its_gate() {
        let flipped: Run = |t, o| {
            let mut out = solve(t, o)?;
            out.verdict = match out.verdict {
                Verdict::Safe => Verdict::Unsafe,
                _ => Verdict::Safe,
            };
            Ok(out)
        };
        let prune = pair("prune", true).expect("prune pair");
        let sides = [prune.sides[0], ("flipped", flipped)];
        let p = Pair {
            families: vec![("stress", quick_stress(1))],
            sides,
            ..prune
        };
        let opts = reps(1);
        let report = run(&p, &opts);
        assert_eq!(report.rows.len(), 3);
        assert_eq!(report.failures.len(), 3, "{:?}", report.failures);
        assert!(report.rows.iter().all(|r| !r.agree));
        let checks = report.checks(&opts);
        assert_eq!(checks[0].ok, Some(false), "{checks:?}");
        assert!(!accept(&checks));
        let lines = report.ndjson("t", &checks);
        assert!(lines.last().unwrap().contains("\"accept\":false"));
    }

    #[test]
    fn both_unknown_rows_leave_gated_time_but_count_for_agreement() {
        let program = quick_stress(1)[0].program.clone();
        let hard = Task::new("hard", Subcat::Ext, program, 1, Default::default());
        let unknown_on_hard: Run = |t, o| {
            if t.name == "hard" {
                Ok(VerifyOutcome::default())
            } else {
                solve(t, o)
            }
        };
        let mixed = vec![("mixed", vec![quick_stress(1).remove(0), hard.clone()])];
        let p = test_pair(mixed, [unknown_on_hard; 2]);
        let report = run(&p, &reps(1));
        assert!(report.failures.is_empty(), "{:?}", report.failures);
        let s = report.sum(|_| true);
        assert_eq!((s.rows, s.excluded), (6, 3));
        let solved = report.rows.iter().filter(|r| r.task.name != "hard");
        let solved_ms: f64 = solved.map(|r| r.sides[0].median_ms()).sum();
        assert_eq!(s.ms[0], solved_ms, "both-unknown rows add no time");

        // Unknown on one side only is a disagreement, and stays gated.
        let p = test_pair(vec![("mixed", vec![hard])], [unknown_on_hard, solve]);
        let report = run(&p, &reps(1));
        assert_eq!(report.failures.len(), 3, "{:?}", report.failures);
        assert_eq!(report.sum(|_| true).excluded, 0);
    }

    thread_local! {
        static ORDER: RefCell<String> = const { RefCell::new(String::new()) };
    }

    #[test]
    fn sides_alternate_by_repetition() {
        let a: Run = |t, o| {
            ORDER.with(|l| l.borrow_mut().push('a'));
            solve(t, o)
        };
        let b: Run = |t, o| {
            ORDER.with(|l| l.borrow_mut().push('b'));
            solve(t, o)
        };
        let p = test_pair(vec![("one", quick_stress(1))], [a, b]);
        let report = run(&p, &reps(3));
        assert!(report
            .rows
            .iter()
            .all(|r| r.sides.iter().all(|s| s.ms.len() == 3)));
        // Three rows (one per memory model) per repetition.
        assert_eq!(
            ORDER.with(|l| l.borrow().clone()),
            "ababab".to_string() + "bababa" + "ababab"
        );
    }

    #[test]
    fn stress_rows_agree_and_carry_telemetry() {
        let p = Pair {
            families: vec![("stress", quick_stress(2))],
            ..pair("sweep", true).expect("sweep pair")
        };
        let base = VerifyOptions {
            max_bound: 4,
            ..AbOptions::default().base
        };
        let opts = AbOptions { base, ..reps(1) };
        let report = run(&p, &opts);
        assert!(report.failures.is_empty(), "{:?}", report.failures);
        assert_eq!(report.rows.len(), 6);
        for r in &report.rows {
            let [scratch, sweep] = &r.sides;
            assert_eq!(scratch.frames, 4, "scratch solves every bound");
            assert_eq!(sweep.frames, 1, "loop-free sweep collapses to one frame");
            assert!(scratch.ms[0] > 0.0 && sweep.ms[0] > 0.0);
        }
        let s = report.sum(|f| f == "stress");
        assert_eq!(s.rows, 6);
        let decisions = |i: usize| s.work[i].total_decisions();
        assert!(
            decisions(0) >= decisions(1),
            "four scratch instances decide at least as often as one frame"
        );
        let lines = report.ndjson("test", &report.checks(&opts));
        assert!(lines
            .iter()
            .any(|l| l.contains("\"kind\":\"family\",") && l.contains("\"family\":\"stress\"")));
        assert!(lines[0].contains("\"a_decisions\":") && lines[0].contains("\"b_fr_learnts\":"));
    }

    /// Every counter key of a row line, after its side prefix, is the
    /// decision total or a trace counter name.
    #[test]
    fn row_counter_keys_are_trace_counter_names() {
        let p = test_pair(vec![("one", quick_stress(1))], [solve, solve]);
        let opts = reps(1);
        let report = run(&p, &opts);
        let lines = report.ndjson("test", &report.checks(&opts));
        let side_fields = ["verdict", "bound", "frames", "ms"];
        let rows: Vec<&String> = lines
            .iter()
            .filter(|l| l.contains("\"kind\":\"row\""))
            .collect();
        assert_eq!(rows.len(), 3, "one row per memory model");
        for line in rows {
            let keys = line
                .split(",\"")
                .skip(1)
                .filter_map(|f| f.split('"').next());
            let side_keys = keys.filter_map(|k| k.strip_prefix("a_").or(k.strip_prefix("b_")));
            let counters: Vec<&str> = side_keys.filter(|k| !side_fields.contains(k)).collect();
            assert_eq!(counters.len(), 2 * (1 + COUNTERS.len()), "{line}");
            for k in counters {
                assert!(
                    k == "decisions" || Counter::from_name(k).is_some(),
                    "{k} is not a trace counter name: {line}"
                );
            }
        }
    }

    #[test]
    fn loopy_task_reuses_learnt_state() {
        let kstar4 = loopy_family()
            .into_iter()
            .find(|t| t.name == "loopy/kstar4");
        let p = Pair {
            families: vec![("loopy", vec![kstar4.expect("kstar4 task")])],
            ..pair("sweep", true).expect("sweep pair")
        };
        let report = run(&p, &reps(1));
        assert!(report.failures.is_empty(), "{:?}", report.failures);
        let [scratch, sweep] = &report.rows[0].sides;
        assert_eq!(sweep.verdict, Verdict::Unsafe);
        assert_eq!((scratch.bound, sweep.bound), (4, 4));
        assert_eq!(sweep.frames, 6, "full protocol solves every bound");
        assert_eq!(scratch.frames, 6);
    }

    #[test]
    fn share_table_renders_counters_and_speedup() {
        let mut shared = Counters::default();
        shared[Counter::ShExported] = 40;
        shared[Counter::ShImported] = 20;
        shared[Counter::ShImportHits] = 7;
        let sum = Sum {
            rows: 12,
            excluded: 0,
            ms: [100.0, 50.0],
            work: [Counters::default(), shared],
        };
        assert_eq!(sum.work[1][Counter::ShImportHits], 7);
        let s = table("share", ["isolated", "shared"], &[("stress", sum)]);
        assert!(s.contains("share"));
        assert!(s.contains("stress"));
        assert!(s.contains("isolated(ms)") && s.contains("shared(ms)"));
        assert!(s.contains("2.00x"));
        for col in ["sh_exported", "sh_imported", "sh_import_hits"] {
            assert!(s.contains(col), "missing column {col}");
        }
        assert!(s.contains("0/40") && s.contains("0/7"));
        assert!(s.contains("####"));
    }
}
