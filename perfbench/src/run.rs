//! The closed loop: one client submits a workload's rows one at a time,
//! each after the previous verdict, in passes over the whole row set.
//!
//! An untraced row is timed from parsing its `.zc` text to the final
//! verdict of the workload's entry point. A traced row additionally calls
//! each layer's public function from outside the program — parse, unroll,
//! SSA, static analysis, encoding into a fresh solver, decision order —
//! before the same entry point, and records a span around every call.
//! Nothing inside the program is instrumented.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use zpre::{
    decision_order, try_verify, try_verify_sweep_full, verify_portfolio, PortfolioOptions,
    ShareConfig, Strategy, Verdict, VerifyOptions,
};
use zpre_encoder::try_encode_opts;
use zpre_prog::{parse_program, to_ssa, unroll_program, unroll_program_sweep, Program};
use zpre_sat::{PriorityListGuide, Solver, Stats};
use zpre_smt::OrderTheory;

use crate::ledger::Ledger;
use crate::reference::Speed;
use crate::stats::{Check, Tally};
use crate::workload::{Path, Row, Workload, MAX_CONFLICTS, SWEEP_HORIZON};

/// Wall seconds of rows between two checkpoints of the reference kernel:
/// short enough to follow the host's speed plateaus, long enough that the
/// kernel adds about 6%.
const SEGMENT_S: f64 = 0.3;

/// One recorded call.
pub struct Span {
    /// The public function called, or `row` for a whole row.
    pub name: &'static str,
    /// Identifier, unique within the run.
    pub id: u32,
    /// The row span this call belongs to; `None` for row spans.
    pub parent: Option<u32>,
    /// Pass number.
    pub pass: u32,
    /// Index of the row in the workload.
    pub row: u32,
    /// Offsets from the start of the timed part of the run.
    pub start: Duration,
    /// End offset.
    pub end: Duration,
}

/// In-memory span store, written out when the run ends.
pub struct Tracer {
    epoch: Instant,
    next_id: u32,
    /// Every span recorded, in completion order.
    pub spans: Vec<Span>,
}

impl Tracer {
    fn id(&mut self) -> u32 {
        self.next_id += 1;
        self.next_id
    }
}

/// Where a row's calls are timed: nowhere (warm-up) or into the tracer
/// under one row span.
struct Clock<'a> {
    tracer: Option<&'a mut Tracer>,
    parent: u32,
    pass: u32,
    row: u32,
}

impl Clock<'_> {
    fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let Some(t) = self.tracer.as_deref_mut() else {
            return f();
        };
        let start = t.epoch.elapsed();
        let out = f();
        let end = t.epoch.elapsed();
        let id = t.id();
        t.spans.push(Span {
            name,
            id,
            parent: Some(self.parent),
            pass: self.pass,
            row: self.row,
            start,
            end,
        });
        out
    }
}

/// What the layer probes saw for one row.
struct Probe {
    events: usize,
    rf_pruned: u64,
    ws_pruned: u64,
    reads_resolved: u64,
    solver_vars: usize,
    rf_vars: usize,
    ws_vars: usize,
}

/// Runs one row's front end layer by layer through the public functions.
fn probe(clock: &mut Clock, path: Path, prog: &Program, row: &Row) -> Result<Probe, String> {
    let unrolled = clock.time("unroll_program", || match path {
        Path::Sweep => unroll_program_sweep(prog, SWEEP_HORIZON).program,
        Path::Verify | Path::Portfolio => unroll_program(prog, row.bound),
    });
    let ssa = clock.time("to_ssa", || to_ssa(&unrolled));
    let report = clock.time("analyze", || zpre_analysis::analyze(&ssa, row.mm));
    let (solver, enc) = clock.time("try_encode_opts", || {
        let guide = PriorityListGuide::new(Vec::new(), VerifyOptions::default().seed);
        let mut solver: Solver<OrderTheory, PriorityListGuide> =
            Solver::with_parts(OrderTheory::new(), guide);
        let enc = try_encode_opts(&ssa, row.mm, &mut solver, None, Some(&report));
        (solver, enc)
    });
    let enc = enc.map_err(|e| format!("{}: encode: {e}", row.id))?;
    let order = clock.time("decision_order", || {
        decision_order(&enc.registry, Strategy::Zpre.refinements())
    });
    black_box(order);
    let c = &report.counters;
    Ok(Probe {
        events: ssa.events.len(),
        rf_pruned: c.rf_pruned,
        ws_pruned: c.ws_pruned,
        reads_resolved: c.reads_resolved,
        solver_vars: solver.num_vars(),
        rf_vars: enc.rf_vars.len(),
        ws_vars: enc.ws_vars.len(),
    })
}

/// What the entry point returned, reduced to what the benchmark reports.
struct Outcome {
    verdict: Verdict,
    stats: Stats,
    solver_vars: usize,
    solve: Duration,
    /// Path-specific per-layer quantities (sweep frames, portfolio race).
    extra: Vec<(&'static str, f64)>,
}

fn options(path: Path, row: &Row) -> VerifyOptions {
    VerifyOptions {
        unroll_bound: row.bound,
        max_bound: if path == Path::Sweep {
            SWEEP_HORIZON
        } else {
            row.bound
        },
        max_conflicts: Some(MAX_CONFLICTS),
        ..VerifyOptions::new(row.mm, Strategy::Zpre)
    }
}

fn entry_point(path: Path) -> &'static str {
    match path {
        Path::Verify => "try_verify",
        Path::Sweep => "try_verify_sweep_full",
        Path::Portfolio => "verify_portfolio",
    }
}

fn call(path: Path, prog: &Program, row: &Row) -> Result<Outcome, String> {
    let opts = options(path, row);
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    match path {
        Path::Verify => {
            let out = try_verify(prog, &opts).map_err(|e| format!("{}: {e}", row.id))?;
            Ok(Outcome {
                verdict: out.verdict,
                stats: out.stats,
                solver_vars: out.num_solver_vars,
                solve: out.solve_time,
                extra: Vec::new(),
            })
        }
        Path::Sweep => {
            let out = try_verify_sweep_full(prog, &opts).map_err(|e| format!("{}: {e}", row.id))?;
            // The verdict checked is the frame at the task's own bound.
            let verdict = out
                .frames
                .get(row.bound as usize - 1)
                .map_or(Verdict::Unknown, |f| f.verdict);
            let frame_solve: Duration = out.frames.iter().map(|f| f.solve_time).sum();
            let reused: u64 = out.frames.iter().map(|f| f.reused_learnts).sum();
            Ok(Outcome {
                verdict,
                stats: out.stats,
                solver_vars: out.num_solver_vars,
                solve: out.solve_time,
                extra: vec![
                    ("sweep.encode_ms", ms(out.encode_time)),
                    ("sweep.frames", out.frames.len() as f64),
                    ("sweep.frame_solve_ms", ms(frame_solve)),
                    ("sweep.reused_learnts", reused as f64),
                ],
            })
        }
        Path::Portfolio => {
            let mut po = PortfolioOptions::new(opts).with_share(ShareConfig::default());
            // The default portfolio's two ZPRE members (base seed and the
            // polarity-varied one): two threads, no more than the cores.
            po.members.retain(|m| m.strategy == Strategy::Zpre);
            let out = verify_portfolio(prog, &po);
            let member: Duration = out.members.iter().map(|m| m.time).sum();
            let winner = out
                .members
                .iter()
                .find(|m| Some(&m.name) == out.winner.as_ref())
                .map_or(Duration::ZERO, |m| m.time);
            Ok(Outcome {
                verdict: out.verdict(),
                stats: out.outcome.stats,
                solver_vars: out.outcome.num_solver_vars,
                solve: out.outcome.solve_time,
                extra: vec![
                    (
                        "portfolio.cancel_latency_ms",
                        ms(out.cancel_latency.unwrap_or_default()),
                    ),
                    ("portfolio.member_ms", ms(member)),
                    ("portfolio.winner_ms", ms(winner)),
                ],
            })
        }
    }
}

/// Everything one run measured.
pub struct Run {
    /// Verdict accounting over every row run.
    pub tally: Tally,
    /// First few failures, for the log.
    pub errors: Vec<String>,
    /// Untraced row times, parse to verdict, in milliseconds at the
    /// reference speed.
    pub row_ms: Vec<f64>,
    /// Seconds of each untraced pass at the reference speed.
    pub untraced_pass_s: Vec<f64>,
    /// Seconds of each traced pass at the reference speed.
    pub traced_pass_s: Vec<f64>,
    /// Wall seconds of each pass, traced or not.
    pub wall_pass_s: Vec<f64>,
    /// The host-speed reference that scales every time above.
    pub speed: Speed,
    /// Per-layer sums over traced rows.
    pub sums: BTreeMap<&'static str, f64>,
    /// Rows run traced.
    pub traced_rows: u64,
    /// Spans of the traced passes.
    pub tracer: Tracer,
    /// The exact-counter check.
    pub ledger: Ledger,
}

impl Run {
    /// A run that has measured nothing yet; `ledger` and `speed` carry
    /// what set-up observed.
    pub fn new(ledger: Ledger, speed: Speed) -> Run {
        Run {
            tally: Tally::default(),
            errors: Vec::new(),
            row_ms: Vec::new(),
            untraced_pass_s: Vec::new(),
            traced_pass_s: Vec::new(),
            wall_pass_s: Vec::new(),
            speed,
            sums: BTreeMap::new(),
            traced_rows: 0,
            tracer: Tracer {
                epoch: Instant::now(),
                next_id: 0,
                spans: Vec::new(),
            },
            ledger,
        }
    }

    fn add(&mut self, key: &'static str, v: f64) {
        *self.sums.entry(key).or_default() += v;
    }

    fn fail(&mut self, msg: String) {
        if self.errors.len() < 10 {
            self.errors.push(msg);
        }
    }

    /// Runs every row once, in the seeded order, untraced or traced. Every
    /// [`SEGMENT_S`] of rows, and at the end, the reference kernel runs and
    /// the rows since its previous run are scaled to the reference speed.
    pub fn pass(&mut self, w: &Workload, order: &[usize], traced: bool) {
        let pass = (self.untraced_pass_s.len() + self.traced_pass_s.len()) as u32;
        let (mut wall, mut scaled) = (0.0, 0.0);
        let mut first_row = self.row_ms.len();
        let mut segment = Instant::now();
        for (k, &i) in order.iter().enumerate() {
            let row = &w.rows[i];
            let result = if traced {
                self.traced_row(w.path, row, pass, i as u32)
            } else {
                let t = Instant::now();
                let out = parse_program(&row.text)
                    .map_err(|e| format!("{}: parse: {e}", row.id))
                    .and_then(|prog| call(w.path, &prog, row));
                self.row_ms.push(t.elapsed().as_secs_f64() * 1e3);
                out
            };
            self.score(w.path, row, result);
            let secs = segment.elapsed().as_secs_f64();
            if secs >= SEGMENT_S || k + 1 == order.len() {
                let f = self.speed.checkpoint();
                for ms in &mut self.row_ms[first_row..] {
                    *ms *= f;
                }
                wall += secs;
                scaled += secs * f;
                first_row = self.row_ms.len();
                segment = Instant::now();
            }
        }
        self.wall_pass_s.push(wall);
        if traced {
            self.traced_pass_s.push(scaled);
        } else {
            self.untraced_pass_s.push(scaled);
        }
    }

    fn score(&mut self, path: Path, row: &Row, result: Result<Outcome, String>) {
        let out = match result {
            Ok(out) => out,
            Err(e) => {
                self.tally.add(Check::Error);
                self.fail(e);
                return;
            }
        };
        let verdict = match out.verdict {
            Verdict::Safe => Some(true),
            Verdict::Unsafe => Some(false),
            Verdict::Unknown => None,
        };
        let check = Check::of(row.expected_safe, verdict);
        self.tally.add(check);
        if check == Check::Wrong {
            self.fail(format!("{}: wrong verdict {}", row.id, out.verdict));
        }
        // Portfolio sharing depends on thread timing, so its counters are
        // exempt from the exact-counter check.
        if path != Path::Portfolio {
            let s = &out.stats;
            for (name, v) in [
                ("sat.conflicts", s.conflicts),
                ("sat.decisions", s.decisions),
                ("sat.propagations", s.propagations),
                ("smt.eog_checks", s.eog_checks),
                ("encoder.solver_vars", out.solver_vars as u64),
            ] {
                self.ledger.observe(&row.id, name, v);
            }
        }
    }

    fn traced_row(
        &mut self,
        path: Path,
        row: &Row,
        pass: u32,
        index: u32,
    ) -> Result<Outcome, String> {
        let row_id = self.tracer.id();
        let start = self.tracer.epoch.elapsed();
        let mut clock = Clock {
            tracer: Some(&mut self.tracer),
            parent: row_id,
            pass,
            row: index,
        };
        let result = clock
            .time("parse_program", || parse_program(&row.text))
            .map_err(|e| format!("{}: parse: {e}", row.id))
            .and_then(|prog| {
                let p = probe(&mut clock, path, &prog, row)?;
                let out = clock.time(entry_point(path), || call(path, &prog, row))?;
                Ok((p, out))
            });
        let end = self.tracer.epoch.elapsed();
        self.tracer.spans.push(Span {
            name: "row",
            id: row_id,
            parent: None,
            pass,
            row: index,
            start,
            end,
        });
        let (p, out) = result?;
        self.traced_rows += 1;
        if path != Path::Portfolio {
            self.ledger
                .observe(&row.id, "analysis.rf_pruned", p.rf_pruned);
        }
        let s = &out.stats;
        for (key, v) in [
            ("prog.events", p.events as f64),
            ("analysis.rf_pruned", p.rf_pruned as f64),
            ("analysis.ws_pruned", p.ws_pruned as f64),
            ("analysis.reads_resolved", p.reads_resolved as f64),
            ("encoder.solver_vars", p.solver_vars as f64),
            ("encoder.rf_vars", p.rf_vars as f64),
            ("encoder.ws_vars", p.ws_vars as f64),
            ("core.guided_decisions", s.guided_decisions as f64),
            ("sat.solve_ms", out.solve.as_secs_f64() * 1e3),
            ("sat.decisions", s.decisions as f64),
            ("sat.propagations", s.propagations as f64),
            ("sat.conflicts", s.conflicts as f64),
            ("sat.restarts", s.restarts as f64),
            ("sat.reductions", s.reductions as f64),
            ("sat.learnt_clauses", s.learnt_clauses as f64),
            ("smt.eog_checks", s.eog_checks as f64),
            ("smt.eog_visited", s.eog_visited as f64),
            ("smt.eog_promoted", s.eog_promoted as f64),
            ("smt.theory_conflicts", s.theory_conflicts as f64),
            ("smt.theory_propagations", s.theory_propagations as f64),
            ("share.exported", s.sh_exported as f64),
            ("share.imported", s.sh_imported as f64),
            ("share.dropped", s.sh_dropped as f64),
            ("share.import_hits", s.sh_import_hits as f64),
        ] {
            self.add(key, v);
        }
        for &(key, v) in &out.extra {
            self.add(key, v);
        }
        Ok(out)
    }

    /// Span durations summed by called function, in milliseconds.
    pub fn span_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for s in &self.tracer.spans {
            *out.entry(s.name).or_default() += (s.end - s.start).as_secs_f64() * 1e3;
        }
        out
    }
}

/// The front end of every row, untimed: set-up's warm-up, which also
/// fails early on a row that cannot be encoded and gives the
/// exact-counter check its first `analysis.rf_pruned` values.
pub fn warm_up(w: &Workload, ledger: &mut Ledger) -> Result<(), String> {
    let mut clock = Clock {
        tracer: None,
        parent: 0,
        pass: 0,
        row: 0,
    };
    for row in &w.rows {
        let prog = parse_program(&row.text).map_err(|e| format!("{}: parse: {e}", row.id))?;
        let p = probe(&mut clock, w.path, &prog, row)?;
        if w.path != Path::Portfolio {
            ledger.observe(&row.id, "analysis.rf_pruned", p.rf_pruned);
        }
    }
    Ok(())
}
