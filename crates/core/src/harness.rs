//! Resilient batch verification: run a list of (program × memory model ×
//! strategy × bound-sweep) tasks to completion no matter what individual
//! tasks do.
//!
//! Three layers keep a batch alive:
//!
//! 1. **Resource sandboxing** — every rung runs under the budgets of
//!    [`BatchOptions::base`] (`max_conflicts` / `timeout` / `max_memory`)
//!    and through the portfolio's quarantined step, so a panic comes back
//!    as [`VerifyError::MemberPanic`]; the memory cap engages both the
//!    pre-blast CNF estimator ([`zpre_encoder::estimate_cnf`]) and the
//!    solver's stride-polled footprint check, so an oversized task aborts
//!    with a structured reason instead of taking the process down.
//! 2. **Retry/degradation ladder** — a task whose rung exhausts or panics
//!    is retried with exponential backoff (transient reasons only), then
//!    degraded down a fixed ladder: primary strategy → `ZPRE⁻` → plain
//!    VSIDS baseline → a halved sweep horizon → `Unknown(reason)`. Every
//!    rung attempt is recorded in the task's [`RungRecord`] trail.
//! 3. **Checkpoint/resume** — with a journal configured, every solved
//!    frame and finished task is appended as one fsync'd NDJSON line.
//!    [`BatchOptions::resume`] replays the journal, skips finished tasks,
//!    and restarts a half-finished sweep at its first unsolved frame. A
//!    torn final line (crash mid-append) is dropped, not fatal.
//!
//! Ladder soundness: every rung solves the *same* instance family — a
//! frame's verdict depends only on (program, memory model, bound), never
//! on the strategy or the horizon (the frame-equisatisfiability invariant
//! of `zpre_encoder::sweep`, cross-checked by the `sweep_equivalence` and
//! `strategy_agreement` suites). Degrading the strategy or halving the
//! horizon can therefore change *whether* an answer is reached, never
//! *which* answer; the reduced-bound rung additionally narrows the claim
//! (its `Safe` covers a shorter sweep, which the harness reports via the
//! rung trail). Journaled frame verdicts are reusable across runs, rungs
//! and horizons for the same reason; a journaled *task* verdict is reused
//! only under the horizon it was reached at.
//!
//! Fault injection ([`BatchFault`]) extends the certification-layer
//! [`crate::faults::Fault`] machinery to this layer: member OOM, deadline
//! skew, a deterministic mid-batch kill, and journal corruption. The chaos
//! matrix in `tests/` asserts each one degrades fail-closed.

use crate::errors::VerifyError;
use crate::faults::BatchFault;
use crate::incremental::try_verify_sweep_resumed;
use crate::portfolio::run_member;
use crate::strategy::Strategy;
use crate::verifier::{Verdict, VerifyOptions, VerifyOutcome};
use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, HashMap};
use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use zpre_obs::analyze::TraceStats;
use zpre_obs::metrics::rss_bytes;
use zpre_obs::ndjson::{parse_line, JsonVal, Obj};
use zpre_obs::{Counter, Phase, Recorder};
use zpre_prog::{MemoryModel, Program};
use zpre_sat::{CancelToken, ExhaustionReason};

/// One unit of batch work: sweep `program` under `mm` with `strategy` over
/// bounds `1..=max_bound`.
#[derive(Clone, Debug)]
pub struct BatchTask {
    /// Stable identity of the task — the journal key. Two runs that should
    /// share checkpoints must use the same key.
    pub key: String,
    /// The program to verify.
    pub program: Program,
    /// Memory model of the sweep.
    pub mm: MemoryModel,
    /// Primary strategy (the ladder's top rung).
    pub strategy: Strategy,
    /// Sweep horizon: bounds `1..=max_bound` are checked.
    pub max_bound: u32,
}

impl BatchTask {
    /// Builds a task keyed `"<program>@<mm>@<strategy>"` — stable across
    /// runs as long as the program keeps its name.
    pub fn new(program: Program, mm: MemoryModel, strategy: Strategy, max_bound: u32) -> BatchTask {
        let key = format!("{}@{}@{}", program.name, mm.name(), strategy.name());
        BatchTask {
            key,
            program,
            mm,
            strategy,
            max_bound,
        }
    }
}

/// Batch-wide options.
#[derive(Clone, Debug)]
pub struct BatchOptions {
    /// The options every rung starts from: per-frame budgets
    /// (`max_conflicts`, `timeout`, `max_memory`), `seed`, `prune`, the
    /// trace `recorder` (batch task/retry/degradation/checkpoint counters
    /// and one `batch` phase span per task flow into it too). Each rung
    /// overrides `mm`, `strategy`, `unroll_bound`/`max_bound` and `cancel`,
    /// as a portfolio overrides its `base` per member.
    pub base: VerifyOptions,
    /// Extra attempts per rung for *transient* exhaustion (time, panic)
    /// before degrading. Deterministic exhaustion (conflicts, memory)
    /// degrades immediately — re-running the same deterministic solve
    /// cannot end differently.
    pub max_retries: u32,
    /// Base of the exponential backoff slept before every attempt after a
    /// failure (`backoff * 2^failures`, capped at 30 s). `ZERO` disables
    /// sleeping (tests).
    pub backoff: Duration,
    /// Checkpoint journal path. `None` disables checkpointing.
    pub journal: Option<PathBuf>,
    /// Replay the journal before running: skip finished tasks, restart
    /// half-finished sweeps at their first unsolved frame.
    pub resume: bool,
    /// Injected batch fault, for the chaos harness. `None` in production.
    pub fault: Option<BatchFault>,
    /// Emit a one-line progress heartbeat (and, with
    /// [`BatchOptions::metrics_out`], one NDJSON metrics snapshot) at this
    /// interval while the batch runs. `None` disables the heartbeat thread
    /// entirely.
    pub heartbeat: Option<Duration>,
    /// NDJSON metrics stream written by the heartbeat: one
    /// `{"t":"metrics",…}` line per tick, flushed per line so a killed
    /// batch leaves an inspectable trail. Appended to (with continuing
    /// sequence numbers) when [`BatchOptions::resume`] is set.
    pub metrics_out: Option<PathBuf>,
}

impl Default for BatchOptions {
    fn default() -> BatchOptions {
        BatchOptions {
            base: VerifyOptions::default(),
            max_retries: 1,
            backoff: Duration::from_millis(50),
            journal: None,
            resume: false,
            fault: None,
            heartbeat: None,
            metrics_out: None,
        }
    }
}

/// One rung of the degradation ladder.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum LadderRung {
    /// The task's own strategy at the full horizon.
    Primary,
    /// `ZPRE⁻` (H1 only) at the full horizon.
    ZpreMinus,
    /// Plain VSIDS baseline at the full horizon.
    Baseline,
    /// Baseline at half the horizon — trades claim strength for headroom.
    ReducedBound,
}

impl LadderRung {
    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            LadderRung::Primary => "primary",
            LadderRung::ZpreMinus => "zpre-",
            LadderRung::Baseline => "baseline",
            LadderRung::ReducedBound => "reduced-bound",
        }
    }
}

/// One recorded rung attempt of a task's ladder descent.
#[derive(Clone, Debug)]
pub struct RungRecord {
    /// Which rung ran.
    pub rung: LadderRung,
    /// The strategy the rung actually used.
    pub strategy: Strategy,
    /// The sweep horizon the rung ran with.
    pub bound: u32,
    /// Attempt number within the rung (0 = first).
    pub attempt: u32,
    /// The rung's verdict, when it produced one.
    pub verdict: Option<Verdict>,
    /// Why the rung gave up, when it did.
    pub exhaustion: Option<ExhaustionReason>,
    /// Error text for non-exhaustion failures (encoding refusal, panic
    /// payload, witness replay or certification failure).
    pub error: Option<String>,
}

/// Final report for one batch task.
#[derive(Clone, Debug)]
pub struct TaskReport {
    /// The task's journal key.
    pub key: String,
    /// Final verdict. `Unknown` means the whole ladder was exhausted —
    /// [`TaskReport::as_error`] carries the structured reason.
    pub verdict: Verdict,
    /// Bound at which the verdict was established.
    pub bound: u32,
    /// Exhaustion reason when `verdict` is `Unknown` because a budget ran
    /// out; `None` when every rung failed with an error instead (the rung
    /// records carry it).
    pub exhaustion: Option<ExhaustionReason>,
    /// The recorded ladder descent (empty for journal-loaded reports).
    pub ladder: Vec<RungRecord>,
    /// `true` when the verdict was loaded from the journal without solving.
    pub from_journal: bool,
    /// First bound actually solved this run, when a journal prefix was
    /// skipped.
    pub resumed_at: Option<u32>,
}

impl TaskReport {
    /// The structured error equivalent of an `Unknown` verdict:
    /// [`VerifyError::Exhausted`] with the recorded reason.
    pub fn as_error(&self) -> Option<VerifyError> {
        match (self.verdict, self.exhaustion) {
            (Verdict::Unknown, Some(reason)) => Some(VerifyError::Exhausted(reason)),
            _ => None,
        }
    }
}

/// Result of a whole batch run.
#[derive(Clone, Debug, Default)]
pub struct BatchOutcome {
    /// Per-task reports, in task order. On an interrupted run, only the
    /// tasks reached before the kill appear.
    pub reports: Vec<TaskReport>,
    /// `true` when an injected mid-batch kill stopped the run early.
    pub interrupted: bool,
    /// Tasks actually solved this run.
    pub tasks_run: usize,
    /// Tasks answered from the journal without solving.
    pub tasks_skipped: usize,
    /// Same-rung retry attempts across the batch.
    pub retries: u64,
    /// Ladder degradations across the batch.
    pub degradations: u64,
    /// First journal I/O failure, if any. Journaling is best-effort: on an
    /// I/O error the batch keeps verifying without checkpoints and reports
    /// the failure here.
    pub journal_error: Option<String>,
}

impl BatchOutcome {
    /// Convenience: `(key, verdict, bound)` triples for verdict diffing.
    pub fn verdicts(&self) -> Vec<(String, Verdict, u32)> {
        self.reports
            .iter()
            .map(|r| (r.key.clone(), r.verdict, r.bound))
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Journal
// ---------------------------------------------------------------------------

fn frame_line(key: &str, bound: u32, verdict: Verdict) -> String {
    Obj::tagged("frame")
        .field("task", key)
        .field("bound", bound)
        .field("verdict", verdict.to_string())
        .finish()
}

/// A finished task's line. `max_bound` is the horizon the verdict was
/// reached under: a resume reuses the line only under that same horizon.
fn task_line(report: &TaskReport, max_bound: u32) -> String {
    Obj::tagged("task")
        .field("task", &report.key)
        .field("verdict", report.verdict.to_string())
        .field("bound", report.bound)
        .field("max_bound", max_bound)
        .opt("exhaustion", report.exhaustion.map(ExhaustionReason::name))
        .finish()
}

/// Append-only fsync'd NDJSON checkpoint writer with the deterministic
/// kill knob: with `kill_after = Some(n)`, the `n+1`-th append is refused
/// and every later one too — the in-process equivalent of `kill -9` at a
/// chosen write boundary.
struct Journal {
    file: Option<File>,
    writes: u64,
    kill_after: Option<u64>,
    killed: bool,
    error: Option<String>,
    recorder: Option<Recorder>,
}

impl Journal {
    fn disabled() -> Journal {
        Journal {
            file: None,
            writes: 0,
            kill_after: None,
            killed: false,
            error: None,
            recorder: None,
        }
    }

    fn open(path: &Path, kill_after: Option<u64>, recorder: Option<Recorder>) -> Journal {
        let mut error = None;
        let file = match OpenOptions::new().create(true).append(true).open(path) {
            Ok(f) => Some(f),
            Err(e) => {
                error = Some(format!("cannot open journal {}: {e}", path.display()));
                None
            }
        };
        Journal {
            file,
            writes: 0,
            kill_after,
            killed: false,
            error,
            recorder,
        }
    }

    /// Appends one line (with durability barrier). Returns `false` when the
    /// injected kill fired — the caller must stop the batch.
    fn append(&mut self, line: &str) -> bool {
        if self.killed {
            return false;
        }
        if matches!(self.kill_after, Some(n) if self.writes >= n) {
            self.killed = true;
            return false;
        }
        if let Some(f) = &mut self.file {
            let res = f
                .write_all(line.as_bytes())
                .and_then(|()| f.write_all(b"\n"))
                .and_then(|()| f.sync_data());
            match res {
                Ok(()) => {
                    self.writes += 1;
                    if let Some(r) = &self.recorder {
                        r.add(Counter::BatchCheckpoints, 1);
                    }
                }
                Err(e) => {
                    // Best-effort: keep verifying without checkpoints.
                    if self.error.is_none() {
                        self.error = Some(format!("journal write failed: {e}"));
                    }
                    self.file = None;
                }
            }
        } else if self.kill_after.is_some() {
            // The kill knob counts write *boundaries* even without a file,
            // so chaos tests can kill journal-less batches too.
            self.writes += 1;
        }
        true
    }
}

/// What a journal scan recovered.
#[derive(Debug, Default)]
struct JournalState {
    /// Finished tasks: key → (horizon, verdict, bound, exhaustion). The
    /// horizon is `None` on a line that does not record it.
    done: HashMap<String, (Option<u32>, Verdict, u32, Option<ExhaustionReason>)>,
    /// Per-task solved frames: key → bound → verdict.
    frames: HashMap<String, BTreeMap<u32, Verdict>>,
}

/// Parses journal text. Tolerant by construction: the scan stops at the
/// first unparsable line (a torn final append after a crash loses exactly
/// that line; anything after a mid-file corruption is re-derived by
/// solving, which is always sound — a checkpoint only ever saves work).
fn scan_journal(text: &str) -> JournalState {
    let mut state = JournalState::default();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let Ok(map) = parse_line(line) else { break };
        let tag = map.get("t").and_then(JsonVal::as_str);
        let task = map.get("task").and_then(JsonVal::as_str);
        let bound = map.get("bound").and_then(JsonVal::as_u64);
        let verdict = map
            .get("verdict")
            .and_then(JsonVal::as_str)
            .and_then(Verdict::from_name);
        match (tag, task, bound, verdict) {
            (Some("frame"), Some(task), Some(bound), Some(verdict)) => {
                state
                    .frames
                    .entry(task.to_owned())
                    .or_default()
                    .insert(bound as u32, verdict);
            }
            (Some("task"), Some(task), Some(bound), Some(verdict)) => {
                let horizon = map.get("max_bound").and_then(JsonVal::as_u64);
                let exh = map
                    .get("exhaustion")
                    .and_then(JsonVal::as_str)
                    .and_then(ExhaustionReason::from_name);
                state.done.insert(
                    task.to_owned(),
                    (horizon.map(|h| h as u32), verdict, bound as u32, exh),
                );
            }
            _ => break,
        }
    }
    state
}

/// Tears the journal's final line in half in place (the
/// [`BatchFault::CorruptJournal`] injection).
fn corrupt_journal_file(path: &Path) {
    let Ok(text) = std::fs::read_to_string(path) else {
        return;
    };
    let trimmed = text.trim_end_matches('\n');
    let last_start = trimmed.rfind('\n').map(|i| i + 1).unwrap_or(0);
    let last = &trimmed[last_start..];
    if last.is_empty() {
        return;
    }
    let mut keep = last_start + last.len() / 2;
    while keep > 0 && !trimmed.is_char_boundary(keep) {
        keep -= 1;
    }
    let _ = std::fs::write(path, &trimmed[..keep]);
}

// ---------------------------------------------------------------------------
// Ladder
// ---------------------------------------------------------------------------

fn build_ladder(primary: Strategy, max_bound: u32) -> Vec<(LadderRung, Strategy, u32)> {
    let mut rungs = vec![(LadderRung::Primary, primary, max_bound)];
    if primary != Strategy::ZpreMinus && primary != Strategy::Baseline {
        rungs.push((LadderRung::ZpreMinus, Strategy::ZpreMinus, max_bound));
    }
    if primary != Strategy::Baseline {
        rungs.push((LadderRung::Baseline, Strategy::Baseline, max_bound));
    }
    let reduced = (max_bound / 2).max(1);
    if reduced < max_bound {
        rungs.push((LadderRung::ReducedBound, Strategy::Baseline, reduced));
    }
    rungs
}

fn retryable(reason: ExhaustionReason) -> bool {
    matches!(
        reason,
        ExhaustionReason::Time | ExhaustionReason::Quarantined
    )
}

/// How a failed rung is recorded: the exhaustion reason its error stands
/// for (a refused encoding ran out of memory, a panic was quarantined;
/// any other error is no exhaustion) and the error's text.
fn failure(e: VerifyError) -> (Option<ExhaustionReason>, String) {
    match e {
        VerifyError::Encode(e @ zpre_encoder::EncodeError::EncodingTooLarge { .. }) => {
            (Some(ExhaustionReason::Memory), e.to_string())
        }
        e @ VerifyError::MemberPanic { .. } => (Some(ExhaustionReason::Quarantined), e.to_string()),
        e => (None, e.to_string()),
    }
}

// ---------------------------------------------------------------------------
// Heartbeat
// ---------------------------------------------------------------------------

/// Live batch progress shared with the heartbeat thread. Counters are
/// relaxed atomics — the heartbeat is an observer, not a synchronizer.
#[derive(Debug)]
struct BatchProgress {
    tasks_total: u64,
    tasks_done: AtomicU64,
    retries: AtomicU64,
    degraded: AtomicU64,
    /// `"<task key> [<rung>]"` of whatever is running right now.
    current: Mutex<String>,
}

impl BatchProgress {
    fn new(tasks_total: usize) -> BatchProgress {
        BatchProgress {
            tasks_total: tasks_total as u64,
            tasks_done: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            degraded: AtomicU64::new(0),
            current: Mutex::new(String::from("-")),
        }
    }

    fn set_current(&self, key: &str, rung: &str) {
        *self.current.lock().unwrap() = format!("{key} [{rung}]");
    }

    /// One heartbeat tick as a metrics map: the progress counters, the
    /// resident set size, and the tick's sequence number and time stamp.
    fn stats(&self, seq: u64, elapsed_ms: u64) -> TraceStats {
        let load = |n: &AtomicU64| n.load(Ordering::Relaxed);
        let metrics = [
            ("seq", seq),
            ("elapsed_ms", elapsed_ms),
            ("tasks_total", self.tasks_total),
            ("tasks_done", load(&self.tasks_done)),
            (Counter::BatchRetries.name(), load(&self.retries)),
            (Counter::BatchDegraded.name(), load(&self.degraded)),
            ("rss_bytes", rss_bytes()),
        ];
        let metrics = metrics.into_iter().map(|(k, v)| (k.to_owned(), v));
        TraceStats {
            metrics: metrics.collect(),
        }
    }
}

/// The heartbeat thread: every interval (and once at start and stop, so
/// even a batch shorter than one interval leaves a trail) it appends one
/// metrics line to `metrics_out` and prints a one-line progress summary to
/// stderr. Line-buffered appends, no fsync: losing the very last tick to a
/// kill is acceptable for an observability stream, torn lines are not —
/// and `writeln!` emits each line in one call.
struct Heartbeat {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Heartbeat {
    fn spawn(
        interval: Duration,
        metrics_out: Option<PathBuf>,
        resume: bool,
        progress: Arc<BatchProgress>,
    ) -> Heartbeat {
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let epoch = Instant::now();
            // A fresh run truncates the stream; a resume continues it with
            // monotone sequence numbers.
            let mut seq = 0u64;
            let mut file = metrics_out.and_then(|path| {
                if resume {
                    if let Ok(existing) = std::fs::read_to_string(&path) {
                        seq = existing.lines().filter(|l| !l.trim().is_empty()).count() as u64;
                    }
                    OpenOptions::new()
                        .create(true)
                        .append(true)
                        .open(&path)
                        .ok()
                } else {
                    File::create(&path).ok()
                }
            });
            loop {
                let tick = progress.stats(seq, epoch.elapsed().as_millis() as u64);
                if let Some(f) = &mut file {
                    if writeln!(f, "{}", tick.to_metrics_line()).is_err() {
                        file = None;
                    }
                }
                let current = progress.current.lock().unwrap().clone();
                eprintln!(
                    "[heartbeat {:>6.1}s] {}/{} done, {} retried, {} degraded, rss {} MiB, running {}",
                    tick.get("elapsed_ms") as f64 / 1000.0,
                    tick.get("tasks_done"),
                    tick.get("tasks_total"),
                    tick.get(Counter::BatchRetries.name()),
                    tick.get(Counter::BatchDegraded.name()),
                    tick.get("rss_bytes") >> 20,
                    current
                );
                seq += 1;
                if stop_flag.load(Ordering::Relaxed) {
                    break;
                }
                // Sleep in short slices so the final tick lands promptly
                // after the batch finishes instead of one interval late.
                let deadline = Instant::now() + interval;
                while Instant::now() < deadline {
                    if stop_flag.load(Ordering::Relaxed) {
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(25).min(interval));
                }
            }
        });
        Heartbeat {
            stop,
            handle: Some(handle),
        }
    }

    /// Signal the thread to emit its final tick and wait for it.
    fn finish(mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

/// Runs `tasks` to completion under `opts`. Individual task failures —
/// exhaustion, panics, refused encodings — degrade that task, never the
/// batch; the only early exit is the injected mid-batch kill.
pub fn run_batch(tasks: &[BatchTask], opts: &BatchOptions) -> BatchOutcome {
    let kill_after = match opts.fault {
        Some(BatchFault::MidBatchKill(n)) => Some(n),
        _ => None,
    };
    let mut state = JournalState::default();
    if let Some(path) = &opts.journal {
        if opts.resume && path.exists() {
            if opts.fault == Some(BatchFault::CorruptJournal) {
                corrupt_journal_file(path);
            }
            if let Ok(text) = std::fs::read_to_string(path) {
                state = scan_journal(&text);
            }
        } else if !opts.resume {
            // A fresh (non-resume) run starts a fresh journal.
            let _ = std::fs::remove_file(path);
        }
    }
    let journal = RefCell::new(match &opts.journal {
        Some(path) => Journal::open(path, kill_after, opts.base.recorder.clone()),
        None => Journal {
            kill_after,
            ..Journal::disabled()
        },
    });

    let progress = Arc::new(BatchProgress::new(tasks.len()));
    let heartbeat = opts.heartbeat.map(|interval| {
        Heartbeat::spawn(
            interval,
            opts.metrics_out.clone(),
            opts.resume,
            Arc::clone(&progress),
        )
    });

    let mut out = BatchOutcome::default();
    for task in tasks {
        let _span = opts
            .base
            .recorder
            .as_ref()
            .map(|r| r.span_labeled(Phase::Batch, Some(&task.key)));

        // Layer 3: a task finished under this horizon is answered straight
        // from the journal; so is one whose journaled frames decide it.
        let frames = state.frames.get(&task.key);
        let frame = |k: u32| frames.and_then(|f| f.get(&k)).copied();
        let mut safe_prefix = 0u32;
        while frame(safe_prefix + 1) == Some(Verdict::Safe) {
            safe_prefix += 1;
        }
        let journaled = |verdict, bound, exhaustion| TaskReport {
            key: task.key.clone(),
            verdict,
            bound,
            exhaustion,
            ladder: Vec::new(),
            from_journal: true,
            resumed_at: None,
        };
        // `new_line`: the report's task line is not journaled yet.
        let (report, new_line) = match state.done.get(&task.key) {
            Some(&(horizon, verdict, bound, exh)) if horizon == Some(task.max_bound) => {
                (Some(journaled(verdict, bound, exh)), false)
            }
            // Every frame of the horizon is journaled safe, or the first
            // unsafe frame is: only the task line was lost (or it was
            // reached under another horizon), so reconstitute it.
            _ if safe_prefix >= task.max_bound => {
                (Some(journaled(Verdict::Safe, task.max_bound, None)), true)
            }
            _ if frame(safe_prefix + 1) == Some(Verdict::Unsafe) => (
                Some(journaled(Verdict::Unsafe, safe_prefix + 1, None)),
                true,
            ),
            _ => {
                if let Some(r) = &opts.base.recorder {
                    r.add(Counter::BatchTasks, 1);
                }
                out.tasks_run += 1;
                progress.set_current(&task.key, "primary");
                let report = run_task(task, opts, safe_prefix, &journal, &mut out, &progress);
                (report, true)
            }
        };
        if report.as_ref().is_some_and(|r| r.from_journal) {
            out.tasks_skipped += 1;
        }
        progress.tasks_done.fetch_add(1, Ordering::Relaxed);
        // A task killed mid-run has no report; any other report is kept
        // even when the injected kill refuses its task line.
        let alive = report.as_ref().is_some_and(|r| {
            !new_line || journal.borrow_mut().append(&task_line(r, task.max_bound))
        });
        out.reports.extend(report);
        if !alive {
            out.interrupted = true;
            break;
        }
    }
    if let Some(hb) = heartbeat {
        *progress.current.lock().unwrap() = String::from("-");
        hb.finish();
    }
    out.journal_error = journal.borrow_mut().error.take();
    out
}

/// Runs one task down its ladder. Returns its report, or `None` when the
/// injected kill fired mid-task.
fn run_task(
    task: &BatchTask,
    opts: &BatchOptions,
    safe_prefix: u32,
    journal: &RefCell<Journal>,
    out: &mut BatchOutcome,
    hb: &BatchProgress,
) -> Option<TaskReport> {
    let rungs = build_ladder(task.strategy, task.max_bound);
    let mut ladder: Vec<RungRecord> = Vec::new();
    let mut last_exhaustion: Option<ExhaustionReason> = None;
    // Contiguous safe frames known so far (journal prefix + frames solved
    // by earlier attempts of this very task): later rungs resume past them.
    let progress = Cell::new(safe_prefix);
    let report = |verdict, bound, exhaustion, ladder| TaskReport {
        key: task.key.clone(),
        verdict,
        bound,
        exhaustion,
        ladder,
        from_journal: false,
        resumed_at: (safe_prefix > 0).then_some(safe_prefix + 1),
    };
    let mut failures = 0u32;

    for (idx, (rung, strategy, bound)) in rungs.iter().enumerate() {
        let mut attempt = 0u32;
        hb.set_current(&task.key, rung.name());
        loop {
            if failures > 0 && !opts.backoff.is_zero() {
                let exp = failures.min(16) - 1;
                let sleep = opts
                    .backoff
                    .saturating_mul(1u32 << exp.min(10))
                    .min(Duration::from_secs(30));
                std::thread::sleep(sleep);
            }
            let start = progress.get() + 1;
            let killed = Cell::new(false);
            let result = run_rung(
                task, opts, *strategy, *bound, start, journal, &progress, &killed,
            );
            if killed.get() {
                return None;
            }
            let mut record = RungRecord {
                rung: *rung,
                strategy: *strategy,
                bound: *bound,
                attempt,
                verdict: None,
                exhaustion: None,
                error: None,
            };
            let reason = match result {
                Ok(sweep) if sweep.verdict != Verdict::Unknown => {
                    record.verdict = Some(sweep.verdict);
                    ladder.push(record);
                    return Some(report(sweep.verdict, sweep.bound, None, ladder));
                }
                Ok(sweep) => {
                    record.verdict = Some(Verdict::Unknown);
                    Some(sweep.exhaustion.unwrap_or(ExhaustionReason::Time))
                }
                Err(e) => {
                    let (reason, message) = failure(e);
                    record.error = Some(message);
                    reason
                }
            };
            record.exhaustion = reason;
            ladder.push(record);
            last_exhaustion = reason.or(last_exhaustion);
            failures += 1;
            if reason.is_some_and(retryable) && attempt < opts.max_retries {
                attempt += 1;
                out.retries += 1;
                hb.retries.fetch_add(1, Ordering::Relaxed);
                if let Some(r) = &opts.base.recorder {
                    r.add(Counter::BatchRetries, 1);
                }
                continue;
            }
            // Degrade to the next rung (if any).
            if idx + 1 < rungs.len() {
                out.degradations += 1;
                hb.degraded.fetch_add(1, Ordering::Relaxed);
                if let Some(r) = &opts.base.recorder {
                    r.add(Counter::BatchDegraded, 1);
                }
            }
            break;
        }
    }
    // No reason when no rung exhausted a budget: the rung records' errors
    // say why the task is unknown.
    Some(report(
        Verdict::Unknown,
        progress.get(),
        last_exhaustion,
        ladder,
    ))
}

/// One rung: the task's sweep from frame `start` under `opts.base` with the
/// rung's strategy and horizon, through the quarantined step. Every
/// definitive frame is journaled; a refused append sets `killed` and
/// cancels the sweep.
#[allow(clippy::too_many_arguments)]
fn run_rung(
    task: &BatchTask,
    opts: &BatchOptions,
    strategy: Strategy,
    bound: u32,
    start: u32,
    journal: &RefCell<Journal>,
    progress: &Cell<u32>,
    killed: &Cell<bool>,
) -> Result<VerifyOutcome, VerifyError> {
    let cancel = CancelToken::new();
    let mut vo = VerifyOptions {
        mm: task.mm,
        strategy,
        unroll_bound: bound,
        max_bound: bound,
        cancel: Some(cancel.clone()),
        ..opts.base.clone()
    };
    // Layer 1 fault injections: squeeze or skew every rung uniformly, so
    // the ladder cannot quietly rescue the fault out of observation.
    match opts.fault {
        Some(BatchFault::MemberOom) => vo.max_memory = Some(1024),
        Some(BatchFault::DeadlineSkew) => vo.timeout = Some(Duration::ZERO),
        _ => {}
    }
    let sweep = |o: &VerifyOptions| {
        try_verify_sweep_resumed(&task.program, o, start, &mut |f| {
            if f.verdict == Verdict::Unknown {
                return;
            }
            if !journal
                .borrow_mut()
                .append(&frame_line(&task.key, f.bound, f.verdict))
            {
                killed.set(true);
                cancel.cancel();
                return;
            }
            if f.verdict == Verdict::Safe && f.bound == progress.get() + 1 {
                progress.set(f.bound);
            }
        })
    };
    run_member(sweep, &vo)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use zpre_prog::build::*;

    fn tmp_journal(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "zpre-batch-{tag}-{}-{n}.ndjson",
            std::process::id()
        ))
    }

    fn kstar3() -> Program {
        ProgramBuilder::new("kstar3")
            .width(8)
            .shared("x", 0)
            .main(vec![
                while_(lt(v("x"), c(3)), vec![assign("x", add(v("x"), c(1)))]),
                assert_(ne(v("x"), c(3))),
            ])
            .build()
    }

    fn safe_loop() -> Program {
        ProgramBuilder::new("safe-loop")
            .width(8)
            .shared("x", 0)
            .main(vec![
                while_(lt(v("x"), c(3)), vec![assign("x", add(v("x"), c(1)))]),
                assert_(le(v("x"), c(3))),
            ])
            .build()
    }

    fn racy() -> Program {
        let inc = vec![assign("r", v("cnt")), assign("cnt", add(v("r"), c(1)))];
        ProgramBuilder::new("race")
            .shared("cnt", 0)
            .thread("w1", inc.clone())
            .thread("w2", inc)
            .main(vec![
                spawn(1),
                spawn(2),
                join(1),
                join(2),
                assert_(eq(v("cnt"), c(2))),
            ])
            .build()
    }

    fn tasks() -> Vec<BatchTask> {
        vec![
            BatchTask::new(kstar3(), MemoryModel::Sc, Strategy::Zpre, 6),
            BatchTask::new(safe_loop(), MemoryModel::Sc, Strategy::Zpre, 5),
            BatchTask::new(racy(), MemoryModel::Sc, Strategy::Zpre, 4),
            BatchTask::new(racy(), MemoryModel::Tso, Strategy::Zpre, 4),
        ]
    }

    fn fast_opts() -> BatchOptions {
        BatchOptions {
            backoff: Duration::ZERO,
            ..BatchOptions::default()
        }
    }

    #[test]
    fn batch_solves_every_task() {
        let out = run_batch(&tasks(), &fast_opts());
        assert!(!out.interrupted);
        assert_eq!(out.reports.len(), 4);
        assert_eq!(out.tasks_run, 4);
        let verdicts: Vec<Verdict> = out.reports.iter().map(|r| r.verdict).collect();
        assert_eq!(
            verdicts,
            vec![
                Verdict::Unsafe,
                Verdict::Safe,
                Verdict::Unsafe,
                Verdict::Unsafe
            ]
        );
        assert_eq!(out.reports[0].bound, 3, "k* = 3");
        // One clean rung per task, no retries or degradations.
        assert_eq!(out.retries, 0);
        assert_eq!(out.degradations, 0);
        for r in &out.reports {
            assert_eq!(r.ladder.len(), 1);
            assert_eq!(r.ladder[0].rung, LadderRung::Primary);
        }
    }

    #[test]
    fn memory_capped_task_degrades_to_unknown_with_ladder() {
        let opts = BatchOptions {
            base: VerifyOptions {
                max_memory: Some(1024),
                ..VerifyOptions::default()
            },
            ..fast_opts()
        };
        let task = vec![BatchTask::new(kstar3(), MemoryModel::Sc, Strategy::Zpre, 6)];
        let out = run_batch(&task, &opts);
        let r = &out.reports[0];
        assert_eq!(r.verdict, Verdict::Unknown);
        assert_eq!(r.exhaustion, Some(ExhaustionReason::Memory));
        assert_eq!(
            r.as_error(),
            Some(VerifyError::Exhausted(ExhaustionReason::Memory))
        );
        // Every rung of the ladder was tried and recorded before giving up.
        assert_eq!(r.ladder.len(), 4, "primary, zpre-, baseline, reduced-bound");
        assert!(r
            .ladder
            .iter()
            .all(|rec| rec.exhaustion == Some(ExhaustionReason::Memory)));
        assert_eq!(out.degradations, 3);
    }

    /// A task whose every rung errored without exhausting a budget reports
    /// no exhaustion reason; the rung records carry the errors.
    #[test]
    fn task_whose_every_rung_errored_reports_no_exhaustion() {
        let opts = BatchOptions {
            base: VerifyOptions {
                certify: true,
                ..VerifyOptions::default()
            },
            ..fast_opts()
        };
        let task = vec![BatchTask::new(kstar3(), MemoryModel::Sc, Strategy::Zpre, 6)];
        let r = &run_batch(&task, &opts).reports[0];
        assert_eq!(r.verdict, Verdict::Unknown);
        assert_eq!(r.exhaustion, None);
        assert_eq!(r.as_error(), None);
        assert_eq!(r.ladder.len(), 4, "primary, zpre-, baseline, reduced-bound");
        for rec in &r.ladder {
            assert_eq!(rec.exhaustion, None);
            let error = rec.error.as_deref().expect("every rung errored");
            assert!(error.contains("sweep"), "{error}");
        }
    }

    #[test]
    fn ladder_skips_rungs_equal_to_primary() {
        let rungs = build_ladder(Strategy::Baseline, 4);
        assert_eq!(rungs.len(), 2, "baseline primary only degrades the bound");
        assert_eq!(rungs[1].0, LadderRung::ReducedBound);
        assert_eq!(rungs[1].2, 2);
        let rungs = build_ladder(Strategy::Zpre, 1);
        assert_eq!(rungs.len(), 3, "bound 1 cannot be reduced");
    }

    #[test]
    fn journal_checkpoints_and_resume_skips_finished_work() {
        let path = tmp_journal("resume");
        let opts = BatchOptions {
            journal: Some(path.clone()),
            ..fast_opts()
        };
        let clean = run_batch(&tasks(), &opts);
        assert!(!clean.interrupted);
        // Resume over the complete journal: nothing re-solved.
        let opts2 = BatchOptions {
            resume: true,
            ..opts
        };
        let resumed = run_batch(&tasks(), &opts2);
        assert_eq!(resumed.tasks_run, 0);
        assert_eq!(resumed.tasks_skipped, 4);
        assert!(resumed.reports.iter().all(|r| r.from_journal));
        assert_eq!(resumed.verdicts(), clean.verdicts());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn kill_at_every_write_boundary_then_resume_matches_clean() {
        let clean = run_batch(&tasks(), &fast_opts()).verdicts();
        // The clean run's journal write count bounds the kill points.
        let path = tmp_journal("count");
        let opts = BatchOptions {
            journal: Some(path.clone()),
            ..fast_opts()
        };
        run_batch(&tasks(), &opts);
        let total_writes = std::fs::read_to_string(&path).unwrap().lines().count() as u64;
        let _ = std::fs::remove_file(&path);
        assert!(total_writes >= 8, "frames + task lines for 4 tasks");

        for kill_at in 0..total_writes {
            let path = tmp_journal("kill");
            let killed = run_batch(
                &tasks(),
                &BatchOptions {
                    journal: Some(path.clone()),
                    fault: Some(BatchFault::MidBatchKill(kill_at)),
                    ..fast_opts()
                },
            );
            assert!(killed.interrupted, "kill at write {kill_at} must interrupt");
            let resumed = run_batch(
                &tasks(),
                &BatchOptions {
                    journal: Some(path.clone()),
                    resume: true,
                    ..fast_opts()
                },
            );
            assert!(!resumed.interrupted);
            assert_eq!(
                resumed.verdicts(),
                clean,
                "kill at write {kill_at}: resumed verdicts diverge"
            );
            let _ = std::fs::remove_file(&path);
        }
    }

    #[test]
    fn resume_restarts_half_finished_sweep_at_first_unsolved_frame() {
        // Hand-write a journal holding a safe prefix for kstar3 (frames 1–2
        // are safe; the violation is at bound 3).
        let path = tmp_journal("prefix");
        let text = format!(
            "{}\n{}\n",
            frame_line("kstar3@sc@zpre", 1, Verdict::Safe),
            frame_line("kstar3@sc@zpre", 2, Verdict::Safe),
        );
        std::fs::write(&path, text).unwrap();
        let out = run_batch(
            &[BatchTask::new(kstar3(), MemoryModel::Sc, Strategy::Zpre, 6)],
            &BatchOptions {
                journal: Some(path.clone()),
                resume: true,
                ..fast_opts()
            },
        );
        let r = &out.reports[0];
        assert_eq!(r.verdict, Verdict::Unsafe);
        assert_eq!(r.bound, 3);
        assert_eq!(r.resumed_at, Some(3), "frames 1–2 skipped");
        assert!(!r.from_journal, "frame 3 was actually solved");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_final_journal_line_is_dropped_not_fatal() {
        let good = format!(
            "{}\n{}\n",
            frame_line("t", 1, Verdict::Safe),
            frame_line("t", 2, Verdict::Safe)
        );
        let torn = format!("{good}{{\"t\":\"frame\",\"task\":\"t\",\"bo");
        let state = scan_journal(&torn);
        assert_eq!(state.frames["t"].len(), 2);
        assert!(state.done.is_empty());
        // Corruption mid-file drops everything after it.
        let mid = format!(
            "{}\ngarbage\n{}\n",
            frame_line("t", 1, Verdict::Safe),
            frame_line("t", 2, Verdict::Safe)
        );
        assert_eq!(scan_journal(&mid).frames["t"].len(), 1);
    }

    #[test]
    fn journal_verdict_round_trip() {
        for v in [Verdict::Safe, Verdict::Unsafe, Verdict::Unknown] {
            assert_eq!(Verdict::from_name(&v.to_string()), Some(v));
        }
        let report = TaskReport {
            key: "a\"b".to_string(),
            verdict: Verdict::Unknown,
            bound: 2,
            exhaustion: Some(ExhaustionReason::Memory),
            ladder: Vec::new(),
            from_journal: false,
            resumed_at: None,
        };
        let line = task_line(&report, 4);
        let map = parse_line(&line).unwrap();
        assert_eq!(map.get("task").unwrap().as_str().unwrap(), "a\"b");
        assert_eq!(map.get("exhaustion").unwrap().as_str().unwrap(), "memory");
        let state = scan_journal(&line);
        assert_eq!(
            state.done["a\"b"],
            (Some(4), Verdict::Unknown, 2, Some(ExhaustionReason::Memory))
        );
    }

    #[test]
    fn chaos_faults_fail_closed() {
        let clean = run_batch(&tasks(), &fast_opts()).verdicts();
        for fault in BatchFault::ALL {
            let path = tmp_journal("chaos");
            let opts = BatchOptions {
                journal: Some(path.clone()),
                fault: Some(fault),
                max_retries: 0,
                ..fast_opts()
            };
            let out = run_batch(&tasks(), &opts);
            // Fail closed: whatever the fault did, no task flipped to a
            // *wrong* definitive verdict.
            for (i, r) in out.reports.iter().enumerate() {
                let (ref key, expect, _) = clean[i];
                assert_eq!(&r.key, key);
                if r.verdict != Verdict::Unknown {
                    assert_eq!(
                        r.verdict,
                        expect,
                        "{}: fault {} flipped verdict",
                        key,
                        fault.name()
                    );
                }
            }
            // And a resume after the fault completes with clean verdicts
            // (the corrupt-journal fault corrupts *this* journal on scan).
            let resumed = run_batch(
                &tasks(),
                &BatchOptions {
                    journal: Some(path.clone()),
                    resume: true,
                    // The journal-corruption fault fires on the resume scan
                    // itself; the others must not re-fire on resume.
                    fault: (fault == BatchFault::CorruptJournal).then_some(fault),
                    ..fast_opts()
                },
            );
            if !resumed.interrupted {
                let got = resumed.verdicts();
                for (i, (key, expect, _)) in clean.iter().enumerate() {
                    // Unknown-from-journal is acceptable for the squeezed
                    // runs; definitive verdicts must match.
                    if got[i].1 != Verdict::Unknown {
                        assert_eq!(&got[i].0, key);
                        assert_eq!(got[i].1, *expect, "fault {} resume diverged", fault.name());
                    }
                }
            }
            let _ = std::fs::remove_file(&path);
        }
    }

    #[test]
    fn deadline_skew_exhausts_as_time_and_records_retries() {
        let out = run_batch(
            &[BatchTask::new(racy(), MemoryModel::Sc, Strategy::Zpre, 4)],
            &BatchOptions {
                fault: Some(BatchFault::DeadlineSkew),
                max_retries: 1,
                ..fast_opts()
            },
        );
        let r = &out.reports[0];
        assert_eq!(r.verdict, Verdict::Unknown);
        assert_eq!(r.exhaustion, Some(ExhaustionReason::Time));
        // Time is transient: each rung retried once before degrading.
        assert!(out.retries >= 1);
        assert!(r.ladder.len() > 4, "retries + degradations all recorded");
    }

    #[test]
    fn heartbeat_writes_metrics_trail_that_survives_kill_and_resume() {
        let journal = tmp_journal("hb-journal");
        let metrics = tmp_journal("hb-metrics");
        let opts = BatchOptions {
            journal: Some(journal.clone()),
            heartbeat: Some(Duration::from_millis(10)),
            metrics_out: Some(metrics.clone()),
            // Kill mid-batch at a write boundary.
            fault: Some(BatchFault::MidBatchKill(3)),
            ..fast_opts()
        };
        let killed = run_batch(&tasks(), &opts);
        assert!(killed.interrupted);
        let first = std::fs::read_to_string(&metrics).unwrap();
        let first_lines = first.lines().filter(|l| !l.trim().is_empty()).count();
        assert!(first_lines >= 1, "at least the start tick landed");
        // Every line is flat JSON tagged `metrics`, loadable by the
        // analysis layer.
        let stats = zpre_obs::analyze::load_stats(&first).expect("metrics stream");
        assert_eq!(stats.get("tasks_total"), 4);

        // Resume: the trail is appended, not truncated, and sequence
        // numbers continue.
        let resumed = run_batch(
            &tasks(),
            &BatchOptions {
                journal: Some(journal.clone()),
                heartbeat: Some(Duration::from_millis(10)),
                metrics_out: Some(metrics.clone()),
                resume: true,
                ..fast_opts()
            },
        );
        assert!(!resumed.interrupted);
        let both = std::fs::read_to_string(&metrics).unwrap();
        assert!(both.starts_with(&first), "resume must append, not truncate");
        let seqs: Vec<u64> = both
            .lines()
            .filter(|l| !l.trim().is_empty())
            .map(|l| {
                parse_line(l.trim())
                    .unwrap()
                    .get("seq")
                    .unwrap()
                    .as_u64()
                    .unwrap()
            })
            .collect();
        assert!(seqs.windows(2).all(|w| w[1] == w[0] + 1), "seqs: {seqs:?}");
        // The final tick reports the finished batch.
        let stats = zpre_obs::analyze::load_stats(&both).expect("appended stream");
        assert_eq!(stats.get("tasks_done"), 4);
        let _ = std::fs::remove_file(&journal);
        let _ = std::fs::remove_file(&metrics);
    }

    #[test]
    fn heartbeat_line_is_a_trace_metrics_line() {
        let progress = BatchProgress::new(3);
        progress.tasks_done.fetch_add(2, Ordering::Relaxed);
        progress.retries.fetch_add(1, Ordering::Relaxed);
        let line = progress.stats(5, 1500).to_metrics_line();
        let keys: Vec<&str> = line
            .split(",\"")
            .skip(1)
            .map(|kv| kv.split_once('"').unwrap().0)
            .collect();
        let sorted = [
            "batch_degraded",
            "batch_retries",
            "elapsed_ms",
            "rss_bytes",
            "seq",
            "tasks_done",
            "tasks_total",
        ];
        assert_eq!(keys, sorted, "{line}");
        let map = parse_line(&line).expect("flat JSON");
        assert_eq!(map.get("t").and_then(JsonVal::as_str), Some("metrics"));
        assert_eq!(map.get("seq").and_then(JsonVal::as_u64), Some(5));
        // The trace layer loads it like any metrics line, `seq` aside.
        let stats = zpre_obs::analyze::load_stats(&line).expect("metrics line");
        assert_eq!(stats.get("tasks_done"), 2);
        assert_eq!(stats.get("tasks_total"), 3);
        assert_eq!(stats.get("batch_retries"), 1);
        assert_eq!(stats.get("elapsed_ms"), 1500);
        assert!(!stats.metrics.contains_key("seq"));
    }

    #[test]
    fn batch_telemetry_flows_into_recorder() {
        let rec = Recorder::new(zpre_obs::TraceConfig {
            events: false,
            decision_sample: 1,
        });
        let path = tmp_journal("telemetry");
        let out = run_batch(
            &tasks(),
            &BatchOptions {
                journal: Some(path.clone()),
                base: VerifyOptions {
                    recorder: Some(rec.clone()),
                    ..VerifyOptions::default()
                },
                ..fast_opts()
            },
        );
        assert!(!out.interrupted);
        let c = rec.counters();
        assert_eq!(c[Counter::BatchTasks], 4);
        assert_eq!(c[Counter::BatchRetries], 0);
        assert_eq!(c[Counter::BatchDegraded], 0);
        assert!(c[Counter::BatchCheckpoints] >= 8);
        let snap = rec.snapshot();
        assert_eq!(
            snap.spans
                .iter()
                .filter(|s| s.phase == Phase::Batch)
                .count(),
            4
        );
        let _ = std::fs::remove_file(&path);
    }
}
