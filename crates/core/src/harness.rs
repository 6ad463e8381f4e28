//! Resilient batch verification: run a list of (program × memory model ×
//! strategy × bound-sweep) tasks to completion no matter what individual
//! tasks do.
//!
//! Three layers keep a batch alive:
//!
//! 1. **Resource sandboxing** — every task runs under the caller's budgets
//!    ([`BatchOptions::max_conflicts`] / `timeout` / `max_memory`); the
//!    memory cap engages both the pre-blast CNF estimator
//!    ([`zpre_encoder::estimate_cnf`]) and the solver's stride-polled
//!    footprint check, so an oversized task aborts with a structured
//!    reason instead of taking the process down.
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
//! rung trail). Journaled frame verdicts are reusable across runs and
//! rungs for the same reason.
//!
//! Fault injection ([`BatchFault`]) extends the certification-layer
//! [`crate::faults::Fault`] machinery to this layer: member OOM, deadline
//! skew, a deterministic mid-batch kill, and journal corruption. The chaos
//! matrix in `tests/` asserts each one degrades fail-closed.

use crate::errors::{panic_message, VerifyError};
use crate::faults::BatchFault;
use crate::incremental::try_verify_sweep_resumed;
use crate::strategy::Strategy;
use crate::verifier::{Verdict, VerifyOptions};
use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, HashMap};
use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use zpre_obs::metrics::{rss_bytes, MetricsRegistry};
use zpre_obs::ndjson::{parse_line, quoted, JsonVal};
use zpre_obs::{Phase, Recorder};
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
    /// Per-frame conflict budget for every rung (`None` = unlimited).
    pub max_conflicts: Option<u64>,
    /// Per-frame wall-clock budget for every rung.
    pub timeout: Option<Duration>,
    /// Byte-accounted memory cap for every rung (estimator + solver poll).
    pub max_memory: Option<u64>,
    /// Decision-polarity seed passed to every rung.
    pub seed: u64,
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
    /// Trace recorder: batch task/retry/degradation/checkpoint counters
    /// and one `batch` phase span per task flow into it.
    pub recorder: Option<Recorder>,
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
    /// Run the static interference-pruning pass before encoding on every
    /// rung (default). `false` reproduces the historic unpruned encoding.
    pub prune: bool,
}

impl Default for BatchOptions {
    fn default() -> BatchOptions {
        BatchOptions {
            max_conflicts: None,
            timeout: None,
            max_memory: None,
            seed: 0xC0FFEE,
            max_retries: 1,
            backoff: Duration::from_millis(50),
            journal: None,
            resume: false,
            fault: None,
            recorder: None,
            heartbeat: None,
            metrics_out: None,
            prune: true,
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
    /// payload, validation failure).
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
    /// Exhaustion reason when `verdict` is `Unknown`.
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
    format!(
        "{{\"t\":\"frame\",\"task\":{},\"bound\":{bound},\"verdict\":\"{verdict}\"}}",
        quoted(key),
    )
}

fn task_line(key: &str, verdict: Verdict, bound: u32, exh: Option<ExhaustionReason>) -> String {
    let reason = exh
        .map(|r| format!(",\"exhaustion\":\"{}\"", r.name()))
        .unwrap_or_default();
    format!(
        "{{\"t\":\"task\",\"task\":{},\"verdict\":\"{verdict}\",\"bound\":{bound}{reason}}}",
        quoted(key),
    )
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
                        r.record_batch_checkpoint();
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
    /// Finished tasks: key → (verdict, bound, exhaustion).
    done: HashMap<String, (Verdict, u32, Option<ExhaustionReason>)>,
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
                let exh = map
                    .get("exhaustion")
                    .and_then(JsonVal::as_str)
                    .and_then(ExhaustionReason::from_name);
                state
                    .done
                    .insert(task.to_owned(), (verdict, bound as u32, exh));
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

enum RungOutcome {
    /// Definitive verdict at this bound.
    Done(Verdict, u32),
    /// Budget ran out.
    Exhausted(ExhaustionReason),
    /// The rung failed for a structural reason (encoding refusal maps to
    /// `Memory`, carried separately so the record keeps the message).
    Failed(Option<ExhaustionReason>, String),
    /// The injected kill fired mid-rung.
    Killed,
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

    /// Snapshot the counters into a fresh registry for one metrics line.
    fn registry(&self) -> MetricsRegistry {
        let mut reg = MetricsRegistry::new();
        reg.add("tasks_total", self.tasks_total);
        reg.add("tasks_done", self.tasks_done.load(Ordering::Relaxed));
        reg.add("batch_retries", self.retries.load(Ordering::Relaxed));
        reg.add("batch_degraded", self.degraded.load(Ordering::Relaxed));
        reg.set_gauge("rss_bytes", rss_bytes());
        reg
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
                let reg = progress.registry();
                let elapsed_ms = epoch.elapsed().as_millis() as u64;
                if let Some(f) = &mut file {
                    if writeln!(f, "{}", reg.snapshot_line(seq, elapsed_ms)).is_err() {
                        file = None;
                    }
                }
                let current = progress.current.lock().unwrap().clone();
                eprintln!(
                    "[heartbeat {:>6.1}s] {}/{} done, {} retried, {} degraded, rss {} MiB, running {}",
                    elapsed_ms as f64 / 1000.0,
                    reg.counter("tasks_done"),
                    reg.counter("tasks_total"),
                    reg.counter("batch_retries"),
                    reg.counter("batch_degraded"),
                    reg.gauge("rss_bytes").unwrap_or(0) >> 20,
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
        Some(path) => Journal::open(path, kill_after, opts.recorder.clone()),
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
            .recorder
            .as_ref()
            .map(|r| r.span_labeled(Phase::Batch, Some(&task.key)));

        // Layer 3: finished tasks are answered straight from the journal.
        if let Some((verdict, bound, exh)) = state.done.get(&task.key) {
            out.tasks_skipped += 1;
            progress.tasks_done.fetch_add(1, Ordering::Relaxed);
            out.reports.push(TaskReport {
                key: task.key.clone(),
                verdict: *verdict,
                bound: *bound,
                exhaustion: *exh,
                ladder: Vec::new(),
                from_journal: true,
                resumed_at: None,
            });
            continue;
        }
        // A journaled frame prefix completes or restarts the sweep.
        let frames = state.frames.get(&task.key);
        let mut safe_prefix = 0u32;
        while frames
            .and_then(|f| f.get(&(safe_prefix + 1)))
            .is_some_and(|v| *v == Verdict::Safe)
        {
            safe_prefix += 1;
        }
        if safe_prefix >= task.max_bound {
            // Every frame of the horizon is journaled safe; only the task
            // line was lost. Reconstitute it without solving.
            let report = TaskReport {
                key: task.key.clone(),
                verdict: Verdict::Safe,
                bound: task.max_bound,
                exhaustion: None,
                ladder: Vec::new(),
                from_journal: true,
                resumed_at: None,
            };
            out.tasks_skipped += 1;
            progress.tasks_done.fetch_add(1, Ordering::Relaxed);
            let alive = journal.borrow_mut().append(&task_line(
                &task.key,
                report.verdict,
                report.bound,
                None,
            ));
            out.reports.push(report);
            if !alive {
                out.interrupted = true;
                break;
            }
            continue;
        }
        if let Some(v) = frames.and_then(|f| f.get(&(safe_prefix + 1))) {
            if *v == Verdict::Unsafe {
                // The violating frame itself is journaled; the verdict is
                // complete even though the task line was lost.
                let report = TaskReport {
                    key: task.key.clone(),
                    verdict: Verdict::Unsafe,
                    bound: safe_prefix + 1,
                    exhaustion: None,
                    ladder: Vec::new(),
                    from_journal: true,
                    resumed_at: None,
                };
                out.tasks_skipped += 1;
                progress.tasks_done.fetch_add(1, Ordering::Relaxed);
                let alive = journal.borrow_mut().append(&task_line(
                    &task.key,
                    report.verdict,
                    report.bound,
                    None,
                ));
                out.reports.push(report);
                if !alive {
                    out.interrupted = true;
                    break;
                }
                continue;
            }
        }

        if let Some(r) = &opts.recorder {
            r.record_batch_task();
        }
        out.tasks_run += 1;
        progress.set_current(&task.key, "primary");
        let (report, killed) = run_task(task, opts, safe_prefix, &journal, &mut out, &progress);
        progress.tasks_done.fetch_add(1, Ordering::Relaxed);
        let mut alive = !killed;
        if alive {
            alive = journal.borrow_mut().append(&task_line(
                &report.key,
                report.verdict,
                report.bound,
                report.exhaustion,
            ));
            out.reports.push(report);
        }
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

/// Runs one task down its ladder. Returns the report and whether the
/// injected kill fired mid-task.
fn run_task(
    task: &BatchTask,
    opts: &BatchOptions,
    safe_prefix: u32,
    journal: &RefCell<Journal>,
    out: &mut BatchOutcome,
    hb: &BatchProgress,
) -> (TaskReport, bool) {
    let rungs = build_ladder(task.strategy, task.max_bound);
    let mut ladder: Vec<RungRecord> = Vec::new();
    let mut last_exhaustion: Option<ExhaustionReason> = None;
    // Contiguous safe frames known so far (journal prefix + frames solved
    // by earlier attempts of this very task): later rungs resume past them.
    let progress = Cell::new(safe_prefix);
    let resumed_at = (safe_prefix > 0).then_some(safe_prefix + 1);
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
            let outcome = run_rung(
                task, opts, *strategy, *bound, start, journal, &progress, &killed,
            );
            if killed.get() || matches!(outcome, RungOutcome::Killed) {
                return (
                    TaskReport {
                        key: task.key.clone(),
                        verdict: Verdict::Unknown,
                        bound: progress.get(),
                        exhaustion: Some(ExhaustionReason::Cancelled),
                        ladder,
                        from_journal: false,
                        resumed_at,
                    },
                    true,
                );
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
            match outcome {
                RungOutcome::Done(verdict, decided) => {
                    record.verdict = Some(verdict);
                    ladder.push(record);
                    return (
                        TaskReport {
                            key: task.key.clone(),
                            verdict,
                            bound: decided,
                            exhaustion: None,
                            ladder,
                            from_journal: false,
                            resumed_at,
                        },
                        false,
                    );
                }
                RungOutcome::Exhausted(reason) => {
                    record.verdict = Some(Verdict::Unknown);
                    record.exhaustion = Some(reason);
                    ladder.push(record);
                    last_exhaustion = Some(reason);
                    failures += 1;
                    if retryable(reason) && attempt < opts.max_retries {
                        attempt += 1;
                        out.retries += 1;
                        hb.retries.fetch_add(1, Ordering::Relaxed);
                        if let Some(r) = &opts.recorder {
                            r.record_batch_retry();
                        }
                        continue;
                    }
                }
                RungOutcome::Failed(reason, message) => {
                    record.exhaustion = reason;
                    record.error = Some(message);
                    ladder.push(record);
                    if let Some(r) = reason {
                        last_exhaustion = Some(r);
                    }
                    failures += 1;
                    if reason.is_some_and(retryable) && attempt < opts.max_retries {
                        attempt += 1;
                        out.retries += 1;
                        hb.retries.fetch_add(1, Ordering::Relaxed);
                        if let Some(r) = &opts.recorder {
                            r.record_batch_retry();
                        }
                        continue;
                    }
                }
                RungOutcome::Killed => unreachable!("handled above"),
            }
            // Degrade to the next rung (if any).
            if idx + 1 < rungs.len() {
                out.degradations += 1;
                hb.degraded.fetch_add(1, Ordering::Relaxed);
                if let Some(r) = &opts.recorder {
                    r.record_batch_degraded();
                }
            }
            break;
        }
    }
    (
        TaskReport {
            key: task.key.clone(),
            verdict: Verdict::Unknown,
            bound: progress.get(),
            exhaustion: last_exhaustion.or(Some(ExhaustionReason::Time)),
            ladder,
            from_journal: false,
            resumed_at,
        },
        false,
    )
}

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
) -> RungOutcome {
    let cancel = CancelToken::new();
    let mut vo = VerifyOptions::new(task.mm, strategy);
    vo.unroll_bound = bound;
    vo.max_bound = bound;
    vo.max_conflicts = opts.max_conflicts;
    vo.timeout = opts.timeout;
    vo.max_memory = opts.max_memory;
    vo.seed = opts.seed;
    vo.cancel = Some(cancel.clone());
    vo.recorder = opts.recorder.clone();
    vo.prune = opts.prune;
    // Layer 1 fault injections: squeeze or skew every rung uniformly, so
    // the ladder cannot quietly rescue the fault out of observation.
    match opts.fault {
        Some(BatchFault::MemberOom) => vo.max_memory = Some(1024),
        Some(BatchFault::DeadlineSkew) => vo.timeout = Some(Duration::ZERO),
        _ => {}
    }

    let key = task.key.clone();
    let result = catch_unwind(AssertUnwindSafe(|| {
        try_verify_sweep_resumed(&task.program, &vo, start, &mut |f| {
            if f.verdict == Verdict::Unknown {
                return;
            }
            if !journal
                .borrow_mut()
                .append(&frame_line(&key, f.bound, f.verdict))
            {
                killed.set(true);
                cancel.cancel();
                return;
            }
            if f.verdict == Verdict::Safe && f.bound == progress.get() + 1 {
                progress.set(f.bound);
            }
        })
    }));
    if killed.get() {
        return RungOutcome::Killed;
    }
    match result {
        Ok(Ok(sweep)) => match sweep.verdict {
            Verdict::Unknown => {
                RungOutcome::Exhausted(sweep.exhaustion.unwrap_or(ExhaustionReason::Time))
            }
            verdict => RungOutcome::Done(verdict, sweep.bound),
        },
        Ok(Err(VerifyError::Encode(e @ zpre_encoder::EncodeError::EncodingTooLarge { .. }))) => {
            RungOutcome::Failed(Some(ExhaustionReason::Memory), e.to_string())
        }
        Ok(Err(e)) => RungOutcome::Failed(None, e.to_string()),
        Err(payload) => RungOutcome::Failed(
            Some(ExhaustionReason::Quarantined),
            panic_message(&*payload),
        ),
    }
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
            max_memory: Some(1024),
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
        let line = task_line("a\"b", Verdict::Unknown, 4, Some(ExhaustionReason::Memory));
        let map = parse_line(&line).unwrap();
        assert_eq!(map.get("task").unwrap().as_str().unwrap(), "a\"b");
        assert_eq!(map.get("exhaustion").unwrap().as_str().unwrap(), "memory");
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
                recorder: Some(rec.clone()),
                ..fast_opts()
            },
        );
        assert!(!out.interrupted);
        let c = rec.counters();
        assert_eq!(c.batch_tasks, 4);
        assert_eq!(c.batch_retries, 0);
        assert_eq!(c.batch_degraded, 0);
        assert!(c.batch_checkpoints >= 8);
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
