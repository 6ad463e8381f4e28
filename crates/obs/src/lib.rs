//! `zpre-obs` — zero-dependency observability for the ZPRE pipeline.
//!
//! Five layers:
//!
//! 1. **Phase spans** ([`Recorder::span`], [`Span`]): hierarchical wall-clock
//!    profile over parse → unroll → SSA → analysis → encode (per memory
//!    model) →
//!    bit-blast → solve → validate → certify → replay.
//! 2. **Solver/theory events** ([`EventSink`], [`Event`]): decisions tagged by
//!    interference class (external-RF / internal-RF / WS / other), conflicts
//!    with LBD, order-theory lemmas with EOG-cycle length, restarts, and
//!    learnt-DB reductions. The producers hold an `Option<Arc<dyn
//!    EventSink>>`; tracing disabled is a single branch on that `Option`.
//!    Search counters are not counted from events: the solver's `Stats`
//!    hold them and reach the recorder once per solve call, so a sampling
//!    knob ([`TraceConfig::decision_sample`]) bounds trace size without
//!    touching them.
//! 3. **Export**: NDJSON traces ([`ndjson::to_ndjson`], validated by
//!    [`ndjson::validate`]) and a human ASCII profile
//!    ([`report::profile_report`]).
//! 4. **Vocabulary** ([`vocab`]): the one declaration of every phase,
//!    counter and histogram name, which every other layer loops over.
//! 5. **Analysis**: distribution metrics ([`metrics::Histogram`], fed by the
//!    recorder alongside the exact counters), trace loading/aggregation
//!    ([`analyze`]), collapsed-stack flamegraph export ([`flame`]), and
//!    trace comparison with a regression gate ([`diff`]).
//!
//! The crate is intentionally free of dependencies (std only) so every layer
//! of the workspace — including `zpre-sat`, which otherwise depends on
//! nothing — can link it without cycles.

pub mod analyze;
pub mod diff;
pub mod event;
pub mod flame;
pub mod metrics;
pub mod ndjson;
pub mod recorder;
pub mod report;
pub mod vocab;

pub use diff::{DiffOptions, DiffReport, Verdict};
pub use event::{Event, EventSink};
pub use metrics::{Histogram, Hists};
pub use recorder::{
    Counters, EventKind, EventRecord, MemberRecord, Recorder, Span, SpanRecord, TraceConfig,
    TraceSnapshot,
};
pub use report::profile_report;
pub use vocab::{Counter, Hist, Phase, Presence, VarClass};
