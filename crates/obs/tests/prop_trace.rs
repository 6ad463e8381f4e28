//! Property tests for the trace analytics layer.
//!
//! Three families of invariants:
//!
//! - **NDJSON round trip is a fixpoint**: a snapshot built from a random
//!   event stream serializes, parses, and re-serializes to byte-identical
//!   text, and the serialized form passes `validate` — so every trace the
//!   recorder can produce is also a trace the analysis tools can load.
//! - **Histogram vs exact oracle**: against a sorted copy of the raw
//!   observations, every percentile is an upper bound on the true order
//!   statistic, tight to the documented 1/16 bucket width; merging two
//!   histograms equals observing the concatenated stream; the NDJSON
//!   bucket encoding round trips exactly.
//! - **Diff gate verdicts**: each row's verdict matches an independently
//!   computed expectation from the metric's direction, tolerance, and the
//!   `min_base` noise floor; the gate fails exactly when some gated metric
//!   regressed; a self-diff is always clean.

use proptest::prelude::*;
use zpre_obs::analyze::TraceStats;
use zpre_obs::diff::{diff, direction_of, Direction};
use zpre_obs::ndjson::{from_ndjson, to_ndjson, validate};
use zpre_obs::{
    Counter, DiffOptions, Event, EventSink, Histogram, Recorder, TraceConfig, VarClass, Verdict,
};

/// A solver-shaped event: decisions, conflicts, lemmas, restarts,
/// reductions, and searched cycle checks in realistic value ranges.
fn arb_event() -> impl Strategy<Value = Event> {
    prop_oneof![
        (0u32..64, 0..VarClass::COUNT, 1u32..32, any::<bool>()).prop_map(
            |(var, class, level, guided)| Event::Decision {
                var,
                class: VarClass::ALL[class],
                level,
                guided,
            }
        ),
        (1u32..32, 1u32..24, (0u64..8, 0u64..8, 0u64..8, 0u64..8)).prop_map(
            |(level, lbd, (a, b, c, d))| Event::Conflict {
                level,
                lbd,
                window: [a, b, c, d],
            }
        ),
        (2u32..40).prop_map(|cycle_len| Event::Lemma { cycle_len }),
        (0u64..5000).prop_map(|conflicts| Event::Restart { conflicts }),
        (0u64..2000).prop_map(|removed| Event::Reduction { removed }),
        (0u32..500).prop_map(|visited| Event::CycleCheck { visited }),
    ]
}

/// Copies the counters a solver would have counted for `events` (plus
/// `o1_checks` cycle checks accepted without an event) into `rec`, the way
/// the session copies a solve call's `Stats` delta.
fn add_solver_counts(rec: &Recorder, events: &[Event], o1_checks: u64) {
    let mut searched = 0;
    for e in events {
        match *e {
            Event::Decision { class, guided, .. } => rec.add_decisions(class, 1, guided as u64),
            Event::Conflict { .. } => rec.add(Counter::Conflicts, 1),
            Event::Restart { .. } => rec.add(Counter::Restarts, 1),
            Event::Reduction { .. } => rec.add(Counter::Reductions, 1),
            Event::CycleCheck { visited } => {
                searched += 1;
                rec.add(Counter::CycleVisited, visited as u64);
            }
            Event::Lemma { .. } | Event::Share { .. } => {}
        }
    }
    rec.add(Counter::CycleChecks, searched + o1_checks);
    rec.add(Counter::CycleAcceptedO1, o1_checks);
    rec.add(Counter::CycleSearched, searched);
}

proptest! {
    #[test]
    fn ndjson_round_trip_is_a_fixpoint(
        events in prop::collection::vec(arb_event(), 0..200),
        o1_checks in 0u64..100,
    ) {
        let rec = Recorder::new(TraceConfig { events: true, decision_sample: 1 });
        for &e in &events {
            rec.emit(e);
        }
        add_solver_counts(&rec, &events, o1_checks);
        let snap = rec.snapshot();
        let text = to_ndjson(&snap);
        validate(&text).expect("recorder output validates");
        let reparsed = from_ndjson(&text).expect("recorder output parses");
        prop_assert_eq!(to_ndjson(&reparsed), text);
    }

    #[test]
    fn histogram_percentiles_bound_the_exact_order_statistic(
        values in prop::collection::vec(
            prop_oneof![0u64..64, 0u64..100_000, 0u64..u64::MAX],
            1..300,
        )
    ) {
        let mut h = Histogram::new();
        for &v in &values {
            h.observe(v);
        }
        let mut sorted = values.clone();
        sorted.sort_unstable();
        prop_assert_eq!(h.count(), values.len() as u64);
        prop_assert_eq!(h.min(), sorted[0]);
        prop_assert_eq!(h.max(), *sorted.last().unwrap());
        let mut sum = 0u64;
        for &v in &values {
            sum = sum.saturating_add(v);
        }
        prop_assert_eq!(h.sum(), sum);
        for q in [0.5, 0.9, 0.99] {
            let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
            let exact = sorted[rank - 1];
            let got = h.percentile(q);
            // Upper bound on the true order statistic, tight to the
            // log-linear bucket width (<= 1/16 relative above the exact
            // linear region).
            prop_assert!(got >= exact, "p{q}: {got} < exact {exact}");
            let slack = exact / 16 + 1;
            prop_assert!(
                got <= exact.saturating_add(slack),
                "p{q}: {got} > exact {exact} + {slack}"
            );
        }
    }

    #[test]
    fn histogram_merge_equals_concatenation_and_encoding_round_trips(
        a in prop::collection::vec(0u64..1_000_000, 0..100),
        b in prop::collection::vec(0u64..1_000_000, 0..100),
    ) {
        let mut ha = Histogram::new();
        for &v in &a {
            ha.observe(v);
        }
        let mut hb = Histogram::new();
        for &v in &b {
            hb.observe(v);
        }
        let mut hcat = Histogram::new();
        for &v in a.iter().chain(&b) {
            hcat.observe(v);
        }
        ha.merge(&hb);
        prop_assert_eq!(&ha, &hcat);

        let decoded = Histogram::decode(
            hcat.count(),
            hcat.sum(),
            hcat.min(),
            hcat.max(),
            &hcat.encode_buckets(),
        )
        .expect("own encoding decodes");
        prop_assert_eq!(decoded, hcat);
    }

    #[test]
    fn diff_gate_verdicts_match_an_independent_oracle(
        pairs in prop::collection::vec(
            (
                prop_oneof![
                    Just("conflicts"), Just("decisions"), Just("restarts"),
                    Just("h1_share_pm"), Just("cc_o1"), Just("conflict_lbd_p90"),
                    Just("cycle_visited_max"), Just("phase_solve_us"), Just("wall_us"),
                    Just("dec_rf_ext"), Just("frames"), Just("frame_solve_us_p90"),
                    Just("frame_solve_us_count"),
                ],
                0u64..10_000,
                0u64..10_000,
            ),
            0..24,
        ),
        tol_pct in 1u32..100,
        gate_time in any::<bool>(),
    ) {
        let mut base = TraceStats::default();
        let mut new = TraceStats::default();
        for (name, b, n) in &pairs {
            base.metrics.insert(name.to_string(), *b);
            new.metrics.insert(name.to_string(), *n);
        }
        let opts = DiffOptions {
            tolerance: tol_pct as f64 / 100.0,
            gate_time,
            ..DiffOptions::default()
        };
        let report = diff(&base, &new, &opts);

        // A self-diff is always clean, whatever the options.
        prop_assert!(!diff(&base, &base, &opts).gate_failed());

        for row in &report.rows {
            let b = base.get(&row.name);
            let n = new.get(&row.name);
            let rel = (n as f64 - b as f64) / b.max(opts.min_base) as f64;
            let mut dir = direction_of(&row.name);
            // Wall clock: a `_us`/`_ms` name, or a percentile or maximum
            // of a `_us`/`_ms` histogram.
            let timed = ["_us", "_ms"].iter().any(|u| {
                ["", "_p50", "_p90", "_p99", "_max"]
                    .iter()
                    .any(|q| row.name.ends_with(&format!("{u}{q}")))
            });
            if dir == Direction::Info && gate_time && timed {
                dir = Direction::LowerBetter;
            }
            let expected = match dir {
                Direction::Info => Verdict::Info,
                _ if rel.abs() <= opts.tolerance => Verdict::WithinNoise,
                Direction::LowerBetter if rel > 0.0 => Verdict::Regressed,
                Direction::HigherBetter if rel < 0.0 => Verdict::Regressed,
                _ => Verdict::Improved,
            };
            prop_assert_eq!(row.verdict, expected, "metric {}", row.name);
        }
        let regressed: Vec<&str> = report
            .rows
            .iter()
            .filter(|r| r.verdict == Verdict::Regressed)
            .map(|r| r.name.as_str())
            .collect();
        prop_assert_eq!(&report.regressed, &regressed);
        prop_assert_eq!(report.gate_failed(), !regressed.is_empty());
    }
}
