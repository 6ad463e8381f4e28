//! Human-readable `--profile` report rendered from a [`TraceSnapshot`], in
//! the same fixed-width table style as `crates/bench/src/ascii.rs`.

use std::fmt::Write as _;

use crate::recorder::TraceSnapshot;
use crate::vocab::{Counter, Phase, VarClass};

fn ms(us: u64) -> f64 {
    us as f64 / 1000.0
}

/// Share of `part` in `whole` as a percentage, clamped to 100: nested or
/// overlapping spans can sum past the wall clock, but a display share never
/// exceeds it. `None` when there is no denominator to take a share of.
fn pct_of(part: u64, whole: u64) -> Option<f64> {
    if whole == 0 {
        None
    } else {
        Some((100.0 * part as f64 / whole as f64).min(100.0))
    }
}

/// Right-aligned percentage cell; `—` when there is no denominator.
fn pct_cell(pct: Option<f64>) -> String {
    match pct {
        Some(p) => format!("{p:>6.1}%"),
        None => format!("{:>7}", "—"),
    }
}

/// `#`-bar at 2.5% per character, capped at 40 characters. Total, not
/// saturating, arithmetic: the input is already clamped and NaN maps to an
/// empty bar, so the `usize` cast cannot wrap.
fn bar(pct: Option<f64>) -> String {
    let chars = (pct.unwrap_or(0.0) / 2.5).round();
    let chars = if chars.is_finite() {
        chars.clamp(0.0, 40.0) as usize
    } else {
        0
    };
    "#".repeat(chars)
}

/// Render the phase profile, decision histogram, solver event summary, and
/// portfolio member table as an ASCII report.
pub fn profile_report(snap: &TraceSnapshot) -> String {
    let mut out = String::new();

    // ---- phase profile --------------------------------------------------
    out.push_str("phase profile\n");
    let _ = writeln!(
        out,
        "{:<22} {:>6} {:>12} {:>7}  share",
        "phase", "spans", "total(ms)", "%"
    );
    // Wall time = sum of top-level (depth 0) closed spans; nested spans are
    // shown indented and counted inside their parents.
    let wall_us: u64 = snap
        .spans
        .iter()
        .filter(|s| s.depth == 0 && s.closed)
        .map(|s| s.dur_us)
        .sum();
    for phase in Phase::ALL {
        // Aggregate per (phase, label) so e.g. encode spans per memory model
        // get their own rows.
        let mut rows: Vec<(Option<&str>, u32, usize, u64)> = Vec::new();
        for s in snap.spans.iter().filter(|s| s.phase == phase && s.closed) {
            let label = s.label.as_deref();
            if let Some(row) = rows
                .iter_mut()
                .find(|(l, d, _, _)| *l == label && *d == s.depth)
            {
                row.2 += 1;
                row.3 += s.dur_us;
            } else {
                rows.push((label, s.depth, 1, s.dur_us));
            }
        }
        for (label, depth, count, total_us) in rows {
            let mut name = "  ".repeat(depth as usize);
            name.push_str(phase.name());
            if let Some(l) = label {
                let _ = write!(name, "[{l}]");
            }
            let pct = pct_of(total_us, wall_us);
            let _ = writeln!(
                out,
                "{:<22} {:>6} {:>12.3} {}  {}",
                name,
                count,
                ms(total_us),
                pct_cell(pct),
                bar(pct)
            );
        }
    }
    let _ = writeln!(
        out,
        "{:<22} {:>6} {:>12.3} {}",
        "total(top-level)",
        snap.spans.iter().filter(|s| s.depth == 0).count(),
        ms(wall_us),
        pct_cell(pct_of(wall_us, wall_us))
    );

    // ---- decision histogram ---------------------------------------------
    let c = &snap.counters;
    let total = c.total_decisions();
    out.push_str("\ndecisions by variable class\n");
    let _ = writeln!(
        out,
        "{:<14} {:>12} {:>12} {:>7}  share",
        "class", "decisions", "guided", "%"
    );
    for cls in VarClass::ALL {
        let n = c.decisions[cls.index()];
        let pct = pct_of(n, total);
        let _ = writeln!(
            out,
            "{:<14} {:>12} {:>12} {}  {}",
            cls.name(),
            n,
            c.guided[cls.index()],
            pct_cell(pct),
            bar(pct)
        );
    }
    let interference = c.interference_decisions();
    let _ = writeln!(
        out,
        "{:<14} {:>12} {:>12} {}",
        "interference",
        interference,
        "",
        pct_cell(pct_of(interference, total))
    );

    // ---- solver events ---------------------------------------------------
    out.push_str("\nsolver events\n");
    let lemmas = c[Counter::Lemmas];
    let mean_cycle = if lemmas > 0 {
        c[Counter::LemmaCycleEdges] as f64 / lemmas as f64
    } else {
        0.0
    };
    let _ = writeln!(
        out,
        "conflicts {}  theory-lemmas {lemmas} (mean EOG cycle {mean_cycle:.1})  restarts {}  reductions {} ({} clauses)",
        c[Counter::Conflicts],
        c[Counter::Restarts],
        c[Counter::Reductions],
        c[Counter::ClausesRemoved]
    );
    if c[Counter::CycleChecks] > 0 {
        let _ = writeln!(
            out,
            "cycle-checks {} ({} O(1)-accepted, {} searched; {} nodes visited, {} levels promoted)",
            c[Counter::CycleChecks],
            c[Counter::CycleAcceptedO1],
            c[Counter::CycleSearched],
            c[Counter::CycleVisited],
            c[Counter::CyclePromoted]
        );
    }
    if c[Counter::Frames] > 0 {
        let _ = writeln!(
            out,
            "sweep frames {} (reused at entry: {} learnt clauses, {} conflicts of prior frames)",
            c[Counter::Frames],
            c[Counter::FrameReusedLearnts],
            c[Counter::FrameReusedConflicts]
        );
    }
    if c[Counter::BatchTasks] > 0 {
        let _ = writeln!(
            out,
            "batch tasks {} (retries {}, degradations {}, checkpoints {})",
            c[Counter::BatchTasks],
            c[Counter::BatchRetries],
            c[Counter::BatchDegraded],
            c[Counter::BatchCheckpoints]
        );
    }
    if snap.decision_sample > 1 {
        let _ = writeln!(
            out,
            "decision events sampled 1/{} ({} dropped from the stream; counters exact)",
            snap.decision_sample,
            c[Counter::DroppedEvents]
        );
    }

    // ---- distributions ---------------------------------------------------
    let named = snap.hists.named();
    if named.iter().any(|(_, h)| h.count() > 0) {
        out.push_str("\ndistributions\n");
        let _ = writeln!(
            out,
            "{:<18} {:>10} {:>10} {:>10} {:>10} {:>10}",
            "metric", "count", "p50", "p90", "p99", "max"
        );
        for (name, h) in named {
            if h.count() == 0 {
                continue;
            }
            let _ = writeln!(
                out,
                "{:<18} {:>10} {:>10} {:>10} {:>10} {:>10}",
                name,
                h.count(),
                h.percentile(0.50),
                h.percentile(0.90),
                h.percentile(0.99),
                h.max()
            );
        }
    }

    // ---- portfolio members ----------------------------------------------
    if !snap.members.is_empty() {
        out.push_str("\nportfolio members\n");
        let _ = writeln!(
            out,
            "{:<14} {:<10} {:>8} {:>10} {:>10} {:>10}  flags",
            "member", "strategy", "verdict", "decisions", "conflicts", "time(ms)"
        );
        for m in &snap.members {
            let mut flags = String::new();
            if m.winner {
                flags.push_str("winner ");
            }
            if m.cancelled {
                flags.push_str("cancelled ");
            }
            if let Some(e) = &m.error {
                let _ = write!(flags, "[{e}]");
            }
            let _ = writeln!(
                out,
                "{:<14} {:<10} {:>8} {:>10} {:>10} {:>10.3}  {}",
                m.name,
                m.strategy,
                m.verdict,
                m.decisions,
                m.conflicts,
                ms(m.time_us),
                flags.trim_end()
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;
    use crate::recorder::{MemberRecord, Recorder};
    use crate::EventSink;

    #[test]
    fn report_contains_all_sections() {
        let rec = Recorder::default();
        {
            let _s = rec.span_labeled(Phase::Encode, Some("tso"));
            let _b = rec.span(Phase::Blast);
        }
        {
            let _s = rec.span(Phase::Solve);
        }
        rec.emit(Event::Decision {
            var: 0,
            class: VarClass::ExternalRf,
            level: 1,
            guided: true,
        });
        rec.emit(Event::Decision {
            var: 1,
            class: VarClass::Ws,
            level: 2,
            guided: true,
        });
        rec.emit(Event::Conflict {
            level: 2,
            lbd: 1,
            window: [1, 0, 1, 0],
        });
        rec.emit(Event::Lemma { cycle_len: 3 });
        rec.emit(Event::CycleCheck { visited: 4 });
        rec.add_decisions(VarClass::ExternalRf, 1, 1);
        rec.add_decisions(VarClass::Ws, 1, 1);
        for (counter, n) in [
            (Counter::Conflicts, 1),
            (Counter::CycleChecks, 2),
            (Counter::CycleAcceptedO1, 1),
            (Counter::CycleSearched, 1),
            (Counter::CycleVisited, 4),
            (Counter::CyclePromoted, 1),
        ] {
            rec.add(counter, n);
        }
        rec.record_member(MemberRecord {
            name: "zpre".into(),
            strategy: "zpre".into(),
            verdict: "safe".into(),
            winner: true,
            decisions: 2,
            conflicts: 1,
            time_us: 5000,
            ..MemberRecord::default()
        });
        let report = profile_report(&rec.snapshot());
        assert!(report.contains("phase profile"));
        assert!(report.contains("encode[tso]"));
        assert!(report.contains("  blast"));
        assert!(report.contains("solve"));
        assert!(report.contains("decisions by variable class"));
        assert!(report.contains("rf_ext"));
        assert!(report.contains("interference"));
        assert!(report.contains("mean EOG cycle 3.0"));
        assert!(report.contains("cycle-checks 2 (1 O(1)-accepted, 1 searched"));
        assert!(report.contains("portfolio members"));
        assert!(report.contains("winner"));
        assert!(report.contains("distributions"));
        assert!(report.contains("conflict_lbd"));
    }

    #[test]
    fn report_handles_empty_snapshot() {
        let report = profile_report(&TraceSnapshot::default());
        assert!(report.contains("phase profile"));
        assert!(report.contains("decisions by variable class"));
        // No denominator → shares render as `—`, never 0.0% or NaN.
        assert!(report.contains("—"));
        assert!(!report.contains("NaN"));
        // An empty snapshot has no distributions section.
        assert!(!report.contains("distributions"));
    }

    #[test]
    fn shares_clamp_at_100_percent() {
        // Two overlapping top-level spans make each phase's share of the
        // summed wall clock well-defined, but a hand-built snapshot can
        // still claim a phase longer than the wall: the display must clamp.
        let snap = TraceSnapshot {
            spans: vec![
                crate::recorder::SpanRecord {
                    phase: Phase::Solve,
                    label: None,
                    member: None,
                    depth: 0,
                    start_us: 0,
                    dur_us: 10,
                    closed: true,
                },
                crate::recorder::SpanRecord {
                    phase: Phase::Solve,
                    label: None,
                    member: None,
                    depth: 1,
                    start_us: 0,
                    dur_us: 500,
                    closed: true,
                },
            ],
            ..TraceSnapshot::default()
        };
        let report = profile_report(&snap);
        // The nested span is 50× the wall; its row shows 100.0%, not 5000%.
        assert!(report.contains("100.0%"), "got:\n{report}");
        assert!(!report.contains("5000.0%"), "got:\n{report}");
    }
}
