//! Collapsed-stack flamegraph export for phase spans.
//!
//! Emits the `stack;frames;joined value` format consumed by `flamegraph.pl`
//! and inferno: one line per distinct span stack, value = *self* time in
//! microseconds (span duration minus its children's durations), so frame
//! widths add up instead of double-counting nested spans.
//!
//! Stacks are reconstructed from the snapshot's span order: the recorder
//! appends spans in open order and tags each with its per-thread nesting
//! depth, so within one member's stream a span of depth `d` is a child of
//! the most recent span of depth `d-1`. Streams of different portfolio
//! members are disentangled by the member label and rooted at it.

use std::collections::BTreeMap;

use crate::recorder::{SpanRecord, TraceSnapshot};

fn frame_name(s: &SpanRecord) -> String {
    match &s.label {
        Some(l) => format!("{}[{}]", s.phase.name(), l),
        None => s.phase.name().to_owned(),
    }
}

/// `(stack, self_us)` entries in deterministic (lexicographic) order.
/// Stacks are `;`-joined frames rooted at the member name (`main` for the
/// unlabeled stream); equal stacks are merged by summing self time.
/// Zero-self-time stacks are kept — a frame that only dispatches to
/// children still belongs in the graph.
pub fn stack_entries(snap: &TraceSnapshot) -> Vec<(String, u64)> {
    let mut acc: BTreeMap<String, u64> = BTreeMap::new();
    // Group spans by member, preserving record order within each group.
    let mut by_member: BTreeMap<&str, Vec<&SpanRecord>> = BTreeMap::new();
    for s in snap.spans.iter().filter(|s| s.closed) {
        by_member
            .entry(s.member.as_deref().unwrap_or("main"))
            .or_default()
            .push(s);
    }
    for (member, spans) in by_member {
        // Open stack of (frame, dur_us, children_us).
        let mut stack: Vec<(String, u64, u64)> = Vec::new();
        let mut names: Vec<String> = vec![member.to_owned()];
        let close_top = |stack: &mut Vec<(String, u64, u64)>,
                         names: &mut Vec<String>,
                         acc: &mut BTreeMap<String, u64>| {
            let (_, dur, children) = stack.pop().expect("non-empty stack");
            let self_us = dur.saturating_sub(children);
            *acc.entry(names.join(";")).or_insert(0) += self_us;
            names.pop();
            if let Some(parent) = stack.last_mut() {
                parent.2 += dur;
            }
        };
        for s in spans {
            // A span at depth d closes everything at depth >= d.
            while stack.len() > s.depth as usize {
                close_top(&mut stack, &mut names, &mut acc);
            }
            let name = frame_name(s);
            names.push(name.clone());
            stack.push((name, s.dur_us, 0));
        }
        while !stack.is_empty() {
            close_top(&mut stack, &mut names, &mut acc);
        }
    }
    acc.into_iter().collect()
}

/// The collapsed-stack file: one `stack value` line per entry.
pub fn collapsed(snap: &TraceSnapshot) -> String {
    let mut out = String::new();
    for (stack, self_us) in stack_entries(snap) {
        out.push_str(&stack);
        out.push(' ');
        out.push_str(&self_us.to_string());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::SpanRecord;
    use crate::vocab::Phase;

    fn span(
        phase: Phase,
        label: Option<&str>,
        member: Option<&str>,
        depth: u32,
        dur_us: u64,
    ) -> SpanRecord {
        SpanRecord {
            phase,
            label: label.map(str::to_owned),
            member: member.map(str::to_owned),
            depth,
            start_us: 0,
            dur_us,
            closed: true,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let snap = TraceSnapshot {
            spans: vec![
                span(Phase::Solve, None, None, 0, 100),
                span(Phase::Blast, None, None, 1, 30),
                span(Phase::Blast, Some("guards"), None, 1, 20),
            ],
            ..TraceSnapshot::default()
        };
        let entries = stack_entries(&snap);
        let get = |stack: &str| {
            entries
                .iter()
                .find(|(s, _)| s == stack)
                .map(|(_, v)| *v)
                .unwrap_or_else(|| panic!("missing stack {stack:?} in {entries:?}"))
        };
        assert_eq!(get("main;solve"), 50);
        assert_eq!(get("main;solve;blast"), 30);
        assert_eq!(get("main;solve;blast[guards]"), 20);
        // Total self time equals the root's duration.
        assert_eq!(entries.iter().map(|(_, v)| v).sum::<u64>(), 100);
    }

    #[test]
    fn sibling_roots_and_members_are_disentangled() {
        let snap = TraceSnapshot {
            spans: vec![
                span(Phase::Encode, Some("sc"), None, 0, 10),
                span(Phase::Solve, None, None, 0, 40),
                span(Phase::Solve, None, Some("zpre"), 0, 40),
                span(Phase::Solve, None, Some("baseline"), 0, 35),
            ],
            ..TraceSnapshot::default()
        };
        let text = collapsed(&snap);
        assert!(text.contains("main;encode[sc] 10\n"));
        assert!(text.contains("main;solve 40\n"));
        assert!(text.contains("zpre;solve 40\n"));
        assert!(text.contains("baseline;solve 35\n"));
    }

    #[test]
    fn equal_stacks_merge_and_clock_skew_saturates() {
        let snap = TraceSnapshot {
            spans: vec![
                // Child reports longer than its parent (clock granularity):
                // self time saturates at 0 instead of wrapping.
                span(Phase::Solve, None, None, 0, 10),
                span(Phase::Blast, None, None, 1, 12),
                // A second identical top-level solve merges into the stack.
                span(Phase::Solve, None, None, 0, 5),
            ],
            ..TraceSnapshot::default()
        };
        let entries = stack_entries(&snap);
        assert_eq!(
            entries,
            vec![
                ("main;solve".to_string(), 5),
                ("main;solve;blast".to_string(), 12),
            ]
        );
    }
}
