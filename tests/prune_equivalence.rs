//! The statically pruned encoding must be indistinguishable from the
//! historic unpruned encoding: for every workload family, under every
//! memory model, verification with the interference-pruning pass on
//! returns the same verdict as with the pass off — and every pruning
//! justification survives the independent `check_report` re-verification.

use zpre::{try_verify, Strategy, Verdict, VerifyOptions};
use zpre_prog::{to_ssa, unroll_program, MemoryModel};
use zpre_workloads::{suite, Scale, Subcat};

/// Runs `program` pruned and unpruned and checks verdict agreement.
fn assert_prune_agrees(name: &str, task: &zpre_workloads::Task, mm: MemoryModel) -> (u64, u64) {
    let pruned_opts = VerifyOptions {
        unroll_bound: task.unroll_bound,
        max_bound: task.unroll_bound,
        certify: true,
        ..VerifyOptions::new(mm, Strategy::Zpre)
    };
    let unpruned_opts = VerifyOptions {
        prune: false,
        ..pruned_opts.clone()
    };
    let pruned = try_verify(&task.program, &pruned_opts)
        .unwrap_or_else(|e| panic!("{name} {mm}: pruned run failed: {e}"));
    let unpruned = try_verify(&task.program, &unpruned_opts)
        .unwrap_or_else(|e| panic!("{name} {mm}: unpruned run failed: {e}"));
    assert_ne!(
        pruned.verdict,
        Verdict::Unknown,
        "{name} {mm}: pruned run must reach a verdict"
    );
    assert_eq!(
        pruned.verdict, unpruned.verdict,
        "{name} {mm}: pruned and unpruned encodings disagree"
    );

    // Count the pass's effect on this instance so the suite can assert the
    // pruning is not vacuous overall.
    let ssa = to_ssa(&unroll_program(&task.program, task.unroll_bound));
    let report = zpre_analysis::analyze(&ssa, mm);
    let checked = zpre_analysis::check_report(&ssa, &report)
        .unwrap_or_else(|e| panic!("{name} {mm}: justification rejected by checker: {e}"));
    // One check per individually justified pair, one per resolved-read
    // chain and one per symmetric thread pair — nothing the analysis
    // claimed goes unexamined.
    let resolved = report.resolved.iter().filter(|r| r.is_some()).count();
    assert_eq!(
        checked,
        report.pruned_rf.len() + report.pruned_ws.len() + resolved + report.sym_pairs.len(),
        "{name} {mm}: checker visited a different number of claims than the report holds"
    );
    let c = &report.counters;
    let pruned_vars = c.rf_pruned + c.ws_pruned + c.ws_serialized;
    (pruned_vars, checked as u64)
}

/// Every family of the quick suite, under every memory model: the
/// acceptance bar from the issue ("pruned and unpruned encodings agree
/// verdict-for-verdict on every workload family under SC, TSO, and PSO").
#[test]
fn pruned_matches_unpruned_on_every_family() {
    let tasks = suite(Scale::Quick);
    let mut seen: Vec<Subcat> = Vec::new();
    let mut total_pruned = 0u64;
    let mut total_checked = 0u64;
    for task in &tasks {
        if !seen.contains(&task.subcat) {
            seen.push(task.subcat);
        }
        for mm in MemoryModel::ALL {
            let (pruned_vars, checked) = assert_prune_agrees(&task.name, task, mm);
            total_pruned += pruned_vars;
            total_checked += checked;
        }
    }
    assert_eq!(
        seen.len(),
        Subcat::ALL.len(),
        "quick suite no longer covers every family; the equivalence bar shrank"
    );
    assert!(
        total_pruned > 0,
        "the pruning pass removed no interference variable anywhere in the suite"
    );
    assert!(
        total_checked > 0,
        "the independent checker re-verified no justification anywhere in the suite"
    );
}
