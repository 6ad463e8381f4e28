//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! 1. H1 only (`zpre-`) vs +H2 vs +H3 vs full H1–H4 (`zpre`);
//! 2. random vs fixed-true decision polarity;
//! 3. order-theory reverse propagation on/off;
//! 4. the §5.2 "other attempts" branch-condition heuristic.
//!
//! All on the interference-heavy locked-counter instance under SC, where
//! the heuristic stack has the most room to differ.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use zpre::{verify, Strategy};
use zpre_bench::bench_options;
use zpre_prog::MemoryModel;
use zpre_workloads::{suite, Scale, Task};

fn task() -> Task {
    suite(Scale::Full)
        .into_iter()
        .find(|t| t.name == "pthread/counter-3x2-locked")
        .expect("ablation task exists")
}

fn bench_ablation(c: &mut Criterion) {
    let task = task();
    let mut group = c.benchmark_group("ablation/sc");
    group.sample_size(10);
    for strategy in [
        Strategy::Baseline,
        Strategy::BranchCond,
        Strategy::ZpreMinus,
        Strategy::ZpreH2,
        Strategy::ZpreH3,
        Strategy::Zpre,
        Strategy::ZpreFixedTrue,
        Strategy::ZpreNoReverseProp,
    ] {
        let opts = bench_options(&task, MemoryModel::Sc, strategy);
        group.bench_function(strategy.name(), |b| {
            b.iter(|| black_box(verify(&task.program, &opts).verdict))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_ablation);
criterion_main!(benches);
