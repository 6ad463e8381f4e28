//! Criterion counterpart of Table 2. Timing-wise it benches the medium
//! "locked counter" instance under both strategies; before sampling it
//! prints the decisions/propagations/conflicts comparison (the table's
//! content — deterministic counters, no statistical sampling needed).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use zpre::{verify, Strategy};
use zpre_bench::bench_options;
use zpre_prog::MemoryModel;
use zpre_workloads::{suite, Scale, Task};

fn medium_task() -> Task {
    suite(Scale::Full)
        .into_iter()
        .find(|t| t.name == "pthread/counter-3x2-locked")
        .expect("medium counter task exists")
}

fn bench_table2(c: &mut Criterion) {
    let task = medium_task();

    // Print the deterministic search statistics once, per memory model.
    eprintln!("\nTable 2 counters on {}:", task.name);
    eprintln!(
        "{:<5} {:>22} {:>26} {:>22}",
        "MM", "decisions (b/z)", "propagations (b/z)", "conflicts (b/z)"
    );
    for mm in MemoryModel::ALL {
        let stats = |strategy| {
            let opts = bench_options(&task, mm, strategy);
            verify(&task.program, &opts).stats
        };
        let b = stats(Strategy::Baseline);
        let z = stats(Strategy::Zpre);
        eprintln!(
            "{:<5} {:>10}/{:<11} {:>12}/{:<13} {:>10}/{:<11}",
            mm.name().to_uppercase(),
            b.decisions,
            z.decisions,
            b.propagations,
            z.propagations,
            b.conflicts,
            z.conflicts
        );
    }

    for mm in MemoryModel::ALL {
        let mut group = c.benchmark_group(format!("table2/{}", mm.name()));
        group.sample_size(10);
        for strategy in [Strategy::Baseline, Strategy::Zpre] {
            let opts = bench_options(&task, mm, strategy);
            group.bench_function(strategy.name(), |b| {
                b.iter(|| black_box(verify(&task.program, &opts).stats.conflicts))
            });
        }
        group.finish();
    }
}

criterion_group!(benches, bench_table2);
criterion_main!(benches);
