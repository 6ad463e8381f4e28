//! Criterion counterpart of Table 3: baseline vs ZPRE⁻ vs ZPRE on a mixed
//! set of safe and unsafe instances across the three memory models.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use zpre::{verify, Strategy};
use zpre_bench::bench_options;
use zpre_prog::MemoryModel;
use zpre_workloads::{suite, Scale, Task};

fn tasks() -> Vec<Task> {
    let names = [
        "pthread/counter-3x2-locked", // safe, interference-heavy
        "pthread/counter-2x3-racy",   // unsafe
        "lit/dekker-w2",              // safe SC / unsafe WMM
        "wmm/sb-grid-4",              // unsafe under WMM, grows with grid
    ];
    suite(Scale::Full)
        .into_iter()
        .filter(|t| names.contains(&t.name.as_str()))
        .collect()
}

fn bench_table3(c: &mut Criterion) {
    for mm in MemoryModel::ALL {
        let mut group = c.benchmark_group(format!("table3/{}", mm.name()));
        group.sample_size(10);
        for strategy in Strategy::MAIN {
            let set = tasks();
            group.bench_function(strategy.name(), |b| {
                b.iter(|| {
                    for task in &set {
                        let opts = bench_options(task, mm, strategy);
                        black_box(verify(&task.program, &opts).verdict);
                    }
                })
            });
        }
        group.finish();
    }
}

criterion_group!(benches, bench_table3);
criterion_main!(benches);
