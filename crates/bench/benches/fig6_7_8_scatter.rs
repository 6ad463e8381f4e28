//! Criterion counterpart of Figures 6–8: per-task solve time of the
//! baseline vs ZPRE under SC, TSO and PSO on representative tasks drawn
//! from every difficulty band. The statistically sampled per-task pairs
//! are the scatter points; the harness (`harness fig6|fig7|fig8`) renders
//! the full-suite scatter.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use zpre::{verify, Strategy};
use zpre_bench::bench_options;
use zpre_prog::MemoryModel;
use zpre_workloads::{suite, Scale, Task};

fn representative_tasks() -> Vec<Task> {
    let names = [
        "wmm/sb-b0",
        "wmm/mp-fence-b2",
        "pthread/counter-2x2-locked",
        "lit/peterson-w1",
        "divine/ring-3",
        "C-DAC/parsum-2x2-locked",
    ];
    suite(Scale::Full)
        .into_iter()
        .filter(|t| names.contains(&t.name.as_str()))
        .collect()
}

fn bench_scatter(c: &mut Criterion) {
    for mm in MemoryModel::ALL {
        let mut group = c.benchmark_group(format!("fig6_7_8/{}", mm.name()));
        group.sample_size(10);
        for task in representative_tasks() {
            for strategy in [Strategy::Baseline, Strategy::Zpre] {
                let opts = bench_options(&task, mm, strategy);
                group.bench_function(
                    format!("{}/{}", task.name.replace('/', "_"), strategy.name()),
                    |b| b.iter(|| black_box(verify(&task.program, &opts).verdict)),
                );
            }
        }
        group.finish();
    }
}

criterion_group!(benches, bench_scatter);
criterion_main!(benches);
