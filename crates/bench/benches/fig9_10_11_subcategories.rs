//! Criterion counterpart of Figures 9–11: per-subcategory solve time of
//! baseline vs ZPRE under each memory model. One representative task per
//! subcategory keeps the sampled run short; `harness fig9|fig10|fig11`
//! aggregates the whole suite.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use zpre::{verify, Strategy};
use zpre_bench::bench_options;
use zpre_prog::MemoryModel;
use zpre_workloads::{suite, Scale, Subcat, Task};

/// The first (smallest) task of each subcategory.
fn one_per_subcat() -> Vec<Task> {
    let all = suite(Scale::Full);
    Subcat::ALL
        .iter()
        .filter_map(|&sc| all.iter().find(|t| t.subcat == sc).cloned())
        .collect()
}

fn bench_subcategories(c: &mut Criterion) {
    for mm in MemoryModel::ALL {
        let mut group = c.benchmark_group(format!("fig9_10_11/{}", mm.name()));
        group.sample_size(10);
        for task in one_per_subcat() {
            for strategy in [Strategy::Baseline, Strategy::Zpre] {
                let opts = bench_options(&task, mm, strategy);
                group.bench_function(
                    format!(
                        "{}/{}",
                        task.subcat.name().replace('/', "_"),
                        strategy.name()
                    ),
                    |b| b.iter(|| black_box(verify(&task.program, &opts).verdict)),
                );
            }
        }
        group.finish();
    }
}

criterion_group!(benches, bench_subcategories);
criterion_main!(benches);
