//! Criterion counterpart of Table 1: accumulated solving time of the quick
//! suite under baseline vs ZPRE, split by memory model. The measured
//! quantity is "solve the whole (quick) suite", i.e. the suite-level
//! accumulated CPU time the table reports; `harness table1` produces the
//! full-suite numbers with the Sat/Unsat split.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use zpre::{verify, Strategy, Verdict, VerifyOptions};
use zpre_bench::bench_options;
use zpre_prog::MemoryModel;
use zpre_workloads::{suite, Scale, Task};

fn solve_suite(tasks: &[Task], mm: MemoryModel, strategy: Strategy) -> usize {
    let mut solved = 0;
    for task in tasks {
        let opts = VerifyOptions {
            max_conflicts: Some(200_000),
            ..bench_options(task, mm, strategy)
        };
        if verify(&task.program, &opts).verdict != Verdict::Unknown {
            solved += 1;
        }
    }
    solved
}

fn bench_table1(c: &mut Criterion) {
    let tasks = suite(Scale::Quick);
    for mm in MemoryModel::ALL {
        let mut group = c.benchmark_group(format!("table1/{}", mm.name()));
        group.sample_size(10);
        for strategy in [Strategy::Baseline, Strategy::Zpre] {
            group.bench_function(strategy.name(), |b| {
                b.iter(|| black_box(solve_suite(&tasks, mm, strategy)))
            });
        }
        group.finish();
    }
}

criterion_group!(benches, bench_table1);
criterion_main!(benches);
