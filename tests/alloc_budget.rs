//! Heap allocations per verification row, parse to verdict.
//!
//! A counting global allocator tallies every `alloc`, `alloc_zeroed` and
//! `realloc` made on the current thread, so tests running in parallel on
//! other threads cannot pollute the count. Each row of the fixed set — the
//! Quick suite under SC, TSO and PSO, each program rendered to `.zc` text —
//! is parsed and verified with [`try_verify`] at the task's own bound, and
//! the mean count per row must stay under [`CEILING`].
//!
//! Before clause intake, the watch lists, the order theory's adjacency,
//! the variable registry, the bit-blaster and the program-order closure
//! stopped allocating per item, this row set cost 2,580 allocations per
//! row in a release build, counted the same way (4,745 in a debug build,
//! whose verifier also re-verifies every small row without pruning). The
//! ceiling is half the release count, and it must hold under both
//! profiles: release builds can elide allocations that debug builds keep.
//! A change that brings back a per-clause, per-variable or per-list
//! allocation on the row path crosses it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use zpre::prelude::*;
use zpre_prog::parse::parse_program;
use zpre_prog::pretty::pretty_program;
use zpre_workloads::{suite, Scale};

/// Mean allocations per row the row set may cost.
const CEILING: u64 = 1_290;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with` fails only while the thread is being torn down.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every call forwards to the system allocator unchanged; the
// counter is a const-initialized thread-local `Cell`, which never
// allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

#[test]
fn allocations_per_row_stay_under_the_ceiling() {
    let mut rows = Vec::new();
    for task in suite(Scale::Quick) {
        let text = pretty_program(&task.program);
        for mm in [MemoryModel::Sc, MemoryModel::Tso, MemoryModel::Pso] {
            let opts = VerifyOptions {
                unroll_bound: task.unroll_bound,
                ..VerifyOptions::new(mm, Strategy::Zpre)
            };
            rows.push((format!("{}@{mm}", task.name), text.clone(), opts));
        }
    }
    let mut total = 0u64;
    for (id, text, opts) in &rows {
        let before = allocs();
        let prog = parse_program(text).unwrap_or_else(|e| panic!("{id}: {e}"));
        let out = try_verify(&prog, opts).unwrap_or_else(|e| panic!("{id}: {e}"));
        assert_ne!(out.verdict, Verdict::Unknown, "{id}");
        drop((prog, out));
        total += allocs() - before;
    }
    let per_row = total / rows.len() as u64;
    println!("{} rows, {per_row} allocations per row", rows.len());
    assert!(
        per_row <= CEILING,
        "{per_row} allocations per row exceed the ceiling of {CEILING}"
    );
}
