.PHONY: build test bench-sweep bench-sweep-quick bench-share bench-share-quick bench-prune bench-prune-quick trace-baselines trace-gate

build:
	cargo build --release

test:
	cargo test -q

# The A/B pairs below run through one loop (ab-bench): every row is
# solved --reps times per side, alternating which side goes first, both
# sides must agree on every verdict, and rows unknown on both sides are
# left out of the gated time (the paper's both-solved convention). Full
# runs append NDJSON to target/ab/PAIR.ndjson; BENCH_{SWEEP,SHARE,PRUNE,
# EOG}.json are frozen history of the single-run drivers and of the
# removed EOG microbenchmark.

# Scratch at every bound vs the incremental sweep on the stress + wmm
# families (plus loopy marker-frame tasks); fails unless the stress+wmm
# sweep is >= 1.5x faster than per-bound scratch.
bench-sweep: build
	./target/release/ab-bench sweep --tag "$${TAG:-local}" --out target/ab/sweep.ndjson

# Quick smoke variant for CI: quick-scale families, scratch output file.
bench-sweep-quick: build
	./target/release/ab-bench sweep --quick --tag ci-smoke --out /tmp/sweep-smoke.ndjson

# Shared vs isolated portfolio on the stress + wmm families (plus a
# contended family generating heavy lemma traffic); fails unless the
# shared wall clock stays within tolerance of isolated with non-zero
# import hits.
bench-share: build
	./target/release/ab-bench share --tag "$${TAG:-local}" --out target/ab/share.ndjson

# Quick smoke variant for CI: quick-scale families, scratch output file,
# looser timing bar (tiny tasks make portfolio timing noisy).
bench-share-quick: build
	./target/release/ab-bench share --quick --tag ci-smoke --tolerance 50 --out /tmp/share-smoke.ndjson

# Pruned vs unpruned encoding on the stress + wmm families plus the
# lock-heavy pthread and join-heavy contended families; fails unless the
# lock/join-heavy families show a positive interference-variable
# reduction with the pruned wall clock within tolerance of unpruned.
bench-prune: build
	./target/release/ab-bench prune --tag "$${TAG:-local}" --out target/ab/prune.ndjson

# Quick smoke variant for CI: quick-scale families, scratch output file,
# looser timing bar (tiny tasks make encode-time jitter dominate).
bench-prune-quick: build
	./target/release/ab-bench prune --quick --tag ci-smoke --tolerance 50 --out /tmp/prune-smoke.ndjson

# --- Trace analytics & the telemetry regression gate -------------------
#
# Baselines are one-line `metrics` NDJSON files checked in under
# tests/baselines/, one per example program, produced by the fixed recipe
# below (--mm all --incremental --max-bound 4, default seed). All gated
# metrics (solver work counters, distribution percentiles, quality shares)
# are deterministic for a fixed seed; wall-clock metrics ride along but
# stay informational in the gate.

TRACE_EXAMPLES := $(wildcard examples/programs/*.zc)
TRACE_GATE_DIR := target/trace-gate

# Re-record the checked-in baselines. Run after a change that legitimately
# shifts solver telemetry, and commit the diff.
trace-baselines: build
	@mkdir -p tests/baselines
	@for prog in $(TRACE_EXAMPLES); do \
		name=$$(basename $$prog .zc); \
		./target/release/zpre-cli verify $$prog --mm all --incremental \
			--max-bound 4 --trace-out /tmp/baseline_$$name.ndjson \
			>/dev/null 2>&1 || test $$? -eq 1 || exit 1; \
		./target/release/zpre-cli trace stats /tmp/baseline_$$name.ndjson \
			--json > tests/baselines/$$name.metrics.json; \
		echo "recorded tests/baselines/$$name.metrics.json"; \
	done

# The CI telemetry regression gate: rerun the baseline recipe on every
# example, diff against the checked-in baseline at +-20%, and fail on any
# gated regression. Traces and flamegraphs land in $(TRACE_GATE_DIR) so CI
# can upload them as artifacts.
trace-gate: build
	@mkdir -p $(TRACE_GATE_DIR)
	@fail=0; for prog in $(TRACE_EXAMPLES); do \
		name=$$(basename $$prog .zc); \
		./target/release/zpre-cli verify $$prog --mm all --incremental \
			--max-bound 4 --trace-out $(TRACE_GATE_DIR)/$$name.ndjson \
			>/dev/null 2>&1 || test $$? -eq 1 || exit 1; \
		./target/release/zpre-cli trace check $(TRACE_GATE_DIR)/$$name.ndjson \
			> /dev/null || exit 1; \
		./target/release/zpre-cli trace flame $(TRACE_GATE_DIR)/$$name.ndjson \
			--out $(TRACE_GATE_DIR)/$$name.folded 2> /dev/null; \
		echo "== $$name"; \
		./target/release/zpre-cli trace diff \
			tests/baselines/$$name.metrics.json \
			$(TRACE_GATE_DIR)/$$name.ndjson --gate-tolerance 20% \
			| tee $(TRACE_GATE_DIR)/$$name.diff.txt | tail -1; \
		./target/release/zpre-cli trace diff \
			tests/baselines/$$name.metrics.json \
			$(TRACE_GATE_DIR)/$$name.ndjson --gate-tolerance 20% --json \
			> $(TRACE_GATE_DIR)/$$name.diff.ndjson || fail=1; \
	done; \
	test $$fail -eq 0 || { echo "trace-gate: telemetry regressed"; exit 1; }
