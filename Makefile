# Developer entry points. `make check` is the gate every PR must pass.

CARGO ?= cargo

.PHONY: check build test test-all clippy lint-unsafe fmt bench bench-train bench-fleet bench-quant bench-fleet-scale bench-ncm bench-rollout bench-continual fleet-smoke fleet-scale-smoke train-smoke quant-smoke fault-smoke ncm-scale-smoke rollout-smoke continual-smoke chaos chaos-drift loc clean

check: build test clippy lint-unsafe fleet-smoke fleet-scale-smoke train-smoke quant-smoke fault-smoke ncm-scale-smoke rollout-smoke continual-smoke

build:
	$(CARGO) build --release

test:
	$(CARGO) test -q --workspace

test-all:
	$(CARGO) test -q --workspace --no-fail-fast

clippy:
	$(CARGO) clippy --workspace --all-targets -- -D warnings

# Every `unsafe` block (and unsafe impl) must carry a `// SAFETY:`
# comment on one of the three lines above it. The SIMD micro-kernels in
# crates/tensor/src/kernels made unsafe common enough to lint for; the
# crate also sets `#![deny(unsafe_op_in_unsafe_fn)]` so no operation
# hides inside an `unsafe fn` without its own annotated block.
lint-unsafe:
	@fail=0; \
	for f in $$(grep -rln --include='*.rs' -e 'unsafe ' crates src 2>/dev/null); do \
		bad=$$(awk '/\/\/ SAFETY:/ { mark = NR } \
			/^[[:space:]]*\/\// { if (mark == NR - 1) mark = NR } \
			/unsafe (\{|impl )/ { if (mark == 0 || NR - mark > 3) print FILENAME ":" NR ": " $$0 }' $$f); \
		if [ -n "$$bad" ]; then echo "$$bad"; fail=1; fi; \
	done; \
	if [ $$fail -ne 0 ]; then \
		echo "error: unsafe block without a '// SAFETY:' comment ending within 3 lines above"; exit 1; \
	fi; \
	echo "lint-unsafe: all unsafe blocks annotated"

fmt:
	$(CARGO) fmt --all

bench:
	$(CARGO) bench -p magneto-bench --bench pipeline_stages

bench-fleet:
	$(CARGO) bench -p magneto-bench --bench fleet_throughput

# Training/inference wall-time sweep across compute-pool sizes; emits
# BENCH_train.json and BENCH_infer.json in the working directory.
bench-train: build
	$(CARGO) run --release -p magneto-bench --bin train_smoke

# Short release-mode fleet serving run: 4 worker threads, 16 sessions,
# asserts nonzero throughput and zero cross-session label leaks.
fleet-smoke: build
	$(CARGO) run --release -p magneto-bench --bin fleet_smoke

# Release-mode tiered-store scale run: 10k base+delta sessions under
# Zipf traffic through one shared base. Gates resident-bytes-per-user
# ≤ 0.5× the naive full-resident footprint and bit-identical serving
# after a page-out → rehydrate round trip; emits BENCH_fleet_scale.json
# in the working directory.
fleet-scale-smoke: build
	$(CARGO) run --release -p magneto-bench --bin fleet_scale_smoke

# The same gates at 100k sessions (the full scale bench).
bench-fleet-scale: build
	$(CARGO) run --release -p magneto-bench --bin fleet_scale_smoke -- --sessions 100000 --arrivals 40000

# Release-mode training smoke run: asserts trained weights and batched
# embeddings are bit-identical at pool sizes 1/2/4/8, and that the
# installed kernel plan is not slower than forced sequential.
train-smoke: build
	$(CARGO) run --release -p magneto-bench --bin train_smoke

# Release-mode quantised-path smoke run: asserts ≥99% f32/int8 prediction
# agreement, bit-identical int8 embeddings at pool sizes 0/1/2/8, and no
# regression of the int8 forward under the installed kernel plan; emits
# BENCH_quant.json in the working directory.
quant-smoke: build
	$(CARGO) run --release -p magneto-bench --bin quant_smoke

# Alias mirroring bench-train for the quantised path.
bench-quant: quant-smoke

# Release-mode NCM index scaling run: dense exact scan vs the two-stage
# quantized search over {8,32,64} classes × {16,64,256} exemplars/class.
# Gates ≥99% prediction agreement at every point, ≥3× speedup at 64×256
# (≥2× scalar-only hosts), and bit-identical decisions across coarse
# backends; emits BENCH_ncm_scale.json in the working directory.
ncm-scale-smoke: build
	$(CARGO) run --release -p magneto-bench --bin ncm_scale_smoke

# Alias mirroring bench-train for the NCM index sweep.
bench-ncm: ncm-scale-smoke

# Release-mode fault-tolerance smoke run: gates accuracy under 5%/20%
# frame drop, byte-exact transactional rollback, crash-safe journaled
# saves (torn and complete journals), and a 4-seed chaos sweep; emits
# BENCH_fault.json in the working directory.
fault-smoke: build
	$(CARGO) run --release -p magneto-bench --bin fault_smoke

# Release-mode rollout lifecycle smoke run: 1k-session fleet, healthy
# v1 → v2 rollout through the default canary waves (diff-shipped, every
# session migrated), then a seeded-regression v2 → v3 that must halt at
# the canary wave and restore every device to the prior version. Also
# gates Definition 1 (zero uplink, all downlink ≤ 5 MB) across both
# rollouts; emits BENCH_rollout.json in the working directory.
rollout-smoke: build
	$(CARGO) run --release -p magneto-bench --bin rollout_smoke

# Alias mirroring bench-train for the rollout lifecycle.
bench-rollout: rollout-smoke

# Release-mode continual-learning smoke run: class-incremental protocol
# (deploy → learn two gestures → calibrate walk to an atypical user)
# with per-step accuracy, forgetting and backward transfer, an open-set
# rejection-threshold sweep, and the self-healing gates — a sustained
# gait change must commit an automatic recalibration that lands
# post-heal accuracy within 10 points of pre-drift, a rejected
# recalibration must leave the bundle byte-identical, and
# check_no_uplink must hold throughout; emits BENCH_continual.json in
# the working directory.
continual-smoke: build
	$(CARGO) run --release -p magneto-bench --bin continual_smoke

# Alias mirroring bench-train for the continual-learning protocol.
bench-continual: continual-smoke

# Extended chaos sweep: the fault-smoke gates with 32 seeded all-faults
# plans (drops + frozen channels + NaN/saturation bursts + jitter)
# through the full streaming path, each replayed for bit-identity.
chaos: build
	$(CARGO) run --release -p magneto-bench --bin fault_smoke -- --chaos-seeds 32

# Extended drift sweep: the continual-smoke gates with 16 seeded
# fault + gait-drift plans composed through the self-healing streaming
# path, each replayed for bit-identity (drift statuses and healing
# counters included).
chaos-drift: build
	$(CARGO) run --release -p magneto-bench --bin continual_smoke -- --drift-seeds 16

# Non-test line count: the lines of each .rs file above its first
# top-level `#[cfg(test)]`. `total` is crates/core/src + crates/fleet/src
# (the figure the ROADMAP gates on); the lines after it count the other
# workspace crates and the CLI's src/, and `all` sums every line
# printed — the measures behind the net-lines-removed figures in
# CHANGES.md.
loc:
	@count() { find $$1 -name '*.rs' | sort | xargs awk \
		'FNR == 1 { t = 0 } /^#\[cfg\(test\)\]/ { t = 1 } !t { n++ } END { print n + 0 }'; }; \
	total=0; \
	for d in crates/core/src crates/fleet/src; do \
		n=$$(count $$d); echo "$$d $$n"; total=$$((total + n)); \
	done; \
	echo "total $$total"; \
	all=$$total; \
	for d in crates/platform/src crates/dsp/src crates/nn/src crates/tensor/src crates/sensors/src src; do \
		n=$$(count $$d); echo "$$d $$n"; all=$$((all + n)); \
	done; \
	echo "all $$all"

clean:
	$(CARGO) clean
