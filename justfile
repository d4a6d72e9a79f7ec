# Developer entry points. `just ci` is exactly what CI runs.

# Run everything CI runs: format check, lint gate, build, tests.
ci: fmt-check lint
    cargo build --release
    cargo test -q

# Reject unformatted code.
fmt-check:
    cargo fmt --check

# Reject all warnings, in every target (lib, bins, tests, benches),
# and check that hbench, a package of its own, still compiles against
# the workspace.
lint:
    cargo clippy --all-targets -- -D warnings
    cargo check --offline --locked --manifest-path hbench/Cargo.toml

# Reformat the workspace in place.
fmt:
    cargo fmt

# Quick inner loop: debug build + tests.
test:
    cargo test -q

# The CI perf gate: hbench (the repository benchmark, BENCHMARK.json)
# on its three workloads at seeds 1 and 90001, three 30-second runs
# each (about 11 minutes), gated against the newest committed
# benchmarks/BENCH_*.json point within BENCHMARK.json's bounds and
# with exact simulated digests. Writes the new point to target/perf/;
# commit it when a change moves a digest or claims a gain. The
# simulated-cycle axis needs no recipe: `cargo test` pins it
# (tests/paper_claims.rs). See docs/PERF.md.
perf:
    rm -rf {{justfile_directory()}}/target/perf
    mkdir -p {{justfile_directory()}}/target/perf
    cd {{justfile_directory()}} && cargo build --release --offline -q --manifest-path hbench/Cargo.toml
    cd {{justfile_directory()}} && for workload in campaign-corpus untar-steady paper-tables; do \
        for seed in 1 90001; do for run in 1 2 3; do \
            cargo run --release --offline -q --manifest-path hbench/Cargo.toml -- \
                --workload $workload --seed $seed --seconds 30 --trace 0 \
                > target/perf/$workload-s$seed-r$run.txt || exit 1; \
        done; done; \
    done
    cd {{justfile_directory()}} && cargo run -q --release --bin hypernel -- analyze bench \
        BENCHMARK.json target/perf/*.txt \
        --baseline $(ls benchmarks/BENCH_*.json | sort | tail -n 1) \
        --out target/perf/BENCH_$(date -u +%FT%H%M).json

# Determinism gate: the fast paths must be model-invisible. Sweep the
# corpus with fast paths on (at two worker counts) and off (line runs
# included), and demand byte-identical campaign.jsonl artifacts,
# summaries, metrics.jsonl time series AND coverage.json atlases; the
# flight recorder's blackbox.json dumps of examples/scenarios (4 seeds,
# swept at --jobs 4, --jobs 1 and with fast paths off) must match; the
# seven printing benches must print the same with fast paths on and
# off; `analyze campaign` must re-aggregate the same summary byte for
# byte.
# Then gate the atlas against the committed baseline (any feature
# covered there but not here exits nonzero) and run the explore smoke
# (must emit at least one lint-clean novel scenario).
determinism:
    rm -rf {{justfile_directory()}}/target/determinism {{justfile_directory()}}/target/coverage
    cargo run -q --release --bin hypernel -- campaign run \
        --corpus {{justfile_directory()}}/corpus --seeds 8 --jobs 4 \
        --out {{justfile_directory()}}/target/determinism/fast.jsonl \
        --summary {{justfile_directory()}}/target/determinism/fast-summary.json \
        --metrics {{justfile_directory()}}/target/determinism/fast-metrics \
        --coverage {{justfile_directory()}}/target/determinism/fast-coverage.json
    cargo run -q --release --bin hypernel -- campaign run \
        --corpus {{justfile_directory()}}/corpus --seeds 8 --jobs 1 \
        --out {{justfile_directory()}}/target/determinism/fast-j1.jsonl \
        --summary {{justfile_directory()}}/target/determinism/fast-j1-summary.json \
        --metrics {{justfile_directory()}}/target/determinism/fast-j1-metrics \
        --coverage {{justfile_directory()}}/target/determinism/fast-j1-coverage.json
    HYPERNEL_NO_FASTPATH=1 \
        cargo run -q --release --bin hypernel -- campaign run \
        --corpus {{justfile_directory()}}/corpus --seeds 8 --jobs 4 \
        --out {{justfile_directory()}}/target/determinism/slow.jsonl \
        --summary {{justfile_directory()}}/target/determinism/slow-summary.json \
        --metrics {{justfile_directory()}}/target/determinism/slow-metrics \
        --coverage {{justfile_directory()}}/target/determinism/slow-coverage.json
    cd {{justfile_directory()}}/target/determinism && for run in fast-j1 slow; do \
        diff fast.jsonl $run.jsonl && \
        diff fast-summary.json $run-summary.json && \
        diff -r fast-metrics $run-metrics && \
        diff fast-coverage.json $run-coverage.json || exit 1; \
    done
    cd {{justfile_directory()}} && for run in bb-j4 bb-j1 bb-slow; do \
        case $run in bb-j4) jobs=4; nofast= ;; bb-j1) jobs=1; nofast= ;; bb-slow) jobs=4; nofast=1 ;; esac; \
        if HYPERNEL_NO_FASTPATH=$nofast cargo run -q --release --bin hypernel -- campaign run \
            --corpus examples/scenarios --seeds 4 --jobs $jobs \
            --out target/determinism/$run.jsonl \
            --blackbox target/determinism/$run > /dev/null; then \
            echo "blackbox-desync scenario unexpectedly passed" >&2; exit 1; \
        fi; \
    done
    cd {{justfile_directory()}}/target/determinism && diff -r bb-j4 bb-j1 && diff -r bb-j4 bb-slow
    cd {{justfile_directory()}} && for bench in table1_lmbench figure6_apps table2_traps \
        ablation_bitmap_cache ablation_section_mapping sensitivity_cost nc_penalty; do \
        cargo bench -q -p hypernel-bench --bench $bench \
            > target/determinism/$bench.txt && \
        HYPERNEL_NO_FASTPATH=1 cargo bench -q -p hypernel-bench --bench $bench \
            > target/determinism/$bench-slow.txt && \
        diff target/determinism/$bench.txt target/determinism/$bench-slow.txt || exit 1; \
    done
    cargo run -q --release --bin hypernel -- analyze campaign \
        {{justfile_directory()}}/target/determinism/fast.jsonl \
        --out {{justfile_directory()}}/target/determinism/analyze-summary.json > /dev/null
    diff {{justfile_directory()}}/target/determinism/fast-summary.json \
        {{justfile_directory()}}/target/determinism/analyze-summary.json
    cargo run -q --release --bin hypernel -- analyze coverage \
        {{justfile_directory()}}/target/determinism/fast-coverage.json \
        --against {{justfile_directory()}}/benchmarks/coverage-baseline.json
    cargo run -q --release --bin hypernel -- campaign explore \
        --corpus {{justfile_directory()}}/corpus \
        --out {{justfile_directory()}}/target/coverage/novel
    cargo run -q --release --bin hypernel -- campaign lint \
        {{justfile_directory()}}/target/coverage/novel
    @echo "determinism: campaign.jsonl + summary + metrics.jsonl + coverage.json byte-identical (fastpath on/off, jobs 1/4), printing benches identical (fastpath on/off), analyze campaign reproduces the summary, coverage gate clean, explore emitted a novel scenario"

# The CI audit gate: lint the scenario corpus and the example
# scenarios, then run the static whole-system audit (with the
# ownership sanitizer enabled) over every corpus scenario's end state,
# plus one negative control — an unprotected native replay of the W^X
# attack must be flagged.
# See docs/AUDIT.md.
audit:
    cargo run -q --release --bin hypernel -- campaign lint \
        {{justfile_directory()}}/corpus
    cargo run -q --release --bin hypernel -- campaign lint \
        {{justfile_directory()}}/examples/scenarios
    cargo run -q --release --bin hypernel -- audit \
        corpus {{justfile_directory()}}/corpus --sanitize
    ! cargo run -q --release --bin hypernel -- audit \
        scenario {{justfile_directory()}}/corpus/wxorx.toml --mode native \
        --json {{justfile_directory()}}/target/audit/wxorx-native.json \
        > /dev/null
    @echo "audit: corpus clean, lint clean, native control flagged"

# The CI staticheck gate: run the static reachability analyzer over the
# corpus (and prove the artifact is a pure function of it — identical at
# any job count and under the engine's execution-path toggles), enforce
# the dynamic ⊆ static soundness contract across corpus × 3 modes × 8
# seeds, diff the prediction against the committed baseline atlas, and
# smoke the steered explore loop (must emit ≥1 lint-clean mutant
# targeting a statically-reachable-but-unfired rule). See docs/STATIC.md.
staticheck:
    rm -rf {{justfile_directory()}}/target/staticheck
    cargo run -q --release --bin hypernel -- staticheck corpus \
        --corpus {{justfile_directory()}}/corpus --jobs 4 \
        --out {{justfile_directory()}}/target/staticheck/static-coverage.json
    cargo run -q --release --bin hypernel -- staticheck corpus \
        --corpus {{justfile_directory()}}/corpus --jobs 1 \
        --out {{justfile_directory()}}/target/staticheck/static-coverage-j1.json
    HYPERNEL_NO_FASTPATH=1 \
        cargo run -q --release --bin hypernel -- staticheck corpus \
        --corpus {{justfile_directory()}}/corpus --jobs 4 \
        --out {{justfile_directory()}}/target/staticheck/static-coverage-slow.json
    diff {{justfile_directory()}}/target/staticheck/static-coverage.json \
         {{justfile_directory()}}/target/staticheck/static-coverage-j1.json
    diff {{justfile_directory()}}/target/staticheck/static-coverage.json \
         {{justfile_directory()}}/target/staticheck/static-coverage-slow.json
    cargo run -q --release --bin hypernel -- staticheck soundness \
        --corpus {{justfile_directory()}}/corpus --seeds 8
    cargo run -q --release --bin hypernel -- analyze staticcov \
        {{justfile_directory()}}/target/staticheck/static-coverage.json \
        --against {{justfile_directory()}}/benchmarks/coverage-baseline.json
    cargo run -q --release --bin hypernel -- campaign explore \
        --corpus {{justfile_directory()}}/corpus \
        --out {{justfile_directory()}}/target/staticheck/steered \
        --targets auto 2>&1 | tee {{justfile_directory()}}/target/staticheck/steered.log
    grep -q '(steered)' {{justfile_directory()}}/target/staticheck/steered.log
    cargo run -q --release --bin hypernel -- campaign lint \
        {{justfile_directory()}}/target/staticheck/steered
    @echo "staticheck: artifact deterministic, soundness gate green, steering emitted a targeted mutant"

# Full adversarial campaign: sweep the shipped scenario corpus across
# 64 seeds and enforce the invariant oracles. Artifacts land in
# target/campaign/.
campaign:
    cargo run -q --release --bin hypernel -- campaign run \
        --corpus {{justfile_directory()}}/corpus \
        --seeds 64 --jobs 8 \
        --out {{justfile_directory()}}/target/campaign/campaign.jsonl \
        --summary {{justfile_directory()}}/target/campaign/campaign-summary.json
    cargo run -q --release --bin hypernel -- analyze campaign \
        {{justfile_directory()}}/target/campaign/campaign.jsonl

# The CI campaign gate: a 16-seed corpus sweep; any oracle violation a
# scenario did not declare exits nonzero. Then the analyzer selftest
# and every example, each of which must exit 0.
campaign-smoke:
    cargo run -q --release --bin hypernel -- campaign run \
        --corpus {{justfile_directory()}}/corpus \
        --seeds 16 --jobs 4 \
        --out {{justfile_directory()}}/target/campaign/campaign.jsonl \
        --summary {{justfile_directory()}}/target/campaign/campaign-summary.json
    cargo run -q --release --bin hypernel -- campaign minimize \
        --corpus {{justfile_directory()}}/corpus \
        --scenario fault-drop-irq --seed 0
    cargo run -q --release --bin hypernel -- analyze selftest
    cd {{justfile_directory()}} && for example in examples/*.rs; do \
        cargo run -q --release --example $(basename $example .rs) > /dev/null || exit 1; \
    done

# Regenerate benchmarks/coverage-baseline.json after intentionally
# extending coverage (new scenario or new instrumentation). Must use the
# same seeds as the `determinism` sweeps — the atlas is seed-range
# dependent but jobs-independent.
coverage-baseline:
    cargo run -q --release --bin hypernel -- campaign run \
        --corpus {{justfile_directory()}}/corpus \
        --seeds 8 --jobs 4 \
        --coverage {{justfile_directory()}}/benchmarks/coverage-baseline.json \
        > /dev/null
    @echo "wrote benchmarks/coverage-baseline.json — review and commit"

# The CI compose gate: lint + compile the standalone compose
# descriptions and run one composed scenario per protection mode (the
# `determinism` sweeps prove the composed artifacts fastpath- and
# jobs-invariant with the rest of the corpus). See docs/COMPOSE.md.
compose-smoke:
    cargo run -q --release --bin hypernel -- compose lint \
        {{justfile_directory()}}/examples/compose
    cargo run -q --release --bin hypernel -- compose compile \
        {{justfile_directory()}}/examples/compose/three-domain.toml
    cargo run -q --release --bin hypernel -- campaign run \
        --corpus {{justfile_directory()}}/corpus --scenario compose-cred-theft \
        --seeds 2 --jobs 2 \
        --out {{justfile_directory()}}/target/compose/hypernel.jsonl
    cargo run -q --release --bin hypernel -- campaign run \
        --corpus {{justfile_directory()}}/corpus --scenario compose-cross-native \
        --seeds 2 --jobs 2 \
        --out {{justfile_directory()}}/target/compose/native.jsonl
    cargo run -q --release --bin hypernel -- campaign run \
        --corpus {{justfile_directory()}}/corpus --scenario compose-cross-kvm \
        --seeds 2 --jobs 2 \
        --out {{justfile_directory()}}/target/compose/kvm.jsonl
    @echo "compose-smoke: descriptions clean, composed scenarios pass in all modes"

# The CI flight-recorder gate: the deliberately broken desync scenario
# must FAIL its sweep (hence the `!`), dump a blackbox.json, and that
# dump must render through `hypernel analyze timeline`. Also diffs the
# fifo-overflow time series against itself as a zero-regression check
# of the timeline gate.
timeline-smoke:
    rm -rf {{justfile_directory()}}/target/timeline
    ! cargo run -q --release --bin hypernel -- campaign run \
        --corpus {{justfile_directory()}}/examples/scenarios \
        --seeds 1 --jobs 1 \
        --out {{justfile_directory()}}/target/timeline/desync.jsonl \
        --blackbox {{justfile_directory()}}/target/timeline/blackbox \
        > /dev/null
    cargo run -q --release --bin hypernel -- analyze timeline \
        {{justfile_directory()}}/target/timeline/blackbox/blackbox-desync-s0.blackbox.json \
        > /dev/null
    cargo run -q --release --bin hypernel -- campaign run \
        --corpus {{justfile_directory()}}/corpus --scenario fifo-overflow \
        --seeds 1 --jobs 1 \
        --metrics {{justfile_directory()}}/target/timeline/metrics \
        > /dev/null
    cargo run -q --release --bin hypernel -- analyze timeline \
        {{justfile_directory()}}/target/timeline/metrics/fifo-overflow-s0.metrics.jsonl \
        --against {{justfile_directory()}}/target/timeline/metrics/fifo-overflow-s0.metrics.jsonl \
        > /dev/null
    @echo "timeline-smoke: blackbox dumped and rendered, timeline gate clean"
