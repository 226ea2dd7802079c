#!/usr/bin/env bash
# Local CI: static analysis, formatting, lints, and the tier-1 gate
# (release build + tests). The workspace builds fully offline — all
# external dependencies are local path shims (see shims/README.md).
#
# Usage: ./ci.sh [stage]
#   stage: lint | fmt | clippy | tier1 | chaos | crash | obs | fleet |
#          ingest | bench
#   (default: all, in order)
#   bench = the perfbench smoke test, then one full-scale perfbench pass
#   whose run trees must equal perfbench/golden.json.
#   lint = the two-phase epc-lint audit: per-line rules D1-D6, D10
#   (`unsafe` only in the SHA-NI module) and D11 (threads started only in
#   epc-runtime), then the call-graph taint rules
#   D7-D9 (transitive panic / wall-clock / entropy reachability with
#   witness chains), plus a --format json diff against
#   tests/golden/lint_report.json, plus a check that the engine-selector
#   shim gains no caller.
set -euo pipefail
cd "$(dirname "$0")"

stage="${1:-all}"
case "$stage" in
  all|lint|fmt|clippy|tier1|chaos|crash|obs|fleet|ingest|bench) ;;
  *)
    echo "usage: $0 [lint|fmt|clippy|tier1|chaos|crash|obs|fleet|ingest|bench]" >&2
    exit 2
    ;;
esac

want() { [ "$stage" = all ] || [ "$stage" = "$1" ]; }

# NUL-delimited + C locale: stable across filenames with spaces and
# collation settings, so the hashes compare artifact *content* only.
tree_hash() {
  (cd "$1" && LC_ALL=C find . -type f -print0 | sort -z | xargs -0 sha256sum | sha256sum)
}

if want lint; then
  echo "== epc-lint: two-phase audit (line rules D1-D6 + D10 + D11, graph rules D7-D9) =="
  cargo run -q --release -p epc-lint --offline

  echo "== epc-lint: json report vs checked-in expectation =="
  # The volatile counters (files_scanned/functions/call_edges) churn with
  # every unrelated file change; filter them from both sides so the diff
  # locks the diagnostics (must be none) and the exact reasoned allow set.
  lint_json="$(mktemp)"
  cargo run -q --release -p epc-lint --offline -- --format json > "$lint_json"
  filter_counts() {
    grep -vE '^  "(files_scanned|functions|call_edges)": [0-9]+,$' "$1"
  }
  if ! diff <(filter_counts tests/golden/lint_report.json) \
            <(filter_counts "$lint_json"); then
    echo "FAIL: lint --format json drifted from tests/golden/lint_report.json" >&2
    echo "      (regenerate with: cargo run -q --release -p epc-lint --offline -- --format json > tests/golden/lint_report.json)" >&2
    rm -f "$lint_json"
    exit 1
  fi
  rm -f "$lint_json"

  echo "== lint: the engine-selector shim has no caller =="
  # The pipeline has one engine. `Engine`, `RuntimeConfig::with_engine`
  # and `build_dashboard_with_engine` remain only because perfbench's
  # --trace probes name them (ROADMAP item 4, step 1 deletes them); no
  # workspace code may use them meanwhile, nor the removed crate and
  # environment variable.
  engine_names='epc_columnar|Engine::Row|Engine::Columnar|with_engine\(|build_dashboard_with_engine|INDICE_ENGINE'
  if grep -rnE --include='*.rs' "$engine_names" crates tests examples |
       grep -vE '^crates/(epc-runtime/src/lib|indice/src/dashboard)\.rs:'; then
    echo "FAIL: the lines above name the engine-selector shim or the removed engine" >&2
    exit 1
  fi
fi

if want fmt; then
  echo "== cargo fmt --check =="
  cargo fmt --all -- --check
fi

if want clippy; then
  echo "== cargo clippy (deny warnings) =="
  cargo clippy --workspace --all-targets --offline -- -D warnings
fi

if want tier1; then
  echo "== tier-1: release build =="
  cargo build --release --offline

  echo "== tier-1: tests =="
  cargo test -q --offline

  # The shims are not default members, so the root `cargo test` never
  # runs their own unit tests.
  echo "== tier-1: shim tests (serde, serde_json) =="
  cargo test -q --offline --manifest-path shims/serde/Cargo.toml
  cargo test -q --offline --manifest-path shims/serde_json/Cargo.toml
fi

if want chaos; then
  echo "== chaos: fault-injection suite =="
  cargo test -q --offline -p indice --test chaos

  echo "== chaos: CLI fault rates {0, 0.05, 0.2} =="
  # A zero-fault run must be byte-identical to the strict baseline, and
  # injected-fault runs must degrade (exit 3) — never fail (exit 1).
  cargo build -q --release --offline -p indice-cli
  INDICE="$(pwd)/target/release/indice"
  CHAOS_DIR="$(mktemp -d)"
  trap 'rm -rf "$CHAOS_DIR"' EXIT
  "$INDICE" generate --records 600 --seed 5 --out-dir "$CHAOS_DIR/data" >/dev/null

  run_args=(run
    --data "$CHAOS_DIR/data/epcs.csv"
    --streets "$CHAOS_DIR/data/street_map.txt"
    --regions "$CHAOS_DIR/data/regions.json"
    --stakeholder citizen)

  "$INDICE" "${run_args[@]}" --out-dir "$CHAOS_DIR/baseline" >/dev/null
  baseline_hash="$(tree_hash "$CHAOS_DIR/baseline")"

  "$INDICE" "${run_args[@]}" --out-dir "$CHAOS_DIR/rate0" \
    --fault-seed 7 --fault-rate 0 --geocode-fail-rate 0 >/dev/null
  rate0_hash="$(tree_hash "$CHAOS_DIR/rate0")"
  if [ "$baseline_hash" != "$rate0_hash" ]; then
    echo "FAIL: zero-fault artifacts differ from the baseline" >&2
    exit 1
  fi

  for rate in 0.05 0.2; do
    set +e
    "$INDICE" "${run_args[@]}" --out-dir "$CHAOS_DIR/rate$rate" \
      --fault-seed 7 --fault-rate "$rate" --geocode-fail-rate 0.1 >/dev/null
    code=$?
    set -e
    if [ "$code" -ne 3 ]; then
      echo "FAIL: fault rate $rate exited $code (expected 3 = degraded)" >&2
      exit 1
    fi
    if [ ! -f "$CHAOS_DIR/rate$rate/dashboard.html" ]; then
      echo "FAIL: fault rate $rate produced no dashboard" >&2
      exit 1
    fi
  done
fi

if want crash; then
  echo "== crash: durability suite (crash matrix, resume byte-identity) =="
  cargo test -q --offline -p indice --test durability

  echo "== crash: CLI kill/resume loop at three crash points =="
  # Kill the CLI at an injected crash point (exit 70), resume the run
  # directory, and require the result to be byte-identical — journal,
  # checkpoints, and artifacts — to an uninterrupted run's.
  cargo build -q --release --offline -p indice-cli
  INDICE="$(pwd)/target/release/indice"
  CRASH_DIR="$(mktemp -d)"
  trap 'rm -rf ${CHAOS_DIR:+"$CHAOS_DIR"} "$CRASH_DIR"' EXIT
  "$INDICE" generate --records 600 --seed 5 --out-dir "$CRASH_DIR/data" >/dev/null

  crash_args=(run
    --data "$CRASH_DIR/data/epcs.csv"
    --streets "$CRASH_DIR/data/street_map.txt"
    --regions "$CRASH_DIR/data/regions.json"
    --stakeholder citizen)

  "$INDICE" "${crash_args[@]}" --out-dir "$CRASH_DIR/baseline" >/dev/null
  baseline_hash="$(tree_hash "$CRASH_DIR/baseline")"

  # One crash point per stage, covering all three kinds: a clean commit
  # (after), no commit at all (before), and a torn checkpoint write whose
  # journal entry promises bytes the file no longer has (torn).
  for point in preprocess:after analytics:before dashboard:torn; do
    dir="$CRASH_DIR/run-${point//:/-}"
    set +e
    "$INDICE" "${crash_args[@]}" --out-dir "$dir" --crash-at "$point" \
      >/dev/null 2>&1
    code=$?
    set -e
    if [ "$code" -ne 70 ]; then
      echo "FAIL: --crash-at $point exited $code (expected 70)" >&2
      exit 1
    fi
    "$INDICE" "${crash_args[@]}" --resume "$dir" >/dev/null
    if [ "$(tree_hash "$dir")" != "$baseline_hash" ]; then
      echo "FAIL: resume after $point is not byte-identical to baseline" >&2
      exit 1
    fi
  done
fi

if want obs; then
  echo "== obs: metrics/trace unit + golden-trace suites =="
  cargo test -q --offline -p epc-obs
  cargo test -q --offline -p indice --test observability
  cargo test -q --offline -p indice-cli --test exit_codes

  # The golden logical trace is part of the reviewed artifact surface:
  # print its hash so a schema drift shows up in the CI log.
  echo "== obs: golden trace hash =="
  sha256sum tests/golden/observability_trace.jsonl

  echo "== obs: CLI double-run determinism (metrics, trace, bench) =="
  cargo build -q --release --offline -p indice-cli
  INDICE="$(pwd)/target/release/indice"
  OBS_DIR="$(mktemp -d)"
  trap 'rm -rf ${CHAOS_DIR:+"$CHAOS_DIR"} ${CRASH_DIR:+"$CRASH_DIR"} "$OBS_DIR"' EXIT
  "$INDICE" generate --records 600 --seed 5 --out-dir "$OBS_DIR/data" >/dev/null

  obs_args=(run
    --data "$OBS_DIR/data/epcs.csv"
    --streets "$OBS_DIR/data/street_map.txt"
    --regions "$OBS_DIR/data/regions.json"
    --stakeholder citizen)

  for i in 1 2; do
    "$INDICE" "${obs_args[@]}" --out-dir "$OBS_DIR/run$i" \
      --metrics-out "$OBS_DIR/metrics$i.json" \
      --trace-out "$OBS_DIR/trace$i.jsonl" >/dev/null
  done
  # Metrics carry no wall-clock fields: byte-identical across runs.
  if ! cmp -s "$OBS_DIR/metrics1.json" "$OBS_DIR/metrics2.json"; then
    echo "FAIL: metrics snapshots differ between identical runs" >&2
    exit 1
  fi
  # Traces are identical once wall-clock fields (wall_ms on every event,
  # span_ms on span ends) are normalised — the logical stream contract.
  normalise_trace() {
    sed -E 's/"(wall_ms|span_ms)": [0-9]+/"\1": 0/g' "$1"
  }
  if [ "$(normalise_trace "$OBS_DIR/trace1.jsonl")" != \
       "$(normalise_trace "$OBS_DIR/trace2.jsonl")" ]; then
    echo "FAIL: logical trace streams differ between identical runs" >&2
    exit 1
  fi

  for i in 1 2; do
    "$INDICE" bench --records 600 --seed 5 --out "$OBS_DIR/bench$i.json" \
      >/dev/null
  done
  # Everything but the wall-time-derived fields must reproduce exactly.
  normalise_bench() {
    sed -E 's/"(wall_ms|total_wall_ms|load_ms|input_hash_ms|durable_wall_ms)": [0-9]+/"\1": 0/g;
            s/"records_per_sec": [0-9.]+/"records_per_sec": 0/g' "$1"
  }
  if [ "$(normalise_bench "$OBS_DIR/bench1.json")" != \
       "$(normalise_bench "$OBS_DIR/bench2.json")" ]; then
    echo "FAIL: bench snapshots differ in deterministic fields" >&2
    exit 1
  fi
fi

if want fleet; then
  echo "== fleet: coordinator unit + chaos suites =="
  cargo test -q --offline -p epc-coord
  cargo test -q --offline -p indice --test fleet

  echo "== fleet: CLI kill/resume loop at two coordinator crash points =="
  # Kill the coordinator between shard commits (exit 70), resume the
  # fleet directory, and require the whole fleet tree — fleet journal,
  # per-city run dirs, merged metrics, dashboard — to be byte-identical
  # to an uninterrupted fleet's.
  cargo build -q --release --offline -p indice-cli
  INDICE="$(pwd)/target/release/indice"
  FLEET_DIR="$(mktemp -d)"
  trap 'rm -rf ${CHAOS_DIR:+"$CHAOS_DIR"} ${CRASH_DIR:+"$CRASH_DIR"} \
    ${OBS_DIR:+"$OBS_DIR"} "$FLEET_DIR"' EXIT

  fleet_args=(fleet run --cities 3 --records 400 --seed 5)

  "$INDICE" "${fleet_args[@]}" --out-dir "$FLEET_DIR/baseline" >/dev/null
  baseline_hash="$(tree_hash "$FLEET_DIR/baseline")"
  baseline_metrics="$FLEET_DIR/baseline/fleet.metrics.json"

  for point in 0:after 1:before; do
    dir="$FLEET_DIR/run-${point//:/-}"
    set +e
    "$INDICE" "${fleet_args[@]}" --out-dir "$dir" --crash-at-city "$point" \
      >/dev/null 2>&1
    code=$?
    set -e
    if [ "$code" -ne 70 ]; then
      echo "FAIL: --crash-at-city $point exited $code (expected 70)" >&2
      exit 1
    fi
    "$INDICE" "${fleet_args[@]}" --resume "$dir" >/dev/null
    if ! cmp -s "$dir/fleet.metrics.json" "$baseline_metrics"; then
      echo "FAIL: merged metrics after $point differ from baseline" >&2
      exit 1
    fi
    if [ "$(tree_hash "$dir")" != "$baseline_hash" ]; then
      echo "FAIL: resume after $point is not byte-identical to baseline" >&2
      exit 1
    fi
  done

  echo "== fleet: degraded fleet keeps surviving cities byte-identical =="
  set +e
  "$INDICE" "${fleet_args[@]}" --out-dir "$FLEET_DIR/degraded" \
    --kill-city 1 --kill-stage preprocess --kill-attempt all \
    >/dev/null 2>&1
  code=$?
  set -e
  if [ "$code" -ne 3 ]; then
    echo "FAIL: exhausted city exited $code (expected 3 = degraded)" >&2
    exit 1
  fi
  for city_dir in "$FLEET_DIR/baseline/cities/"*/; do
    city="$(basename "$city_dir")"
    [ "$city" = "01-milano" ] && continue
    if [ "$(tree_hash "$city_dir")" != \
         "$(tree_hash "$FLEET_DIR/degraded/cities/$city")" ]; then
      echo "FAIL: surviving city $city differs from fault-free baseline" >&2
      exit 1
    fi
  done
  if ! grep -q "city unavailable" "$FLEET_DIR/degraded/fleet_dashboard.html"; then
    echo "FAIL: degraded dashboard lacks the unavailable panel" >&2
    exit 1
  fi
fi

if want ingest; then
  echo "== ingest: generation-journaled micro-batch suite =="
  cargo test -q --offline -p indice --test ingest

  echo "== ingest: batched == one-shot equivalence gate =="
  # Fold the input in three micro-batches and require `current/` to be
  # byte-identical to a one-shot run over the concatenated CSV.
  cargo build -q --release --offline -p indice-cli
  INDICE="$(pwd)/target/release/indice"
  INGEST_DIR="$(mktemp -d)"
  trap 'rm -rf ${CHAOS_DIR:+"$CHAOS_DIR"} ${CRASH_DIR:+"$CRASH_DIR"} \
    ${OBS_DIR:+"$OBS_DIR"} ${FLEET_DIR:+"$FLEET_DIR"} "$INGEST_DIR"' EXIT
  "$INDICE" generate --records 900 --seed 5 --out-dir "$INGEST_DIR/data" \
    >/dev/null

  # Split the CSV into three batches (header repeated per batch file).
  # sed reads the file to the end, so pipefail never sees a SIGPIPE.
  csv="$INGEST_DIR/data/epcs.csv"
  total=$(($(wc -l < "$csv") - 1))
  third=$((total / 3))
  sed -n "1p; 2,$((third + 1))p" "$csv" > "$INGEST_DIR/b0.csv"
  sed -n "1p; $((third + 2)),$((2 * third + 1))p" "$csv" > "$INGEST_DIR/b1.csv"
  sed -n "1p; $((2 * third + 2)),\$p" "$csv" > "$INGEST_DIR/b2.csv"

  ingest_args=(ingest
    --append "$INGEST_DIR/b0.csv,$INGEST_DIR/b1.csv,$INGEST_DIR/b2.csv"
    --streets "$INGEST_DIR/data/street_map.txt"
    --regions "$INGEST_DIR/data/regions.json"
    --stakeholder citizen)

  "$INDICE" run \
    --data "$csv" \
    --streets "$INGEST_DIR/data/street_map.txt" \
    --regions "$INGEST_DIR/data/regions.json" \
    --stakeholder citizen --out-dir "$INGEST_DIR/oneshot" >/dev/null
  oneshot_hash="$(tree_hash "$INGEST_DIR/oneshot")"

  "$INDICE" "${ingest_args[@]}" --into "$INGEST_DIR/batched" >/dev/null
  if [ "$(tree_hash "$INGEST_DIR/batched/current")" != "$oneshot_hash" ]; then
    echo "FAIL: batched current/ is not byte-identical to the one-shot run" >&2
    exit 1
  fi
  batched_hash="$(tree_hash "$INGEST_DIR/batched")"

  echo "== ingest: CLI kill/resume loop at three batch-boundary points =="
  # Kill the ingest at an injected batch boundary (exit 70), resume the
  # run directory, and require the whole ingest tree — generation
  # manifest, sealed deltas, current/ — to be byte-identical to an
  # uninterrupted ingest's.
  for point in 1:before 1:after 1:torn; do
    dir="$INGEST_DIR/run-${point//:/-}"
    set +e
    "$INDICE" "${ingest_args[@]}" --into "$dir" --crash-at-batch "$point" \
      >/dev/null 2>&1
    code=$?
    set -e
    if [ "$code" -ne 70 ]; then
      echo "FAIL: --crash-at-batch $point exited $code (expected 70)" >&2
      exit 1
    fi
    "$INDICE" "${ingest_args[@]}" --resume "$dir" >/dev/null
    if [ "$(tree_hash "$dir")" != "$batched_hash" ]; then
      echo "FAIL: resume after $point is not byte-identical to baseline" >&2
      exit 1
    fi
  done

  echo "== ingest: --recompute is an unknown flag, rejected before any I/O =="
  set +e
  "$INDICE" "${ingest_args[@]}" --into "$INGEST_DIR/recompute" \
    --recompute warm >/dev/null 2>"$INGEST_DIR/recompute.err"
  code=$?
  set -e
  if [ "$code" -ne 1 ]; then
    echo "FAIL: --recompute warm exited $code (expected 1)" >&2
    exit 1
  fi
  if ! grep -qF -- "unknown flag --recompute" "$INGEST_DIR/recompute.err"; then
    echo "FAIL: the --recompute rejection does not name the flag" >&2
    exit 1
  fi
  if [ -e "$INGEST_DIR/recompute" ]; then
    echo "FAIL: a rejected ingest created its run directory" >&2
    exit 1
  fi

  echo "== ingest: a warm-sealed run directory resumes to the exact tree =="
  # A last generation sealed as "warm" fails resume validation and is
  # folded again in exact mode.
  warm_dir="$INGEST_DIR/warm-sealed"
  cp -R "$INGEST_DIR/batched" "$warm_dir"
  sed -i '$ s/"recompute":"exact"/"recompute":"warm"/' \
    "$warm_dir/generations.manifest.jsonl"
  if ! tail -n 1 "$warm_dir/generations.manifest.jsonl" \
       | grep -qF '"recompute":"warm"'; then
    echo "FAIL: could not relabel the last generation as warm" >&2
    exit 1
  fi
  "$INDICE" "${ingest_args[@]}" --resume "$warm_dir" \
    >/dev/null 2>"$INGEST_DIR/warm.err"
  if ! grep -qF 'sealed generation 2 rejected: sealed in recompute mode "warm"' \
       "$INGEST_DIR/warm.err"; then
    echo "FAIL: resume did not print the warm generation's rejection" >&2
    exit 1
  fi
  if [ "$(tree_hash "$warm_dir")" != "$batched_hash" ]; then
    echo "FAIL: warm-sealed resume is not byte-identical to the exact ingest" >&2
    exit 1
  fi
fi

if want bench; then
  echo "== bench: perfbench builds against the workspace and passes its checks =="
  # perfbench/ is a standalone package with path deps on the repo crates,
  # so no other stage compiles it. Its test runs all three workloads at
  # 1/50 scale, untraced and traced, with every check.
  cargo test -q --offline --manifest-path perfbench/Cargo.toml

  echo "== bench: full-scale run trees equal perfbench/golden.json =="
  # The smoke test runs at --scale, which skips the golden-tree check. At
  # full scale and seed 2024 every run directory must hash to its pinned
  # value; perfbench reports that as "correct" on its last line.
  bench_out="$(cargo run -q --release --offline --manifest-path perfbench/Cargo.toml -- \
    --workload all --seed 2024 --seconds 1)"
  bench_last="$(printf '%s\n' "$bench_out" | tail -n 1)"
  if ! printf '%s' "$bench_last" | grep -q '"correct":true' ||
     ! printf '%s' "$bench_last" | grep -q '"failed":0'; then
    printf '%s\n' "$bench_out" >&2
    echo "FAIL: perfbench at full scale is not correct (see its last line above)" >&2
    exit 1
  fi
fi

echo "CI OK ($stage)"
