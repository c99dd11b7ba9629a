#!/usr/bin/env bash
# Repository CI gate. Run from the repo root:
#
#     bash scripts/ci.sh
#
# Every step must pass. The same commands are what reviewers run locally;
# the workspace is fully offline (external deps are vendored shims under
# vendor/), so no network access is required.
#
# Each step runs in a subshell that stops at its first failed command; the
# script still runs every later step, then names each failed one and exits
# non-zero, so one red step does not hide the rest.
set -uo pipefail
cd "$(dirname "$0")/.."

FAILED=()
step() { STEP="$*"; printf '\n== %s ==\n' "$STEP"; }
ok() { [ "$1" = 0 ] || FAILED+=("$STEP"); }

# Non-test lines of crates/*/src matching $1: `#[cfg(test)]` modules come
# last in a file and are cut off first.
guard() { for f in $(find crates/*/src -name '*.rs'); do sed '/#\[cfg(test)\]/,$d' "$f" | grep -Hn --label="$f" -E "$1" || true; done; }

# The boot smoke writes its /metrics scrape here and the alert gate reads
# it; a smoke that never scraped leaves no file, and the gate fails.
SMOKE_DIR="$(mktemp -d)"
BIN_LOG="$SMOKE_DIR/serve.log"
SCRAPE="$SMOKE_DIR/metrics.txt"
SPANS="$SMOKE_DIR/spans.ndjson"
BODY='{"model": "default", "inputs": [{"tensor": {"shape": [2, 4], "data": [1, 1, 1, 1, 1, 1, 1, 1]}}]}'

step "cargo fmt --check"
( set -e
cargo fmt --check
); ok $?

step "cargo build --release --workspace"
( set -e
cargo build --release --workspace
); ok $?

step "cargo build --examples"
( set -e
cargo build --examples
); ok $?

step "cargo test --workspace -q"
( set -e
cargo test --workspace -q
); ok $?

step "cargo test --release -q -p tssa-tensor -p tssa-backend, and --test alloc_counts"
( set -e
# The server runs the release kernels: debug builds panic on integer
# overflow, which would hide a missing `wrapping_*` in the op table. The
# pinned allocation ceilings are checked on the optimized build the
# benchmark measures.
cargo test --release -q -p tssa-tensor -p tssa-backend
cargo test --release -q --test alloc_counts
); ok $?

step "one strided kernel core (no second odometer, buffer enum or boxed walk)"
( set -e
# Strided data is walked by tssa_tensor::kernel::for_each_row and nothing
# else.
[ -z "$(guard 'CoordIter')" ] || { echo "CoordIter is back:"; guard 'CoordIter'; exit 1; }
[ -z "$(guard 'fn for_each_row|enum Data\b' | grep -v '^crates/tensor/src/kernel.rs:')" ] || { echo "a second strided core:"; guard 'fn for_each_row|enum Data\b'; exit 1; }
); ok $?

step "one execution plan (no launch-time lowering, no import copy, registers not a map)"
( set -e
# A launch binds the ExecPlan built with the program: it hashes nothing and
# copies no input in; the interpreter's environment is indexed by value id.
[ -z "$(guard '\bto_buffer\(|HashMap' | grep '^crates/backend/src/fused.rs:')" ] || { echo "a launch lowers or copies again:"; guard '\bto_buffer\(|HashMap' | grep '^crates/backend/src/fused.rs:'; exit 1; }
[ -z "$(guard 'HashMap<ValueId' | grep '^crates/backend/src/interp.rs:')" ] || { echo "registers are a map again:"; guard 'HashMap<ValueId' | grep '^crates/backend/src/interp.rs:'; exit 1; }
); ok $?

step "one way to run a program (no threaded map, thread knob or second profiler)"
( set -e
# A ParallelMap's iterations run in turn on the calling thread and the
# OpObserver seam is the only per-operator profiler; neither comes back as
# an option.
ONE_WAY='parallel_threads|crossbeam::thread|available_parallelism|OpProfile'
[ -z "$(guard "$ONE_WAY" | grep -E '^crates/(backend|pipelines|serve|store)/src/')" ] || { echo "a second way to run or profile a program:"; guard "$ONE_WAY" | grep -E '^crates/(backend|pipelines|serve|store)/src/'; exit 1; }
); ok $?

step "one watch path in the executor (one timing site, one observer seam)"
( set -e
# eval_block times every node the interpreter runs, control and group nodes
# included, and reports it through the OpObserver seam, which also carries
# the shape of every tensor bound. Neither a second watcher beside the
# seam, a timer inside an eval_node arm, nor a second clock read in the
# interpreter comes back.
[ -z "$(guard 'shape_trace|body_at' | grep '^crates/backend/src/')" ] || { echo "a second watch path:"; guard 'shape_trace|body_at' | grep '^crates/backend/src/'; exit 1; }
CLOCKS="$(guard 'Instant::now' | grep '^crates/backend/src/interp.rs:' || true)"
[ "$(printf '%s' "$CLOCKS" | grep -c .)" -le 1 ] || { echo "more than one timing site in the interpreter:"; echo "$CLOCKS"; exit 1; }
); ok $?

step "one plan table (no concrete-key table, origin keys or second degrade trigger)"
( set -e
# Every compiled plan is a shape class in the plan cache's one table, under
# one LRU; neither a second key type, the bookkeeping that tied two tables
# together, nor a fixed degrade trigger beside the adaptive one comes back.
ONE_TABLE='struct PlanKey|origin_keys|Trigger::Fixed'
[ -z "$(guard "$ONE_TABLE" | grep '^crates/serve/src/')" ] || { echo "a second plan table:"; guard "$ONE_TABLE" | grep '^crates/serve/src/'; exit 1; }
); ok $?

step "one definition per operator (no second op-name table or scalar evaluator)"
( set -e
# Each elementwise, host-scalar and mutation kind is named once, in the
# kind tables of crates/ir/src/ops.rs, and ScalarKind::eval is the only
# definition of host-scalar arithmetic: neither a hand-kept list of op names
# nor a second integer semantics in the constant folder or the interpreter
# comes back.
ONE_NAME='"(int_add|add_scalar|logical_and|float_lt)"'
[ -z "$(guard "$ONE_NAME" | grep -v '^crates/ir/src/ops.rs:')" ] || { echo "an op name outside the kind tables:"; guard "$ONE_NAME" | grep -v '^crates/ir/src/ops.rs:'; exit 1; }
ONE_EVAL='wrapping_(add|sub|mul|div|rem|neg)'
[ -z "$(guard "$ONE_EVAL" | grep -E '^crates/(core/src/|backend/src/interp.rs:)')" ] || { echo "host-scalar arithmetic outside ScalarKind::eval:"; guard "$ONE_EVAL" | grep -E '^crates/(core/src/|backend/src/interp.rs:)'; exit 1; }
); ok $?

step "one definition per transcendental (no libm tanh or exp in the kernels)"
( set -e
# tanh, exp and sigmoid are the polynomial forms of crates/tensor/src/math.rs,
# which eager and fused execution both reach through the one op table. A
# libm call beside them is one call per element that cannot vectorise, and
# an executor that made it would no longer agree with the others to the bit.
ONE_FN='\.(tanh|exp)\(\)'
[ -z "$(guard "$ONE_FN" | grep -E '^crates/(tensor|backend)/src/')" ] || { echo "a libm transcendental in a kernel:"; guard "$ONE_FN" | grep -E '^crates/(tensor|backend)/src/'; exit 1; }
); ok $?

step "one overload response (no degraded mode, Eager twin or in-process retry)"
( set -e
# Queue pressure is answered by the autoscaler adding workers: every plan a
# worker runs is the one its ModelHandle got from the plan cache, and a
# transient shed or cancellation reaches the caller typed. Neither a second
# controller that swaps plans under load nor a retry loop inside the
# service comes back.
ONE_RESPONSE='AdaptiveDegrade|DegradeController|degrade_adaptive|degraded_plan|is_degraded|submit_retry|RetryPolicy'
[ -z "$(guard "$ONE_RESPONSE")" ] || { echo "a second overload response:"; guard "$ONE_RESPONSE"; exit 1; }
); ok $?

step "one public surface (no lint severity knob, style lints, second pass hook or sink-level exposition)"
( set -e
# The lint rules are one fixed table with one severity each; the pass
# sanitizer is the one debug pass hook (verify, effects, shapes); sink
# health reaches /metrics through the MetricsRegistry only. Neither a
# per-rule severity override, the deleted style lints, a second hook nor a
# sink-level Prometheus renderer comes back.
ONE_SURFACE='set_severity|struct (ViewEscape|DeadMutation|RedundantClone|UnusedValue|ShapeRatchet)\b|prometheus_text_rotating|prometheus_partial'
[ -z "$(guard "$ONE_SURFACE")" ] || { echo "a second public surface:"; guard "$ONE_SURFACE"; exit 1; }
); ok $?

step "one worker lifecycle (recovery in place, no supervisor or persisted census)"
( set -e
# A worker owns the batch it runs and recovers from its own panic on its
# own thread; grow and shrink change the pool under its lock. Neither a
# supervisor thread with its event channel and crash guard, a batch slot a
# second thread can take from, nor a shape census that rewrites plan files
# from the request path comes back.
ONE_LIFECYCLE='WorkerEvent|CrashGuard|supervisor_loop|SupervisorCtx|in_flight|touch_bucket|seed_census'
[ -z "$(guard "$ONE_LIFECYCLE")" ] || { echo "a second worker lifecycle:"; guard "$ONE_LIFECYCLE"; exit 1; }
); ok $?

step "one shape authority (no constraint parser, second union-find or lint-side shape rule)"
( set -e
# The symbolic shape analysis in tssa-ir is the one static definition of
# each view and broadcast rule, and the lint's shape rules report what it
# records. Its constraints stay typed from the certifier to the plan file,
# and DimUnionFind is the one solver of their equalities. Neither a parser
# that reads constraints back from text, a second union-find nor a copy of
# a shape rule in the lint comes back.
ONE_SHAPE='fn parse_constraint|SymExpr::parse|DimVar::parse|struct DimClasses|fn symbolic_numel|fn provable_broadcast_mismatch|constraints: Vec<String>'
[ -z "$(guard "$ONE_SHAPE")" ] || { echo "a second shape authority:"; guard "$ONE_SHAPE"; exit 1; }
); ok $?

step "one list of pipelines (no mirror enum, name or device table outside tssa-pipelines)"
( set -e
# PipelineKind in tssa-pipelines names the five compilers of the paper's
# figures once, and everything a name determines (passes, roster, execution
# profile) is read off the pipeline it maps to. Neither a second enum of
# them, a table of their names or device names, nor a second lookup of
# their execution profile comes back outside that crate.
ONE_LIST='enum PipelineKind|KNOWN_PIPELINES|fn intern_(pipeline|device)|fn exec_profile'
[ -z "$(guard "$ONE_LIST" | grep -v '^crates/pipelines/src/')" ] || { echo "a second list of pipelines:"; guard "$ONE_LIST" | grep -v '^crates/pipelines/src/'; exit 1; }
); ok $?

step "one queue (no dispatcher thread, batching timer or channel crate)"
( set -e
# Admission pushes into one request queue and a free worker takes the
# oldest request with the queued requests that can share its execution.
# Neither a dispatcher thread with its bins, a timer that holds a batch
# back while a worker is idle, an idle worker's poll, nor a channel crate
# between admission and the workers comes back.
ONE_QUEUE='fn dispatch_loop|DispatcherCtx|max_wait|STOP_POLL|crossbeam::'
[ -z "$(guard "$ONE_QUEUE")" ] || { echo "a second queue:"; guard "$ONE_QUEUE"; exit 1; }
); ok $?

step "one lock vocabulary (std::sync, no parking_lot)"
( set -e
# Every lock is a std::sync one, and each lock owner states its poison
# policy once, in the accessor that takes the lock. Neither the vendored
# parking_lot shim nor a dependency on it comes back.
LOCKS="$(guard 'parking_lot'; grep -Hn 'parking_lot' Cargo.toml crates/*/Cargo.toml || true)"
[ -z "$LOCKS" ] || { echo "a second lock vocabulary:"; echo "$LOCKS"; exit 1; }
); ok $?

step "no unused dependency (every [dependencies] entry is named in its crate)"
( set -e
# An edge nothing uses still orders the build: the crate waits for the
# dependency and everything under it. Each [dependencies] entry of a crate
# must be named, in snake_case, in some Rust file under that crate.
UNUSED=""
for manifest in crates/*/Cargo.toml; do
  for dep in $(awk '/^\[/ { on = ($0 == "[dependencies]") } on && /^[A-Za-z0-9_-]+[ .=]/ { sub(/[ .=].*/, ""); print }' "$manifest"); do
    grep -rqw --include='*.rs' "${dep//-/_}" "$(dirname "$manifest")" || UNUSED="$UNUSED $manifest:$dep"
  done
done
[ -z "$UNUSED" ] || { echo "dependencies nothing names:$UNUSED"; exit 1; }
); ok $?

step "cargo clippy --workspace --all-targets -- -D warnings -D unreachable_pub"
( set -e
# A `pub` item nothing outside its crate can reach is `pub(crate)`, so the
# public surface is what the crate roots export and nothing more.
cargo clippy --workspace --all-targets -q -- -D warnings -D unreachable_pub
); ok $?

step "trace_dump example (end-to-end trace invariants)"
( set -e
# Serves one traced attention request and asserts the trace's shape: the
# expected top-level spans, >= 3 nesting levels, per-pass timings covering
# >= 90% of the compile span, and a Chrome-trace export that parses.
cargo run --release --example trace_dump
test -s target/trace_dump.json
# Cross-check the export with an independent JSON parser when available.
if command -v python3 >/dev/null 2>&1; then
  python3 - <<'EOF'
import json
with open("target/trace_dump.json") as f:
    trace = json.load(f)
names = {e["name"] for e in trace["traceEvents"]}
expected = {"request", "request:load", "compile:TensorSSA", "exec", "batch[0]"}
missing = expected - names
assert not missing, f"trace is missing spans: {missing}"
print(f"python3 cross-check: {len(trace['traceEvents'])} events, all expected spans present")
EOF
fi
); ok $?

step "tssa-lint over the example DSL programs"
( set -e
# Fails on any Deny-level diagnostic (e.g. a shape-incompatible view chain).
cargo run --release -q --bin tssa-lint -- lint examples/dsl/*.tssa
); ok $?

step "tssa-lint workload purity certification"
( set -e
# Lints the 8 paper workloads and proves the TensorSSA pipeline's output
# mutation-free via the effect checker (the soundness claim of §4.1).
cargo run --release -q --bin tssa-lint -- workloads
); ok $?

step "tssa-lint workload shape certification"
( set -e
# Certifies a ShapeSignature for each compiled workload: exits nonzero when
# any output dim is data-dependent (i.e. the symbolic shape analysis cannot
# express it over the input dims), which would defeat plan reuse across
# batch sizes.
cargo run --release -q --bin tssa-lint -- shapes
); ok $?

step "cross-shape differential suite (one class plan per workload)"
( set -e
# Sweeps every workload across six batch sizes through one cached class
# plan: outputs must match a per-shape cold compile, with exactly one
# compile per sweep, every later load admitted by the class key, and the
# global tssa_pass_wall_us histogram frozen after the class's first compile.
cargo test --release -q -p tssa-serve --test shape_class
); ok $?

step "tssa-profile: fusion-group hotness ranking (8 workloads)"
( set -e
# Profiles every workload under the TensorSSA pipeline and prints the
# codegen work-list; fails unless attributed op self-time covers >= 90% of
# the measured execution wall time and the flamegraph export parses as
# collapsed-stack.
cargo run --release -q -p tssa-bench --bin tssa-profile -- rank
); ok $?

step "benchmark harness: unit tests + smoke run of all five workloads"
( set -e
# benchmark/ is a package of its own, outside the workspace, so the
# workspace test step above never builds it. Its tests cover the harness's
# statistics, metric tables and comparison rules, then drive run.sh --smoke:
# every workload untraced and traced with one-second phases, every output
# checked, every metric in BENCHMARK.json printed exactly once.
(cd benchmark && cargo test -q)
); ok $?

step "serve chaos suite (210 seeded fault schedules, streaming span sink)"
( set -e
# Deterministic fault injection through the full serving stack: worker
# panics, compile stalls, cache poisoning, admission bursts, slow
# executions — over mixed batch sizes riding one shape class, with every
# response checked against its request's shape. Seeds are fixed (0..210
# inside the test), so a failure here
# reproduces locally with the seed named in the assertion message. The whole
# suite runs traced into one NDJSON StreamSink and asserts the sink stayed
# healthy: zero spans dropped, every line on disk parseable.
cargo test --release -q -p tssa-serve --test chaos
); ok $?

step "tssa-serve-bin boot smoke (ephemeral port, scrape, SIGTERM drain)"
( set -e
# Boots the network front-end on an ephemeral port, sends one real infer
# request and one /metrics scrape over TCP, then proves SIGTERM drains
# cleanly: the process must exit 0 on its own.
# Run the binary directly (built by the workspace build step): a `cargo
# run &` would background cargo itself and SIGTERM would never reach the
# server. --spans turns on the streaming sink so the scrape carries the
# tssa_obs_* counters the alert gate below watches.
./target/release/tssa-serve-bin --addr 127.0.0.1:0 --spans "$SPANS" >"$BIN_LOG" 2>&1 &
BIN_PID=$!
trap 'kill "$BIN_PID" 2>/dev/null || true' EXIT
PORT=""
for _ in $(seq 1 100); do
  PORT="$(sed -n 's/.*listening on [^:]*:\([0-9]*\)$/\1/p' "$BIN_LOG" | head -n1)"
  [ -n "$PORT" ] && break
  sleep 0.1
done
[ -n "$PORT" ] || { echo "tssa-serve-bin never reported its port"; cat "$BIN_LOG"; kill "$BIN_PID" 2>/dev/null; exit 1; }
exec 3<>"/dev/tcp/127.0.0.1/$PORT"
printf 'POST /v1/infer HTTP/1.1\r\nHost: ci\r\nContent-Length: %s\r\nConnection: close\r\n\r\n%s' "${#BODY}" "$BODY" >&3
INFER_RESPONSE="$(cat <&3)"
exec 3<&- 3>&-
echo "$INFER_RESPONSE" | grep -q "200 OK" || { echo "infer smoke failed: $INFER_RESPONSE"; kill "$BIN_PID"; exit 1; }
echo "$INFER_RESPONSE" | grep -q '"ok":true' || { echo "infer body wrong: $INFER_RESPONSE"; kill "$BIN_PID"; exit 1; }
exec 3<>"/dev/tcp/127.0.0.1/$PORT"
printf 'GET /metrics HTTP/1.1\r\nHost: ci\r\nConnection: close\r\n\r\n' >&3
cat <&3 >"$SCRAPE"
exec 3<&- 3>&-
grep -q "tssa_queue_wait_us" "$SCRAPE" || { echo "/metrics scrape missing queue-wait series"; kill "$BIN_PID"; exit 1; }
grep -q "tssa_autoscaler_workers" "$SCRAPE" || { echo "/metrics scrape missing autoscaler series"; kill "$BIN_PID"; exit 1; }
grep -q "tssa_obs_spans_dropped_total" "$SCRAPE" || { echo "/metrics scrape missing sink series"; kill "$BIN_PID"; exit 1; }
grep -q "tssa_obs_profile_merge_us" "$SCRAPE" || { echo "/metrics scrape missing profiler series"; kill "$BIN_PID"; exit 1; }
# The op-level profiler is on by default (sampled at 10%); its debug
# endpoint must serve the merged table.
exec 3<>"/dev/tcp/127.0.0.1/$PORT"
printf 'GET /debug/profile HTTP/1.1\r\nHost: ci\r\nConnection: close\r\n\r\n' >&3
PROFILE_RESPONSE="$(cat <&3)"
exec 3<&- 3>&-
echo "$PROFILE_RESPONSE" | grep -q '"total_self_us"' || { echo "/debug/profile missing totals: $PROFILE_RESPONSE"; kill "$BIN_PID"; exit 1; }
# The scrape doubles as the input to the alert gate below.
kill -TERM "$BIN_PID"
DRAIN_OK=""
for _ in $(seq 1 100); do
  if ! kill -0 "$BIN_PID" 2>/dev/null; then DRAIN_OK=1; break; fi
  sleep 0.1
done
[ -n "$DRAIN_OK" ] || { echo "tssa-serve-bin did not exit after SIGTERM"; kill -9 "$BIN_PID"; exit 1; }
wait "$BIN_PID" && echo "boot smoke: infer 200, metrics scraped, SIGTERM drained, exit 0"
); ok $?

step "warm-restart smoke (persistent plan cache across SIGTERM)"
( set -e
# Boots with --cache-dir, serves one request, drains on SIGTERM, then
# reboots against the same directory — at --example-batch 3, a batch size
# the first boot never compiled. The class entry on disk must admit it:
# the second boot's load comes from disk (tssa_plan_cache_disk_hits_total
# >= 1) without recompiling (no tssa_pass_wall_us samples on the warm
# scrape).
CACHE_DIR="$(mktemp -d)"
WARM_LOG="$(mktemp)"
WARM_SCRAPE="$(mktemp)"
for BOOT in cold warm; do
  : >"$WARM_LOG"
  EXAMPLE_BATCH=2
  [ "$BOOT" = warm ] && EXAMPLE_BATCH=3
  ./target/release/tssa-serve-bin --addr 127.0.0.1:0 --cache-dir "$CACHE_DIR" --example-batch "$EXAMPLE_BATCH" >"$WARM_LOG" 2>&1 &
  WARM_PID=$!
  trap 'kill "$WARM_PID" 2>/dev/null || true' EXIT
  PORT=""
  for _ in $(seq 1 100); do
    PORT="$(sed -n 's/.*listening on [^:]*:\([0-9]*\)$/\1/p' "$WARM_LOG" | head -n1)"
    [ -n "$PORT" ] && break
    sleep 0.1
  done
  [ -n "$PORT" ] || { echo "warm-restart: $BOOT boot never reported its port"; cat "$WARM_LOG"; kill "$WARM_PID" 2>/dev/null; exit 1; }
  exec 3<>"/dev/tcp/127.0.0.1/$PORT"
  printf 'POST /v1/infer HTTP/1.1\r\nHost: ci\r\nContent-Length: %s\r\nConnection: close\r\n\r\n%s' "${#BODY}" "$BODY" >&3
  cat <&3 | grep -q '"ok":true' || { echo "warm-restart: $BOOT boot infer failed"; kill "$WARM_PID"; exit 1; }
  exec 3<&- 3>&-
  exec 3<>"/dev/tcp/127.0.0.1/$PORT"
  printf 'GET /metrics HTTP/1.1\r\nHost: ci\r\nConnection: close\r\n\r\n' >&3
  cat <&3 >"$WARM_SCRAPE"
  exec 3<&- 3>&-
  kill -TERM "$WARM_PID"
  DRAIN_OK=""
  for _ in $(seq 1 100); do
    if ! kill -0 "$WARM_PID" 2>/dev/null; then DRAIN_OK=1; break; fi
    sleep 0.1
  done
  [ -n "$DRAIN_OK" ] || { echo "warm-restart: $BOOT boot did not drain"; kill -9 "$WARM_PID"; exit 1; }
  wait "$WARM_PID" || { echo "warm-restart: $BOOT boot exited nonzero"; exit 1; }
done
DISK_HITS="$(sed -n 's/^tssa_plan_cache_disk_hits_total \([0-9]*\).*/\1/p' "$WARM_SCRAPE" | head -n1)"
[ -n "$DISK_HITS" ] && [ "$DISK_HITS" -ge 1 ] || { echo "warm boot never hit the disk cache (disk_hits=$DISK_HITS)"; exit 1; }
if grep -q '^tssa_pass_wall_us' "$WARM_SCRAPE"; then
  echo "warm boot recompiled (pass timings present on the warm scrape)"; exit 1
fi
# The smoke request rode the disk-loaded class at a batch size ([2, 4])
# different from the warm boot's example: its per-bucket hit counter must
# be on the scrape.
grep -q 'tssa_plan_class_hits_total{bucket="2x4",plan="default"}' "$WARM_SCRAPE" \
  || { echo "warm scrape missing the per-bucket class-hit counter"; exit 1; }
rm -rf "$CACHE_DIR" "$WARM_LOG" "$WARM_SCRAPE"
echo "warm-restart smoke: disk_hits=$DISK_HITS, zero recompiles on warm boot, class bucket counter live"
); ok $?

step "tssa-alerts: alert rules vs the live scrape"
( set -e
# Evaluates perf/alerts.toml against the /metrics scrape captured above;
# a dropped span or runtime execution failure in the smoke run fails CI.
test -s "$SCRAPE" || { echo "no /metrics scrape from the boot smoke"; exit 1; }
cargo run --release -q --bin tssa-alerts -- --exposition "$SCRAPE"
); ok $?

step "differential fuzz (5000 seeds, bit for bit)"
( set -e
# Random imperative programs (views + mutations + nested control flow)
# executed by the reference interpreter before and after the full TensorSSA
# pipeline; any output bit that differs fails the build (~1.3 s). A general
# net: the generator never names a view before a loop nor a view of a view,
# so the conversion's read-after rule is guarded by tests/deep_nesting.rs and
# crates/core/tests/conversion_invariants.rs, not by this step.
cargo run --release -q --bin tssa-lint -- fuzz --seeds 5000
); ok $?

rm -rf "$SMOKE_DIR"
if [ "${#FAILED[@]}" -gt 0 ]; then
  printf '\nCI: %s step(s) failed:\n' "${#FAILED[@]}"
  printf '  - %s\n' "${FAILED[@]}"
  exit 1
fi
printf '\nCI: all checks passed.\n'
