#!/usr/bin/env bash
# CI gate: formatting, lints, the tier-1 verify (release build + root tests),
# every workspace test, and the runtime gates below.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check =="
cargo fmt --check

echo "== cargo clippy --workspace -- -D warnings =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== tier-1: cargo build --release =="
cargo build --release --workspace

echo "== e2ebench builds against the workspace APIs it imports =="
cargo build --release --offline --manifest-path e2ebench/Cargo.toml

echo "== e2ebench unit tests (plan/Zipf seed determinism, percentile helpers) =="
cargo test --offline --manifest-path e2ebench/Cargo.toml

echo "== tier-1: cargo test -q =="
cargo test -q

echo "== cargo test --workspace -q (every crate's unit and integration tests) =="
cargo test --workspace -q

echo "== cargo doc --no-deps (warnings clean) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "== trace smoke test: qca-engine --trace on examples/qasm =="
trace_dir="$(mktemp -d)"
trap 'rm -rf "$trace_dir"' EXIT
target/release/qca-engine --workers 2 --objective combined \
  --trace "$trace_dir/trace.jsonl" --trace-report examples/qasm \
  > "$trace_dir/report.txt"
test -s "$trace_dir/trace.jsonl" || {
  echo "trace smoke test: empty trace file" >&2; exit 1; }
grep -q '"ev":"enter"' "$trace_dir/trace.jsonl" || {
  echo "trace smoke test: no span events in JSONL" >&2; exit 1; }
for phase in engine.job adapt omt.search omt.probe; do
  grep -q "$phase" "$trace_dir/report.txt" || {
    echo "trace smoke test: phase '$phase' missing from report" >&2; exit 1; }
done

echo "== proof gate: qsat --proof + qca-drat-check over examples/cnf =="
for cnf in examples/cnf/*.cnf; do
  proof="$trace_dir/$(basename "$cnf" .cnf).drat"
  # qsat exits 10 for SAT and 20 for UNSAT; both are fine here.
  code=0
  target/release/qsat --proof "$proof" "$cnf" > /dev/null || code=$?
  if [ "$code" != 10 ] && [ "$code" != 20 ]; then
    echo "proof gate: qsat failed on $cnf (exit $code)" >&2; exit 1
  fi
  if [ "$code" = 20 ]; then
    target/release/qca-drat-check "$cnf" "$proof" > /dev/null || {
      echo "proof gate: checker rejected proof for $cnf" >&2; exit 1; }
  fi

  # The same instance through the proof-logging preprocessor: the verdict
  # must be identical, and the combined preprocessor + solver proof must
  # still verify against the ORIGINAL formula.
  pproof="$trace_dir/$(basename "$cnf" .cnf).pre.drat"
  pcode=0
  target/release/qsat --preprocess --proof "$pproof" "$cnf" > /dev/null || pcode=$?
  if [ "$pcode" != "$code" ]; then
    echo "proof gate: --preprocess changed the verdict on $cnf ($code vs $pcode)" >&2
    exit 1
  fi
  if [ "$pcode" = 20 ]; then
    target/release/qca-drat-check "$cnf" "$pproof" > /dev/null || {
      echo "proof gate: checker rejected preprocessed proof for $cnf" >&2; exit 1; }
  fi
done
# The checker must also reject: the php_5_4 proof without its first lemma.
awk '!dropped && !/^d/ { dropped = 1; next } { print }' \
  "$trace_dir/php_5_4.drat" > "$trace_dir/php_5_4.bad.drat"
code=0
target/release/qca-drat-check examples/cnf/php_5_4.cnf "$trace_dir/php_5_4.bad.drat" \
  > "$trace_dir/bad.txt" || code=$?
if [ "$code" != 1 ] || ! grep -q '^s NOT VERIFIED' "$trace_dir/bad.txt"; then
  echo "proof gate: checker accepted a corrupted php_5_4 proof (exit $code)" >&2
  cat "$trace_dir/bad.txt" >&2
  exit 1
fi

echo "== verify gate: qca-engine --verify on examples/qasm, every objective =="
# The fidelity objective audits the PB-sum adders; idle and combined add the
# schedule's comparator, mux and adder chains to the audited encoding.
for objective in fidelity idle combined; do
  out="$trace_dir/verify-$objective.txt"
  target/release/qca-engine --workers 2 --objective "$objective" --verify \
    examples/qasm > "$out" || {
    echo "verify gate: qca-engine --verify --objective $objective failed" >&2
    cat "$out" >&2
    exit 1
  }
  grep -q 'audit=ok' "$out" || {
    echo "verify gate: no audit verdicts under --objective $objective" >&2; exit 1; }
  if grep -q 'audit=FAIL' "$out"; then
    echo "verify gate: audit failures under --objective $objective" >&2
    grep 'audit=FAIL' "$out" >&2
    exit 1
  fi
done
# The fidelity objective's upper bound is the sum of per-block optima (one
# route per routed block), which the warm start attains: every answer is
# proven, and audited, without a single probe conflict.
out="$trace_dir/verify-fidelity-star"
target/release/qca-engine --workers 2 --coupling star --objective fidelity --verify \
  --metrics-out "$out.json" examples/qasm > "$out.txt" || {
  echo "verify gate: --coupling star --objective fidelity failed" >&2
  cat "$out.txt" >&2
  exit 1
}
for want in '"optimal":3,' '"verify_passed":3,' '"sat_conflicts":0,'; do
  grep -q "$want" "$out.json" || {
    echo "verify gate: star fidelity metrics lack $want" >&2
    cat "$out.json" >&2
    exit 1
  }
done

# Uncertified, those answers need no solver at all: the decide step returns
# the warm start at its bound before anything is bit-blasted.
out="$trace_dir/decide-fidelity"
target/release/qca-engine --workers 2 --objective fidelity \
  --metrics-out "$out.json" examples/qasm > "$out.txt" || {
  echo "decide gate: --objective fidelity failed" >&2
  cat "$out.txt" >&2
  exit 1
}
for want in '"optimal":3,' '"sat_propagations":0,'; do
  grep -q "$want" "$out.json" || {
    echo "decide gate: fidelity metrics lack $want" >&2
    cat "$out.json" >&2
    exit 1
  }
done

echo "== topology gate: qca-engine --coupling line|ring|star --verify =="
for topo in line ring star; do
  target/release/qca-engine --workers 2 --coupling "$topo" --verify examples/qasm \
    > "$trace_dir/topo-$topo.txt" || {
    echo "topology gate: --coupling $topo run failed" >&2
    cat "$trace_dir/topo-$topo.txt" >&2
    exit 1
  }
  if grep -q 'audit=FAIL' "$trace_dir/topo-$topo.txt"; then
    echo "topology gate: audit failures under --coupling $topo" >&2
    grep 'audit=FAIL' "$trace_dir/topo-$topo.txt" >&2
    exit 1
  fi
done
# At least one sparse topology must actually exercise the routing model
# (ghz3's cx q[1],q[2] is uncoupled on the hub-0 star, for one).
grep -hEq 'routed=[1-9]' "$trace_dir"/topo-*.txt || {
  echo "topology gate: no job needed SWAP-insertion routing" >&2
  exit 1
}

echo "== lint gate: qca-lint --deny-warnings on examples/qasm (must be clean) =="
target/release/qca-lint --deny-warnings examples/qasm || {
  echo "lint gate: examples/qasm is not lint-clean" >&2; exit 1; }

echo "== lint gate: qca-lint on examples/qasm-bad (every seeded defect flagged) =="
if target/release/qca-lint --deny-warnings --json examples/qasm-bad \
    > "$trace_dir/lint-bad.jsonl"; then
  echo "lint gate: qca-lint exited 0 on the bad corpus" >&2; exit 1
fi
for qasm in examples/qasm-bad/*.qasm; do
  expect="$(sed -n 's|^// lint-expect: ||p' "$qasm")"
  test -n "$expect" || {
    echo "lint gate: $qasm has no lint-expect header" >&2; exit 1; }
  grep -q "\"file\":\"$qasm\".*\"code\":\"$expect\"" "$trace_dir/lint-bad.jsonl" || {
    echo "lint gate: $qasm did not produce expected $expect" >&2
    cat "$trace_dir/lint-bad.jsonl" >&2
    exit 1
  }
done

echo "== lint gate: qca-lint on examples/cnf-bad (every seeded CNF defect flagged) =="
if target/release/qca-lint --deny-warnings --json examples/cnf-bad \
    > "$trace_dir/lint-cnf-bad.jsonl"; then
  echo "lint gate: qca-lint exited 0 on the bad CNF corpus" >&2; exit 1
fi
for cnf in examples/cnf-bad/*.cnf; do
  expect="$(sed -n 's|^c lint-expect: ||p' "$cnf")"
  test -n "$expect" || {
    echo "lint gate: $cnf has no lint-expect header" >&2; exit 1; }
  grep -q "\"file\":\"$cnf\".*\"code\":\"$expect\"" "$trace_dir/lint-cnf-bad.jsonl" || {
    echo "lint gate: $cnf did not produce expected $expect" >&2
    cat "$trace_dir/lint-cnf-bad.jsonl" >&2
    exit 1
  }
done
# The clean corpus must stay quiet under the same analysis.
target/release/qca-lint examples/cnf || {
  echo "lint gate: examples/cnf is not lint-clean" >&2; exit 1; }

echo "== lint gate: qca-engine --deny-warnings preflight on examples/qasm =="
target/release/qca-engine --workers 2 --deny-warnings examples/qasm \
  > "$trace_dir/lint-engine.txt" || {
  echo "lint gate: qca-engine --deny-warnings failed" >&2
  cat "$trace_dir/lint-engine.txt" >&2
  exit 1
}
grep -q 'lint=ok' "$trace_dir/lint-engine.txt" || {
  echo "lint gate: no lint verdicts in engine output" >&2; exit 1; }

echo "== config gate: qca-serve and qca-engine reject the same invalid config =="
# Both front ends validate one EngineConfig before starting any thread:
# 1025 workers is past the ceiling, so each must exit non-zero with the same
# message (the timeout only stops a server that wrongly started).
config_msg='workers = 1025 exceeds the 1024 ceiling'
if timeout 20 target/release/qca-serve --addr 127.0.0.1:0 --workers 1025 \
    > "$trace_dir/config-serve.txt" 2>&1; then
  echo "config gate: qca-serve accepted --workers 1025" >&2; exit 1
fi
if target/release/qca-engine --workers 1025 examples/qasm \
    > "$trace_dir/config-engine.txt" 2>&1; then
  echo "config gate: qca-engine accepted --workers 1025" >&2; exit 1
fi
for out in config-serve config-engine; do
  grep -q "$config_msg" "$trace_dir/$out.txt" || {
    echo "config gate: $out did not report '$config_msg'" >&2
    cat "$trace_dir/$out.txt" >&2
    exit 1
  }
done

echo "== serve gate: qca-serve + qca-load smoke (200/400/429, drain on SIGTERM) =="
serve_log="$trace_dir/serve.log"
serve_metrics="$trace_dir/serve-metrics.json"
# One worker, one queue slot: saturation (and thus 429s) is deterministic.
target/release/qca-serve --addr 127.0.0.1:0 --workers 1 --queue 1 \
  --metrics-out "$serve_metrics" > "$serve_log" &
serve_pid=$!
# Scrape the ephemeral port from the "listening on" line.
serve_addr=""
for _ in $(seq 1 50); do
  serve_addr="$(sed -n 's/^listening on //p' "$serve_log")"
  [ -n "$serve_addr" ] && break
  sleep 0.1
done
test -n "$serve_addr" || {
  echo "serve gate: server never reported its address" >&2
  kill "$serve_pid" 2>/dev/null; exit 1; }

# Mixed good/bad traffic on one connection: every good body is a 200,
# every bad one a 400, and nothing is rejected at this load.
target/release/qca-load --addr "$serve_addr" --connections 1 --requests 10 \
  --mixed > "$trace_dir/load-mixed.txt" || {
  echo "serve gate: mixed load run failed" >&2
  cat "$trace_dir/load-mixed.txt" >&2
  kill "$serve_pid" 2>/dev/null; exit 1
}
grep -q 'ok200=5 status400=5 rejected429=0 other=0 errors=0' \
  "$trace_dir/load-mixed.txt" || {
  echo "serve gate: unexpected mixed-load tally" >&2
  cat "$trace_dir/load-mixed.txt" >&2
  kill "$serve_pid" 2>/dev/null; exit 1
}

# The same traffic with --json: one machine-readable object with latency
# percentiles, no stdout scraping.
target/release/qca-load --addr "$serve_addr" --connections 1 --requests 4 \
  --json > "$trace_dir/load-json.txt" || {
  echo "serve gate: --json load run failed" >&2
  cat "$trace_dir/load-json.txt" >&2
  kill "$serve_pid" 2>/dev/null; exit 1
}
for key in '"p50"' '"p95"' '"p99"' '"throughput_rps"' '"errors":0'; do
  grep -q "$key" "$trace_dir/load-json.txt" || {
    echo "serve gate: --json output missing $key" >&2
    cat "$trace_dir/load-json.txt" >&2
    kill "$serve_pid" 2>/dev/null; exit 1
  }
done

# Saturate the 1-worker/1-slot pool with held requests from 4 connections:
# admission control must shed load as 429s, never hang the acceptor.
target/release/qca-load --addr "$serve_addr" --connections 4 --requests 3 \
  --hold-ms 300 > "$trace_dir/load-saturate.txt" || {
  echo "serve gate: saturation load run failed" >&2
  cat "$trace_dir/load-saturate.txt" >&2
  kill "$serve_pid" 2>/dev/null; exit 1
}
grep -q 'rejected429=0' "$trace_dir/load-saturate.txt" && {
  echo "serve gate: saturation produced no 429s" >&2
  cat "$trace_dir/load-saturate.txt" >&2
  kill "$serve_pid" 2>/dev/null; exit 1
}
grep -q ' errors=0' "$trace_dir/load-saturate.txt" || {
  echo "serve gate: transport errors under saturation" >&2
  cat "$trace_dir/load-saturate.txt" >&2
  kill "$serve_pid" 2>/dev/null; exit 1
}

# SIGTERM with a request in flight: the request completes (drain), the
# final metrics snapshot is written, and the server exits 0.
target/release/qca-load --addr "$serve_addr" --connections 1 --requests 1 \
  --hold-ms 1000 > "$trace_dir/load-drain.txt" &
load_pid=$!
sleep 0.3
kill -TERM "$serve_pid"
wait "$serve_pid" || {
  echo "serve gate: server exited non-zero on SIGTERM" >&2; exit 1; }
wait "$load_pid" || {
  echo "serve gate: in-flight request failed during drain" >&2
  cat "$trace_dir/load-drain.txt" >&2; exit 1
}
grep -q 'ok200=1' "$trace_dir/load-drain.txt" || {
  echo "serve gate: in-flight request did not complete during drain" >&2
  cat "$trace_dir/load-drain.txt" >&2; exit 1
}
grep -q '"server":' "$serve_metrics" || {
  echo "serve gate: final metrics snapshot missing or malformed" >&2; exit 1; }
# The server's own counters must agree with qca-load's tallies of the same
# traffic: every 400 was the mixed run's, every 429 the saturation run's,
# and every 200 one that some run counted. (qca-load prints `ok200=N`, or
# `"ok200":N` with --json.)
load_tally() {
  sed -n 's/.*"\{0,1\}'"$1"'"\{0,1\}[=:]\([0-9][0-9]*\).*/\1/p' "$trace_dir/$2"
}
expect_server_counter() {
  local got
  got="$(sed -n 's/.*"server":{[^}]*"'"$1"'":\([0-9][0-9]*\).*/\1/p' "$serve_metrics")"
  [ -n "$2" ] && [ "$got" = "$2" ] || {
    echo "serve gate: server.$1 is '$got' but qca-load counted '$2'" >&2
    cat "$serve_metrics" >&2; exit 1
  }
}
ok_sum=0
for run in load-mixed load-json load-saturate load-drain; do
  ok_sum=$((ok_sum + $(load_tally ok200 "$run.txt")))
done
expect_server_counter client_errors "$(load_tally status400 load-mixed.txt)"
expect_server_counter rejected_429 "$(load_tally rejected429 load-saturate.txt)"
expect_server_counter ok "$ok_sum"

# Scrapes "listening on <addr>" from a serve log; prints the address.
wait_for_addr() {
  local log="$1" addr=""
  for _ in $(seq 1 50); do
    addr="$(sed -n 's/^listening on //p' "$log")"
    [ -n "$addr" ] && break
    sleep 0.1
  done
  echo "$addr"
}

# One raw keep-alive-less HTTP GET via bash's /dev/tcp; prints the response.
http_get() {
  local addr="$1" path="$2"
  exec 3<>"/dev/tcp/${addr%:*}/${addr##*:}"
  printf 'GET %s HTTP/1.1\r\nHost: ci\r\nConnection: close\r\n\r\n' "$path" >&3
  cat <&3
  exec 3>&- 3<&-
}

echo "== store gate: warm restart replays persisted adaptations =="
# Both servers run with --verify, so the persisted record is a certified
# one (audit bundle and certificate over one shared formula): written in
# the current wire version, replayed after the restart, and audited again
# as a cache hit.
store_dir="$trace_dir/store"
warm1_metrics="$trace_dir/warm1-metrics.json"
warm2_metrics="$trace_dir/warm2-metrics.json"
target/release/qca-serve --addr 127.0.0.1:0 --workers 1 --queue 4 --verify \
  --store "$store_dir" --metrics-out "$warm1_metrics" \
  > "$trace_dir/warm1.log" &
warm_pid=$!
warm_addr="$(wait_for_addr "$trace_dir/warm1.log")"
test -n "$warm_addr" || {
  echo "store gate: first server never reported its address" >&2
  kill "$warm_pid" 2>/dev/null; exit 1; }
# Populate: the first request solves and is appended to the WAL, the
# second hits the in-memory cache.
target/release/qca-load --addr "$warm_addr" --connections 1 --requests 2 \
  > "$trace_dir/load-warm1.txt" || {
  echo "store gate: populate run failed" >&2
  cat "$trace_dir/load-warm1.txt" >&2
  kill "$warm_pid" 2>/dev/null; exit 1
}
grep -q 'ok200=2' "$trace_dir/load-warm1.txt" || {
  echo "store gate: populate run did not get two 200s" >&2
  cat "$trace_dir/load-warm1.txt" >&2
  kill "$warm_pid" 2>/dev/null; exit 1
}
# Graceful shutdown flushes the WAL...
kill -TERM "$warm_pid"
wait "$warm_pid" || {
  echo "store gate: first server exited non-zero on SIGTERM" >&2; exit 1; }
# ...and a restart on the same directory must replay the record into the
# cache, so the same circuit is answered without solving again.
target/release/qca-serve --addr 127.0.0.1:0 --workers 1 --queue 4 --verify \
  --store "$store_dir" --metrics-out "$warm2_metrics" \
  > "$trace_dir/warm2.log" &
warm_pid=$!
warm_addr="$(wait_for_addr "$trace_dir/warm2.log")"
test -n "$warm_addr" || {
  echo "store gate: restarted server never reported its address" >&2
  kill "$warm_pid" 2>/dev/null; exit 1; }
http_get "$warm_addr" /metrics > "$trace_dir/warm-metrics-live.txt" || true
grep -Eq '"replays":[1-9]' "$trace_dir/warm-metrics-live.txt" || {
  echo "store gate: /metrics reports no replayed records after restart" >&2
  cat "$trace_dir/warm-metrics-live.txt" >&2
  kill "$warm_pid" 2>/dev/null; exit 1
}
target/release/qca-load --addr "$warm_addr" --connections 1 --requests 1 \
  > "$trace_dir/load-warm2.txt" || {
  echo "store gate: post-restart request failed" >&2
  kill "$warm_pid" 2>/dev/null; exit 1
}
grep -q 'ok200=1' "$trace_dir/load-warm2.txt" || {
  echo "store gate: post-restart request was not a 200" >&2
  cat "$trace_dir/load-warm2.txt" >&2
  kill "$warm_pid" 2>/dev/null; exit 1
}
kill -TERM "$warm_pid"
wait "$warm_pid" || {
  echo "store gate: restarted server exited non-zero on SIGTERM" >&2; exit 1; }
# The final snapshot proves the post-restart request was a warm cache hit.
grep -Eq '"store_replays":[1-9]' "$warm2_metrics" || {
  echo "store gate: final metrics report no store replays" >&2
  cat "$warm2_metrics" >&2; exit 1
}
grep -Eq '"cache_hits":[1-9]' "$warm2_metrics" || {
  echo "store gate: post-restart request did not hit the warm cache" >&2
  cat "$warm2_metrics" >&2; exit 1
}
# The replayed certified record passed its audit as a cache hit.
grep -Eq '"verify_passed":[1-9]' "$warm2_metrics" || {
  echo "store gate: the replayed record was not audited" >&2
  cat "$warm2_metrics" >&2; exit 1
}
grep -Eq '"verify_failures":0[,}]' "$warm2_metrics" || {
  echo "store gate: the replayed record failed its audit" >&2
  cat "$warm2_metrics" >&2; exit 1
}

echo "== shard gate: two-node ring forwards peer-owned keys =="
# Node A is a plain server; node B owns slot 1 of a two-slot ring whose
# slot 0 is A — so any key hashing to slot 0 that lands on B must be
# answered *through* A, transparently to the client.
target/release/qca-serve --addr 127.0.0.1:0 --workers 1 --queue 8 \
  > "$trace_dir/shard-a.log" &
shard_a_pid=$!
shard_a_addr="$(wait_for_addr "$trace_dir/shard-a.log")"
test -n "$shard_a_addr" || {
  echo "shard gate: node A never reported its address" >&2
  kill "$shard_a_pid" 2>/dev/null; exit 1; }
target/release/qca-serve --addr 127.0.0.1:0 --workers 1 --queue 8 \
  --peers "$shard_a_addr,-" --node-id 1 > "$trace_dir/shard-b.log" &
shard_b_pid=$!
shard_b_addr="$(wait_for_addr "$trace_dir/shard-b.log")"
test -n "$shard_b_addr" || {
  echo "shard gate: node B never reported its address" >&2
  kill "$shard_a_pid" "$shard_b_pid" 2>/dev/null; exit 1; }
# Eight structurally distinct circuits through B: their keys scatter over
# both ring slots, every answer is a 200 whichever node solved it.
target/release/qca-load --addr "$shard_b_addr" --connections 1 --requests 8 \
  --distinct > "$trace_dir/load-shard.txt" || {
  echo "shard gate: distinct load through node B failed" >&2
  cat "$trace_dir/load-shard.txt" >&2
  kill "$shard_a_pid" "$shard_b_pid" 2>/dev/null; exit 1
}
grep -q 'ok200=8' "$trace_dir/load-shard.txt" && \
  grep -q ' errors=0' "$trace_dir/load-shard.txt" || {
  echo "shard gate: unexpected tally through node B" >&2
  cat "$trace_dir/load-shard.txt" >&2
  kill "$shard_a_pid" "$shard_b_pid" 2>/dev/null; exit 1
}
http_get "$shard_b_addr" /metrics > "$trace_dir/shard-metrics.txt" || true
grep -Eq '"forwarded":[1-9]' "$trace_dir/shard-metrics.txt" || {
  echo "shard gate: node B never forwarded a peer-owned key" >&2
  cat "$trace_dir/shard-metrics.txt" >&2
  kill "$shard_a_pid" "$shard_b_pid" 2>/dev/null; exit 1
}
kill -TERM "$shard_a_pid" "$shard_b_pid"
wait "$shard_a_pid" || {
  echo "shard gate: node A exited non-zero on SIGTERM" >&2; exit 1; }
wait "$shard_b_pid" || {
  echo "shard gate: node B exited non-zero on SIGTERM" >&2; exit 1; }

echo "== recalibration gate: qca-engine --recalibrate --perturb 2 on examples/qasm =="
# Adapt the example corpus, drift every gate fidelity, and walk the cached
# corpus: nothing may fail, and at least one cached optimum must re-certify
# (certificate-backed reuse, not a blanket re-solve).
target/release/qca-engine --workers 2 --verify --recalibrate --perturb 2 \
  examples/qasm > "$trace_dir/recalib.txt" || {
  echo "recalibration gate: qca-engine --recalibrate failed" >&2
  cat "$trace_dir/recalib.txt" >&2
  exit 1
}
grep -Eq '^recalib: entries=[1-9][0-9]* ' "$trace_dir/recalib.txt" || {
  echo "recalibration gate: corpus was empty after the batch" >&2
  cat "$trace_dir/recalib.txt" >&2
  exit 1
}
grep -Eq '^recalib: .*reused=[1-9]' "$trace_dir/recalib.txt" || {
  echo "recalibration gate: no cached optimum was reused under drift" >&2
  cat "$trace_dir/recalib.txt" >&2
  exit 1
}
grep -Eq '^recalib: .*failed=0$' "$trace_dir/recalib.txt" || {
  echo "recalibration gate: recalibration failures" >&2
  cat "$trace_dir/recalib.txt" >&2
  exit 1
}

echo "== ablation gate: rerun ablation, diff all but time [s] against results/ablation.txt =="
# Wall times vary from run to run; the objective, queries and optimal
# columns of the OMT table, and the whole KAK table, must not.
mask_ablation_time() {
  awk '/^(budget 2k|exact) / { $0 = substr($0, 1, 22) sprintf("%10s", "-") substr($0, 33) } { print }' "$1"
}
target/release/ablation > "$trace_dir/ablation.txt"
diff <(mask_ablation_time results/ablation.txt) <(mask_ablation_time "$trace_dir/ablation.txt") || {
  echo "ablation gate: output differs from results/ablation.txt" >&2; exit 1; }

echo "== paper-results gate: rerun quick fig5, fig6, fig7, headline, diff against results/ =="
# These outputs carry no timings, so each must match its committed file
# byte for byte (regenerate with `target/release/<bin> > results/<bin>.txt`).
for bin in fig5 fig6 fig7 headline; do
  target/release/"$bin" > "$trace_dir/$bin.txt"
  diff "results/$bin.txt" "$trace_dir/$bin.txt" || {
    echo "paper-results gate: $bin output differs from results/$bin.txt" >&2; exit 1; }
done

echo "== perf gate: quick suite vs committed BENCH baseline =="
# The committed baseline must itself be schema-valid and cover every
# measured layer (num, sat, smt, synth, sim, engine, serve, store).
baseline="$(ls BENCH_*.json | sort -t_ -k2 -n | tail -1)"
test -n "$baseline" || {
  echo "perf gate: no committed BENCH_*.json baseline" >&2; exit 1; }
target/release/qca-perf check "$baseline" --require-layers || {
  echo "perf gate: committed baseline $baseline is invalid" >&2; exit 1; }
# Fresh quick-mode run, 3 merged repeats so the recorded dispersion is
# cross-run, then gate. The 40% flat threshold is deliberately loose: CI
# containers share cores, and run-to-run drift of 10-20% is routine — the
# gate exists to catch real regressions (2x slowdowns fail it by a wide
# margin), not to litigate scheduler noise.
target/release/qca-perf run --quick --repeats 3 --out "$trace_dir/bench-ci.json" || {
  echo "perf gate: suite run failed" >&2; exit 1; }
target/release/qca-perf check "$trace_dir/bench-ci.json" --require-layers || {
  echo "perf gate: fresh report failed schema validation" >&2; exit 1; }
target/release/qca-perf compare "$baseline" "$trace_dir/bench-ci.json" \
  --threshold 40 || {
  echo "perf gate: significant regression against $baseline" >&2; exit 1; }

echo "ci.sh: all checks passed"
