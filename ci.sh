#!/bin/sh
# CI entry point: build, full test suite, then a fixed-seed chaos smoke
# matrix (the robustness invariants — value conservation and at-most-once
# check redemption — must hold under every configuration; proxykit chaos
# exits non-zero on violation).
set -eu

cd "$(dirname "$0")"

echo "== build =="
dune build

echo "== size =="
# Printed, not gated: the lines of lib/ (.ml and .mli), the optional
# parameters its interfaces declare and the values they export, the
# figures a simplification reports before and after; the lines the build
# generates into lib/ (the fixed Montgomery kernels), so code moved into
# a generator still shows in its compiled size; and the places lib/
# still appends to the unbounded audit trail, which bounded server state
# drives to zero.
echo "lib lines: $(cat lib/*/*.ml lib/*/*.mli | wc -l)"
echo "generated kernel lines: $(cat _build/default/lib/bignum/mont*.ml | wc -l)"
echo "lib optional parameters: $(cat lib/*/*.mli | grep -o '?[a-z_0-9]*:' | wc -l)"
echo "lib exported values: $(cat lib/*/*.mli | grep -c '^ *val ')"
echo "lib trail record sites: $(cat lib/*/*.ml | grep -o 'Sim\.Trace\.record' | wc -l)"

echo "== choose stays pure =="
# Acl.choose decides a request from the facts the guard gathered: it
# reads no clock, no server table and no log, and checks no signature.
# acl.ml names none of the modules that would let it.
if grep -nE 'Sim\.|Crypto\.|Verifier|Verify_cache|Expiring|Logs' lib/authz/acl.ml; then
    echo "lib/authz/acl.ml names a module Acl.choose must not use"
    exit 1
fi

echo "== tests =="
# Also runs every examples/*.exe and diffs its stdout against the
# committed .expected transcript (examples/dune); a failing example fails
# here. So do `proxykit selftest` and `proxykit inspect` on three
# committed corpus values (test/cli/dune). The suite takes 20-25 s on a
# 2-vCPU host; ten times that fails the step, so a test that hangs (a
# broken kernel once made keygen loop forever) fails CI instead of
# stalling it.
timeout 240 dune runtest

echo "== AEAD vectors from an independent implementation =="
# test/aead_vectors.py rebuilds the boxes test_crypto opens and reseals
# with Python's `cryptography`; they must come out byte for byte as
# committed in test/aead_vectors.txt.
if python3 -c 'import cryptography' 2>/dev/null; then
    AEAD_VECTORS=$(mktemp)
    python3 test/aead_vectors.py "$AEAD_VECTORS"
    cmp "$AEAD_VECTORS" test/aead_vectors.txt
    rm -f "$AEAD_VECTORS"
else
    echo "skip: python3 cannot import cryptography"
fi

echo "== DRBG vectors from an independent implementation =="
# test/drbg_vectors.py rebuilds the HMAC-DRBG draws test_crypto replays
# with Python's standard hmac and hashlib alone (so this step never
# skips); they must come out byte for byte as committed in
# test/drbg_vectors.txt.
DRBG_VECTORS=$(mktemp)
python3 test/drbg_vectors.py "$DRBG_VECTORS"
cmp "$DRBG_VECTORS" test/drbg_vectors.txt
rm -f "$DRBG_VECTORS"

# Every smoke below runs under `timeout`, as `dune runtest` does above: a
# scenario that hangs fails CI instead of stalling it. `smoke LIMIT ARGS`
# runs `proxykit ARGS` for at most LIMIT seconds, about ten times what the
# smoke took on the slowest host measured (a 2-vCPU host, where mbt took
# 8.9 s) and never under 10 s, since a sub-second smoke is mostly start-up.
smoke () {
    limit=$1
    shift
    timeout "$limit" dune exec --no-build bin/proxykit.exe -- "$@"
}

echo "== chaos smoke matrix =="
run_chaos () {
    echo "-- proxykit chaos $*"
    smoke 10 chaos "$@"
}
run_chaos --seed ci-calm   --drop 0.05 --duplicate 0.05 --no-crash
run_chaos --seed ci-storm  --drop 0.25 --duplicate 0.10
run_chaos --seed ci-dupes  --drop 0.10 --duplicate 0.25 --no-crash
run_chaos --seed ci-crashy --drop 0.15 --duplicate 0.10 --retries 10

echo "== cluster failover smoke =="
# Sharded accounting cluster: a seeded fault plan permanently crashes one
# shard's primary mid-clearing; the run must keep value conserved with
# exactly-once check redemption across the failover, and a same-seed rerun
# must be byte-identical (metrics snapshot and trace).
smoke 10 cluster --smoke
smoke 10 cluster --smoke --seed ci-cluster --shards 2 --crash-buyer
# Lane-parallel engine: the same seeded workload spread over 4 OCaml
# domains must be byte-identical (metrics, trace, span JSONL) to the
# single-domain schedule, with conservation, exactly-once redemption, and
# a bulletin landing on every lane.
smoke 20 cluster --smoke --domains 4

echo "== model-based conformance smoke =="
# Generated authorization programs run against the real stack (verify cache
# on and off) and a pure reference model; any disagreement fails. The smoke
# also checks each injected stack mutation is caught (the harness can kill
# mutants) and replays the committed shrunk repros in test/repros/.
smoke 90 mbt --smoke

echo "== permission-sequence smoke =="
# Two-server context-aware sequence scenario: a stateful Sequence restriction
# requires a file-server 'open' before a bank 'debit'. Gates: the out-of-order
# debit is denied, the in-order run clears exactly once, progress replicates
# to the standby and survives a mid-sequence primary crash (the post-failover
# debit succeeds without re-opening), and a same-seed rerun is byte-identical.
smoke 10 seq --smoke
# Lane-parallel variant: each lane pair runs the sequence across a lane
# boundary; the 2-domain digest must match the single-domain schedule.
smoke 10 seq --smoke --domains 2

echo "== revocation storm smoke =="
# Seeded revocation-under-churn scenario: bulletins revoke live chains while
# a partition drives one server past its staleness bound. Fresh servers must
# deny within one epoch, the stale server must fail closed and recover on
# heal, refreshed short-TTL chains must survive a grantor-epoch revocation,
# bulletins must land on both bank replicas, and a same-seed rerun must be
# byte-identical.
smoke 10 revoke --smoke

echo "== cross-realm federation smoke =="
# Three federated realms on one net: forged inter-realm TGTs (foreign and
# local client realms) must be refused with the pinned realm-mismatch
# error, the legitimate three-realm cascaded grant->present must be
# served, the granter must recover from an inter-realm rekey, and the
# membership replica must serve through a partition of the origin realm,
# fail closed past its staleness bound, recover on heal — byte-identical
# on a same-seed rerun.
smoke 10 federate --smoke
# Lane-parallel variant: one realm per lane, signed membership snapshots
# ringing between lanes; the 2-domain digest must be byte-identical to the
# single-domain schedule.
smoke 10 federate --smoke --domains 2

echo "== open-loop load smoke =="
# Deterministic open-loop mixed workload from a lazily-materialized 100k
# Zipf population against the full stack. Gates: the batched hot path must
# engage (coalesced sweep batches, replication read-skips) and same-seed
# reruns must be byte-identical — metrics, trace, and span JSONL — with
# batching on and off.
smoke 90 load --smoke
# Lane-parallel variant: the skewed, read-heavy lane mix on 4 domains must
# match the single-domain schedule byte for byte.
smoke 20 load --smoke --domains 4

echo "== causal tracing smoke =="
# A traced cascaded-authorization run must show >= 4 causally nested spans
# across >= 3 actors with a retry child under the injected drop, per-span
# self costs summing exactly to the global metrics diff, a valid Chrome
# export, and byte-identical JSONL on a same-seed rerun.
smoke 10 trace f4 --smoke
smoke 10 trace f5 --smoke

echo "== wire-codec fuzz smoke =="
# Mutated encodings must never crash a decoder (fail closed), valid seeds
# must round-trip, and the committed corpus in test/fuzz_corpus/ replays.
smoke 10 fuzz --smoke

echo "== bench smoke (logical metrics vs committed baseline) =="
# Fast-mode runs regenerate BENCH_*.json into a scratch dir; bench-check
# validates the JSON schema and compares every integer metric (ops, bytes,
# crypto-op counts) exactly against the committed baseline. Fast mode takes
# no timing samples, and timings are never gated. The id list comes from
# the experiment registry, so no registered experiment skips the check.
BENCH_IDS=$(dune exec --no-build bin/proxykit.exe -- bench --list | awk '{print $1}')
test -n "$BENCH_IDS"
BENCH_SMOKE_DIR=$(mktemp -d)
BENCH_FAST=1 BENCH_DIR="$BENCH_SMOKE_DIR" \
    timeout 90 dune exec --no-build bin/proxykit.exe -- bench $BENCH_IDS
for id in $(echo "$BENCH_IDS" | tr 'a-z' 'A-Z'); do
    dune exec --no-build bin/proxykit.exe -- bench-check \
        "bench/BENCH_$id.json" "$BENCH_SMOKE_DIR/BENCH_$id.json"
done
rm -rf "$BENCH_SMOKE_DIR"

echo "== repository benchmark self-test =="
# perfbench's own tests: its output checks, and its guards that the
# authz workloads evict exactly once per op while bank never evicts. Each
# eviction raises the floor of the evicted reply's client, in that
# client's own timestamps, so no fresh request reads as forgotten: the
# authz workloads still evict one reply per op and refuse none. Their
# clients share one clock; test_authz covers a lagging client and a
# forward-stamped flood.
dune build @perfbench/perfbench-test

echo "== allocation =="
# Printed, not gated: the bytes each benchmark workload allocates per op
# (gc.alloc_bytes_per_op), from one short traced run at seed 1, and its
# peak heap (heap_peak_mb), from one untraced run at seed 1 of the
# benchmark's own length, 20 s of nominal work: the figures a change that
# cuts copies or kept state reports before and after. The same untraced
# run also gives the messages and wire bytes per op (msgs_per_op,
# wire_bytes_per_op), the figures a change to what travels quotes; they
# are exact, so one run shows them. A 2 s run's peak is
# mostly its set-up's, so it cannot show what the ops keep. A short run
# can end before perfbench has two host-speed samples, and then exits
# with an error; the step says so and goes on. The authz-conv traced run
# also gives the RSA-512 sign, verify and keygen times, the figures a
# bignum or RSA change quotes before and after, and the untraced run
# gives each workload's set-up time (setup_s), the end-to-end figure a
# key-generation change moves.
# figure LABEL METRIC SCALE UNIT prints METRIC / SCALE from the
# perfbench result on standard input.
figure () {
    python3 -c 'import json, sys
wl, name, scale, unit = sys.argv[1], sys.argv[2], float(sys.argv[3]), sys.argv[4]
try:
    v = json.load(sys.stdin)["metrics"][name]["value"]
    print(f"{wl}: {v / scale:.1f} {unit}")
except ValueError:
    print(f"{wl}: no figure (the run failed)")' "$@"
}
for wl in authz-conv authz-pk bank; do
    traced=$(python3 perfbench/run.py --workload "$wl" --seed 1 --seconds 2 --trace 1 | tail -n 1)
    echo "$traced" | figure "$wl" gc.alloc_bytes_per_op 1000 KB/op
    if [ "$wl" = authz-conv ]; then
        echo "$traced" | figure "$wl crypto.rsa512_sign_us" crypto.rsa512_sign_us 1 us
        echo "$traced" | figure "$wl crypto.rsa512_verify_us" crypto.rsa512_verify_us 1 us
        echo "$traced" | figure "$wl crypto.rsa512_keygen_ms" crypto.rsa512_keygen_ms 1 ms
    fi
    untraced=$(python3 perfbench/run.py --workload "$wl" --seed 1 --seconds 20 --trace 0 | tail -n 1)
    echo "$untraced" | figure "$wl" setup_s 0.001 "ms set-up"
    echo "$untraced" | figure "$wl" heap_peak_mb 1 "MB peak heap"
    echo "$untraced" | figure "$wl" msgs_per_op 1 "messages/op"
    echo "$untraced" | figure "$wl" wire_bytes_per_op 1 "wire B/op"
done

echo "== OK =="
