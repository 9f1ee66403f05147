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
# Printed, not gated: the lines of lib/ (.ml and .mli) and the optional
# parameters its interfaces declare, the two figures a simplification
# reports before and after; and the places lib/ still appends to the
# unbounded audit trail, which bounded server state drives to zero.
echo "lib lines: $(cat lib/*/*.ml lib/*/*.mli | wc -l)"
echo "lib optional parameters: $(cat lib/*/*.mli | grep -o '?[a-z_0-9]*:' | wc -l)"
echo "lib trail record sites: $(cat lib/*/*.ml | grep -o 'Sim\.Trace\.record' | wc -l)"

echo "== tests =="
# Also runs every examples/*.exe and diffs its stdout against the
# committed .expected transcript (examples/dune); a failing example fails
# here. So do `proxykit selftest` and `proxykit inspect` on three
# committed corpus values (test/cli/dune).
dune runtest

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

echo "== chaos smoke matrix =="
run_chaos () {
    echo "-- proxykit chaos $*"
    dune exec --no-build bin/proxykit.exe -- chaos "$@"
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
dune exec --no-build bin/proxykit.exe -- cluster --smoke
dune exec --no-build bin/proxykit.exe -- cluster --smoke --seed ci-cluster --shards 2 --crash-buyer
# Lane-parallel engine: the same seeded workload spread over 4 OCaml
# domains must be byte-identical (metrics, trace, span JSONL) to the
# single-domain schedule, with conservation, exactly-once redemption, and
# a bulletin landing on every lane.
dune exec --no-build bin/proxykit.exe -- cluster --smoke --domains 4

echo "== model-based conformance smoke =="
# Generated authorization programs run against the real stack (verify cache
# on and off) and a pure reference model; any disagreement fails. The smoke
# also checks each injected stack mutation is caught (the harness can kill
# mutants) and replays the committed shrunk repros in test/repros/.
dune exec --no-build bin/proxykit.exe -- mbt --smoke

echo "== permission-sequence smoke =="
# Two-server context-aware sequence scenario: a stateful Sequence restriction
# requires a file-server 'open' before a bank 'debit'. Gates: the out-of-order
# debit is denied, the in-order run clears exactly once, progress replicates
# to the standby and survives a mid-sequence primary crash (the post-failover
# debit succeeds without re-opening), and a same-seed rerun is byte-identical.
dune exec --no-build bin/proxykit.exe -- seq --smoke
# Lane-parallel variant: each lane pair runs the sequence across a lane
# boundary; the 2-domain digest must match the single-domain schedule.
dune exec --no-build bin/proxykit.exe -- seq --smoke --domains 2

echo "== revocation storm smoke =="
# Seeded revocation-under-churn scenario: bulletins revoke live chains while
# a partition drives one server past its staleness bound. Fresh servers must
# deny within one epoch, the stale server must fail closed and recover on
# heal, refreshed short-TTL chains must survive a grantor-epoch revocation,
# bulletins must land on both bank replicas, and a same-seed rerun must be
# byte-identical.
dune exec --no-build bin/proxykit.exe -- revoke --smoke

echo "== cross-realm federation smoke =="
# Three federated realms on one net: forged inter-realm TGTs (foreign and
# local client realms) must be refused with the pinned realm-mismatch
# error, the legitimate three-realm cascaded grant->present must be
# served, the granter must recover from an inter-realm rekey, and the
# membership replica must serve through a partition of the origin realm,
# fail closed past its staleness bound, recover on heal — byte-identical
# on a same-seed rerun.
dune exec --no-build bin/proxykit.exe -- federate --smoke
# Lane-parallel variant: one realm per lane, signed membership snapshots
# ringing between lanes; the 2-domain digest must be byte-identical to the
# single-domain schedule.
dune exec --no-build bin/proxykit.exe -- federate --smoke --domains 2

echo "== open-loop load smoke =="
# Deterministic open-loop mixed workload from a lazily-materialized 100k
# Zipf population against the full stack. Gates: the batched hot path must
# engage (coalesced sweep batches, replication read-skips) and same-seed
# reruns must be byte-identical — metrics, trace, and span JSONL — with
# batching on and off.
dune exec --no-build bin/proxykit.exe -- load --smoke
# Lane-parallel variant: the skewed, read-heavy lane mix on 4 domains must
# match the single-domain schedule byte for byte.
dune exec --no-build bin/proxykit.exe -- load --smoke --domains 4

echo "== causal tracing smoke =="
# A traced cascaded-authorization run must show >= 4 causally nested spans
# across >= 3 actors with a retry child under the injected drop, per-span
# self costs summing exactly to the global metrics diff, a valid Chrome
# export, and byte-identical JSONL on a same-seed rerun.
dune exec --no-build bin/proxykit.exe -- trace f4 --smoke
dune exec --no-build bin/proxykit.exe -- trace f5 --smoke

echo "== wire-codec fuzz smoke =="
# Mutated encodings must never crash a decoder (fail closed), valid seeds
# must round-trip, and the committed corpus in test/fuzz_corpus/ replays.
dune exec --no-build bin/proxykit.exe -- fuzz --smoke

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
    dune exec --no-build bin/proxykit.exe -- bench $BENCH_IDS
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
# (gc.alloc_bytes_per_op), from one short traced run at seed 1, the
# figure a change that cuts copies reports before and after. A run this
# short can end before perfbench has two host-speed samples, and then
# exits with an error; the step says so and goes on.
for wl in authz-conv authz-pk bank; do
    python3 perfbench/run.py --workload "$wl" --seed 1 --seconds 2 --trace 1 | tail -n 1 |
        python3 -c 'import json, sys
try:
    v = json.load(sys.stdin)["metrics"]["gc.alloc_bytes_per_op"]["value"]
    print(f"{sys.argv[1]}: {v / 1000:.1f} KB/op")
except ValueError:
    print(f"{sys.argv[1]}: no figure (the run failed)")' "$wl"
done

echo "== OK =="
