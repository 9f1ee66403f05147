(** The open-loop load harness: a deterministic mixed workload driven at a
    configured arrival rate against the full stack — KDC, a guarded file
    server, and a sharded primary/standby accounting cluster.

    {e Open-loop} means arrivals are scheduled by the rate profile alone
    ({!Population.arrivals}), never by service completions: when the stack
    falls behind, later arrivals start late and the lateness lands in
    their measured latency — so a burst phase shows up as a p99 spike, not
    as a silently throttled offered load.

    The population is huge but {e lazy}: principals exist as indices into
    a Zipf popularity distribution, and only the ones traffic actually
    touches are materialized (enrolled with the KDC, given a pooled RSA
    key, an account, and — for object owners — a file and ACL entry).
    Optional churn retires the oldest materialized principals, returning
    their keys to the pool; a retired principal that comes back gets a
    fresh key, so presentations signed under its previous incarnation
    deterministically fail verification from then on.

    Workload mix per arrival: proxy {e grants} (fresh or cascaded),
    {e presentations} to the file-server guard (exercising its verify
    cache), intra-shard {e debits}/balances, cross-shard check
    {e clearing}, and pipelined balance {e sweeps} (exercising
    {!Secure_rpc.call_batch}). Every random choice draws from seeded
    DRBGs: same seed, same digest — metrics, trace, and span JSONL. *)

type config = {
  seed : string;
  population : int;  (** principal universe size (lazy; only touched ones cost) *)
  objects : int;  (** guarded files; object [o] is owned by principal [o] *)
  shards : int;  (** accounting shards, each a primary/standby pair *)
  phases : Population.phase list;  (** the open-loop arrival-rate profile *)
  pipeline : bool;  (** sweeps use {!Secure_rpc.call_batch} (else N calls) *)
  sweep_width : int;  (** balance queries per audit sweep *)
  churn_every : int;  (** retire the oldest principal every N arrivals; 0 = never *)
  retries : int;
  timeout_us : int;
}

val default : config
(** 100k principals, 512 objects, 4 shards, a steady/burst/steady rate
    profile (~185 arrivals), pipelining on, churn every 16 arrivals. *)

type outcome = {
  arrivals : int;
  succeeded : int;
  failed : int;
  touched : int;  (** distinct principals ever materialized *)
  materializations : int;  (** including re-materializations after churn *)
  keys_generated : int;  (** RSA keygens the pool actually performed *)
  keys_reused : int;  (** materializations served from the pool's free list *)
  retired : int;
  grants : int;
  presents : int;
  debits : int;
  clears : int;
  sweeps : int;
  p50_us : int;  (** per-arrival latency incl. lateness (open-loop) *)
  p99_us : int;
  max_us : int;
  span_count : int;
  metrics : (string * int) list;
  gates : Drive.gate list;  (** some arrival succeeded *)
  digest : string;  (** metrics snapshot, audit trail and span JSONL *)
}

val run : config -> outcome

val metric : outcome -> string -> int
(** A counter of the run's metrics snapshot; 0 when absent. *)

val entry : config -> outcome Drive.entry
(** Its smoke also gates on every op class running, churn reusing pooled
    keys, keygens bounded by materializations, coalesced sweeps,
    replication read-skips and spans all engaging, and on the same config
    unbatched (no pipelining) staying off the hot path and replaying byte
    for byte. *)

(** {1 The cascade study}

    The controlled experiment behind the per-signature cache: [holders]
    chains sharing one depth-[depth] prefix (a cascaded grant re-delegated
    to M holders), each verified [repeats] times, under three strategies.
    RSA totals are exact and deterministic:

    - uncached: [(depth+1) * holders * repeats];
    - whole-chain memoization (one memo entry per full presentation —
      the naive "signature cache" that caches at the wrong granularity):
      [(depth+1) * holders], because no holder's chain ever matches
      another's as a unit;
    - per-signature cache ({!Verify_cache}): [depth + holders] — each
      distinct signature checked exactly once (the information-theoretic
      floor). *)

type cascade = {
  c_depth : int;
  c_holders : int;
  c_repeats : int;
  c_rsa_uncached : int;
  c_rsa_whole_chain : int;
  c_rsa_per_signature : int;
  c_sig_hits : int;
  c_sig_misses : int;
}

val cascade_study : ?depth:int -> ?holders:int -> ?repeats:int -> seed:string -> unit -> cascade
(** Defaults: depth 8, holders 16, repeats 3. *)
