(** Cluster chaos scenario: a sharded, replicated accounting service under
    an open-loop check-clearing workload with a seeded mid-run primary
    crash.

    Deterministic end to end: the same [config] (seed included) produces
    a byte-identical digest (metrics snapshot and trace), crash, failover,
    and promotion included. *)

type crash_target =
  | No_crash
  | Shop_primary  (** crash the primary of the shard holding the shop account *)
  | Buyer_primary  (** crash the primary of buyer-0's shard (a drawee) *)

type config = {
  seed : string;
  shards : int;  (** bank shards, each a primary/standby pair *)
  ops : int;
  buyers : int;
  drop : float;
  duplicate : float;
  crash : crash_target;
  crash_after_us : int;  (** crash instant, relative to workload start *)
  retries : int;  (** client + collect retry budget *)
  timeout_us : int;
}

val default : config
(** 4 shards, 60 ops, 4 buyers, 5% drop/duplicate, shop-shard primary
    crashed permanently 30ms in, 8 retries @ 10ms. *)

type outcome = {
  shard_ids : string list;
  attempted : int;
  succeeded : int;
  failed : int;
  conserved : (unit, string) result;
      (** per-currency conservation across the {e authoritative} replica of
          every shard — the promoted standby where the primary died *)
  redemptions : (string * int) list;  (** check number -> times paid, any replica *)
  double_redemptions : int;  (** must be 0: exactly-once across failover *)
  failovers : int;
  promotions : int;
  repl_shipped : int;
  repl_failures : int;
  dedups : int;
  retries_used : int;
  gave_up : int;
  messages : int;
  p50_us : int;  (** per-op virtual latency percentiles *)
  p99_us : int;
  crashed_node : string option;
  gates : Drive.gate list;  (** value conserved; each check redeemed at most once *)
  digest : string;  (** metrics snapshot and audit trail *)
}

val run : config -> outcome

val entry : config -> outcome Drive.entry
(** Its smoke also gates on the crash having failed over (promotion and
    client failover), so a smoke's config must crash a primary. *)
