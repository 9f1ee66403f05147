(** Lane-parallel accounting cluster: one fully-isolated world per shard,
    scheduled by {!Sim.Lane} so independent shards execute on separate
    OCaml 5 domains while same-seed runs stay byte-identical — merged
    metrics snapshot, trace, and span JSONL are the same for any [domains]
    value, including the [domains = 1] inline schedule.

    Cross-shard traffic — check clearing (check / collect / advice legs),
    revocation bulletin pushes, and sequence-progress handovers — travels
    as Wire-encoded lane messages delivered at epoch boundaries in
    canonical order; everything else is ordinary in-lane secure RPC
    against the lane's replicated bank shard. *)

type flavor =
  | Checks  (** mixed workload: reads, transfers, deposits, remote purchases *)
  | Seq  (** cross-lane {!Restriction.Sequence}: fs open gates a bank debit *)
  | Load  (** skewed, read-heavy mix with pipelined shop sweeps *)

type config = {
  seed : string;
  shards : int;  (** = lanes; [Seq] needs at least 2 *)
  domains : int;
  epochs : int;  (** workload epochs; draining may add a few more *)
  ops_per_epoch : int;  (** per lane *)
  buyers : int;  (** per shard on average (ring-placed, counts vary) *)
  drop : float;
  duplicate : float;
  retries : int;
  timeout_us : int;
  flavor : flavor;
}

val default : config

type outcome = {
  epochs_run : int;
  delivered : int;  (** cross-lane messages *)
  attempted : int;
  succeeded : int;
  remote_sent : int;  (** checks mailed to another lane's shop *)
  remote_cleared : int;
  remote_bounced : int;
  double_redemptions : int;  (** must be 0: a check paid twice at a drawee *)
  bulletins_applied : int;  (** must equal [shards] for [Checks]/[Load] *)
  conserved : (unit, string) result;
  gates : Drive.gate list;
      (** value conserved and each check redeemed at most once; then for
          [Checks]/[Load] some operation succeeded and, with 2+ shards,
          remote checks cleared and the bulletin landed on every lane; for
          [Seq] six gates (out-of-order debit denied, in-order open
          granted, reopen denied, progress imported on both replicas, debit
          granted after the handover, repeat debit denied), each true iff
          it held on {e every} lane *)
  digest : string;
      (** [epochs_run], [delivered], the gates, then each lane's metrics,
          ["lane-<i>|time actor event"] trace and span JSONL in lane order *)
}

val run : config -> outcome
(** Raises [Invalid_argument] on nonsensical configs (no shards, no
    domains, [Seq] with fewer than 2 shards) and [Failure] on setup
    errors. Determinism contract: for a fixed config modulo [domains],
    the digest and every count above are byte-identical. *)

val entry : config -> outcome Drive.entry
(** Labelled by flavor ("cluster lane", "seq lane", "load lane"); its
    smoke compares the digest against the same config at [domains = 1]. *)
