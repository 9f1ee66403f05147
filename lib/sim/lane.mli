(** Deterministic epoch/barrier scheduler for independent execution lanes.

    A lane is a unit of fully-isolated mutable state (typically one shard's
    replica pair plus its own {!Net}). Lanes run in lock-step epochs: each
    epoch, every lane's [step] executes against the messages delivered to it
    at the previous barrier and emits messages for other lanes, which are
    held until the next barrier and delivered sorted by (source lane,
    emission index). Because lanes share nothing and inter-lane delivery
    order is canonical, the result is bit-for-bit identical whether the
    lanes of an epoch run sequentially on one domain or spread across [N]
    OCaml 5 domains. [domains = 1] never spawns — it is the plain
    synchronous loop the parallel schedule is defined against. *)

type outcome = {
  epochs_run : int;
  delivered : int;  (** cross-lane messages delivered over the whole run *)
  stranded : int;
      (** messages still in flight when the 10_000-epoch cap cut the run
          short; 0 on a clean drain *)
}

val seed_for : seed:string -> string -> string
(** [seed_for ~seed shard_id] is the canonical per-lane DRBG stream label,
    ["lane:" ^ seed ^ ":" ^ shard_id]. *)

val run :
  domains:int ->
  lanes:int ->
  min_epochs:int ->
  step:(epoch:int -> lane:int -> inbox:(int * string) list -> (int * string) list) ->
  unit ->
  outcome
(** [run ~domains ~lanes ~min_epochs ~step ()] drives [lanes] lanes for at
    least [min_epochs] epochs and then keeps going until no cross-lane
    messages are in flight (or 10_000 epochs have run).
    [step ~epoch ~lane ~inbox] receives the lane's mailbox as
    [(source_lane, payload)] pairs in canonical order and returns an outbox
    of [(destination_lane, payload)] pairs. Payloads are opaque strings so
    lanes can never leak shared mutable structure through the mailbox.
    Raises [Invalid_argument] on a self-addressed or out-of-range message.
    [domains] is clamped to [lanes]. *)
