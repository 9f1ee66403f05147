(** Consistent-hash placement of account names onto bank shards.

    Deterministic: the ring is a pure function of the shard-id set, so
    every router in the system computes identical placement
    with no coordination — the cluster analogue of the paper's requirement
    that authorization work without talking to a central server first. *)

type t

val create : string list -> t
(** Build a ring over the given shard ids (de-duplicated, order
    irrelevant). 32 virtual points per shard smooth the key distribution.
    Raises [Invalid_argument] on an empty list. *)

val lookup : t -> string -> string
(** Owning shard id for a key (an account name). Total. *)

val spread : t -> string list -> (string * int) list
(** Per-shard key counts for a key set — balance diagnostics. *)
