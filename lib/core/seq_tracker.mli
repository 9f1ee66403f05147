(** Server-side progress state for {!Restriction.Sequence} restrictions.

    A sequence restriction is stateful: the server must remember how many
    steps of each presented sequence have already been granted. This
    tracker holds that state in an {!Expiring} table, keyed exactly like
    {!Replay_cache} accept-once records — per presented chain head
    ({!Restriction.seq_key}) — so the surrounding machinery composes
    unchanged: revocation bulletins shed a dead grantor's progress by tag,
    chains derived from one grant share one progress line, and entries
    expire with the chain that fed them.

    Losing an entry (expiry, capacity eviction, failover to a replica that
    never saw it) resets the sequence to its first step — the fail-closed
    direction: a proxy can only ever do {e less} than its progress had
    earned. *)

type t

val create : ?capacity:int -> ?on_evict:(unit -> unit) -> unit -> t
(** Default capacity: 131072 progress lines. [on_evict] fires when a live
    entry is dropped under capacity pressure. *)

val progress : t -> now:int -> string -> int
(** How many steps of the keyed sequence have been granted; 0 when the key
    is unknown or its entry has expired. *)

val set_progress : t -> now:int -> expires:int -> ?tag:string -> string -> int -> unit
(** Record progress for a key. Max-monotone: a value at or below the
    current progress is ignored, so replicated imports and retransmitted
    forwards can only move a sequence forward. [tag] names the chain's
    grantor for {!shed}. *)

val advance : t -> now:int -> expires:int -> ?tag:string -> string -> int
(** Bump the keyed progress by one step and return the new value. *)

val shed : t -> tag:string -> int
(** Drop every entry recorded under [tag] (a freshly revoked grantor),
    returning how many were dropped — the {!Replay_cache.shed} analogue. *)

val clear : t -> unit
(** Forget everything (test harnesses and fault injection). *)

val size : t -> int
val capacity : t -> int
val purge : t -> now:int -> unit
(** Drop expired entries (also happens incrementally during queries). *)
