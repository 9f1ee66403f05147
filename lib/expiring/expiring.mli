(** A capacity-bounded table of expiring entries.

    The one implementation behind every piece of server state the paper
    keeps "until the expiration time": accept-once identifiers
    ([Replay_cache]), sequence progress ([Seq_tracker]), the
    authenticator-keyed response cache ([Secure_rpc]), memoized
    signature checks and link opens ([Verify_cache]) and the tickets a
    service has opened ([Ticket.holder]). Entries are ordered
    by (expiry, insertion seq): the expired entries come first, and so
    does "who goes first under capacity pressure" — both are popped in
    O(log n). The seq makes the order total: two tables fed the same
    operations (a primary and its replication-seeded standby) evict the
    same entries, whatever their hash history.

    One rule for every instance:
    - {!find} drops an expired entry;
    - {!add} first purges the expired entries. A {e new} key then evicts
      the (expiry, seq) minimum if the table is still full, and the
      eviction hook fires;
    - re-adding a {e live} key replaces its value, expiry and tag in
      place, keeps its seq, and evicts nothing. *)

type 'v t

val create : ?on_evict:(unit -> unit) -> capacity:int -> unit -> 'v t
(** [on_evict] fires each time a live entry is evicted to make room. *)

val find : 'v t -> now:int -> string -> 'v option
(** The live value under a key; an entry whose expiry is [<= now] is
    dropped and reads as absent. *)

val mem : 'v t -> string -> bool
(** Raw presence, expired or not: not a freshness check. *)

val add :
  ?on_evict:(unit -> unit) -> 'v t -> now:int -> expires:int -> ?tag:string -> string -> 'v -> unit
(** Store [v] under a key until [expires], by the rule above. [tag] names
    the authority the entry was recorded under, for {!shed}. A per-call
    [on_evict] replaces the table's hook for this insertion: one response
    cache takes both served replies, whose evictions count, and
    replication seeding, whose evictions do not. *)

val purge : 'v t -> now:int -> unit
(** Drop every entry whose expiry is [<= now]. *)

val shed : 'v t -> tag:string -> int
(** Drop every entry recorded under [tag], returning how many. *)

val clear : 'v t -> unit
val size : 'v t -> int
val capacity : 'v t -> int
