(** A capacity-bounded table of expiring entries.

    The one implementation behind every piece of server state the paper
    keeps "until the expiration time": accept-once identifiers and
    sequence progress (the guard's two tables, [Authz.Guard]), the
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
      the (expiry, seq) minimum if the table is still full, raises the
      floor of the victim's tag to the victim's expiry, and fires the
      eviction hook;
    - re-adding a {e live} key replaces its value, expiry and tag in
      place, keeps its seq, and evicts nothing.

    The floors are what a table that holds guarantees rather than memos
    needs: an evicted live entry is gone, but every key under its tag
    that would have expired by that tag's floor may have been one of
    them. {!lookup} answers such a key [Forgotten], so a caller can
    refuse what it can no longer prove it has not seen. Each tag (and
    the untagged entries, as one) has its own floor, so a flood evicting
    one party's entries makes only that party's keys forgotten. *)

type 'v t

val create : ?on_evict:(unit -> unit) -> capacity:int -> unit -> 'v t
(** [on_evict] fires each time a live entry is evicted to make room. *)

val find : 'v t -> now:int -> string -> 'v option
(** The live value under a key; an entry whose expiry is [<= now] is
    dropped and reads as absent. A memo's lookup. *)

(** What a guarantee table knows about a key. *)
type 'v status =
  | Live of 'v
  | Absent  (** never recorded, or its record has expired *)
  | Forgotten  (** not held, and it may have been evicted while live *)

val lookup : 'v t -> now:int -> expires:int -> ?tag:string -> string -> 'v status
(** {!find}, for a key whose record would carry [tag] and expiry
    [expires]: a key not held reads [Forgotten] when [now < expires] and
    [expires] is at or below the tag's floor, the greatest expiry a live
    entry under that tag was evicted with. So an evicted key reads
    [Forgotten] whenever the caller passes its record's tag and an
    [expires] after [now] and at most its record's expiry. A record that
    would have expired by [now] reads [Absent]. *)

val mem : 'v t -> string -> bool
(** Raw presence, expired or not: not a freshness check. *)

val add :
  ?on_evict:(unit -> unit) -> 'v t -> now:int -> expires:int -> ?tag:string -> string -> 'v -> unit
(** Store [v] under a key until [expires], by the rule above. [tag] names
    the party the entry was recorded for: {!shed} drops by it, and its
    eviction raises that tag's floor alone. A per-call
    [on_evict] replaces the table's hook for this insertion: one response
    cache takes both served replies, whose evictions count, and
    replication seeding, whose evictions do not. *)

val purge : 'v t -> now:int -> unit
(** Drop every entry whose expiry is [<= now]. *)

val shed : 'v t -> tag:string -> int
(** Drop every entry recorded under [tag], returning how many. The tag's
    floor does not move: a shed entry's authority is revoked, so nothing
    it vouched for verifies again. *)

val clear : 'v t -> unit
(** Drop every entry and every floor: the table is as created. *)

val size : 'v t -> int
val capacity : 'v t -> int
