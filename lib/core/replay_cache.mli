(** Accept-once replay cache (Section 7.7).

    "Once a check is paid, the accounting server keeps track of the check
    number until the expiration time on the check. If, within that period,
    another check with the same number is seen, it is rejected." Entries
    expire with the proxy that carried them; an explicit capacity bound
    caps memory even if an adversary floods the server with long-lived
    identifiers. An {!Expiring} table: expired entries are purged first;
    if all are live, the identifier with the {e soonest} expiry is
    dropped (the smallest replay window is reopened) and [on_evict]
    fires. *)

type t

val create : ?capacity:int -> ?on_evict:(unit -> unit) -> unit -> t
(** Default capacity: 131072 identifiers. *)

val seen : t -> now:int -> string -> bool
(** Has this identifier been recorded and not yet expired? *)

val record : t -> now:int -> expires:int -> ?tag:string -> string -> (unit, string) result
(** Remember an identifier until [expires]. Fails if it is already live —
    callers can rely on record-if-absent being atomic. [tag] optionally
    names the authority the identifier was accepted under (the proxy
    chain's grantor): {!shed} can then retire all of an authority's
    records at once when a revocation bulletin kills it. *)

val shed : t -> tag:string -> int
(** Drop every entry recorded with [tag], returning how many were
    dropped. Called when a revocation bulletin kills the tagged grantor:
    the entries' credentials can no longer verify, so the records are
    dead weight — and a legitimately re-issued credential (same
    accept-once identifier, fresh post-revocation grant) must not collide
    with them. *)

val size : t -> int
val capacity : t -> int
val purge : t -> now:int -> unit
(** Drop expired entries (also happens incrementally during queries). *)
