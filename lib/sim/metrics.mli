(** Named counters and distributions.

    The benches report protocol costs as counted quantities — messages,
    bytes, signatures, MAC operations — rather than wall-clock noise, so
    every interesting operation in the stack increments a counter here.
    Counter names are dotted paths, e.g. ["net.messages"], ["rsa.verify"].

    Distribution cells ({!observe}) record count/sum/max of a sampled value
    — e.g. per-RPC latency including retries — where a plain running total
    would hide the shape. *)

type t

val create : unit -> t
val incr : t -> string -> unit
val add : t -> string -> int -> unit
val get : t -> string -> int
(** Missing counters read as 0. *)

type dist = { count : int; sum : int; max : int }

val observe : t -> string -> int -> unit
(** Record one sample into the named distribution cell. *)

val dist : t -> string -> dist option
val mean : dist -> float

val snapshot : t -> (string * int) list
(** All counters {e including zeros}, sorted by name — the form [diff]
    wants, so a counter reset to 0 between snapshots still shows up. *)

val diff : before:(string * int) list -> after:(string * int) list -> (string * int) list
(** Per-counter deltas over the union of keys (non-zero deltas only), for
    measuring a single operation. *)

val guard_here : t -> unit
(** Pin mutation to the calling domain: until {!unguard}, [incr]/[add]/
    [observe]/[merge_into] from any other domain raise. Lane schedulers set
    this at each epoch's lane entry so a cross-lane shared-counter bug
    crashes loudly instead of silently losing increments under parallel
    execution. *)

val unguard : t -> unit
(** Lift the {!guard_here} pin (e.g. before a barrier-side merge). *)

val merge_into : into:t -> t -> unit
(** Fold the second table into [into], walking keys in canonical (sorted)
    order so the merged table is independent of either table's hash
    layout. Shared counters add and shared distribution cells pool. *)
