(** Virtual time.

    All expirations (tickets, proxies, checks, replay-cache entries) and all
    latency accounting read this clock, never the wall clock, so experiments
    are deterministic and expiry scenarios need no sleeping. Times are
    microseconds since the simulation epoch. *)

type t

val create : unit -> t
(** A clock at the epoch, 0. *)

val now : t -> int
val advance : t -> int -> unit
(** [advance t us] moves time forward; raises [Invalid_argument] on a
    negative step (time never goes backwards). *)
