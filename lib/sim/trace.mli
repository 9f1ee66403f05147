(** Audit trail: a log of server events, kept for the life of the net.

    Servers record here what they did besides deciding: tickets issued,
    checks paid, bulletins applied, pages printed; tests and the examples'
    transcripts read it. Grants are not recorded. Section 3.4 of the paper
    says delegate-proxy cascades "leave an audit trail since the new proxy
    identifies the intermediate server": that trail is the presented chain
    itself, which [Audit.chain_of_presentation] renders, and on a traced
    net each grant's presenter, matched entry and contributing grantors are
    attributes of its ["guard.decide"] span ({!Span}). *)

type entry = { time : int; actor : string; event : string }
type t

val create : unit -> t
val record : t -> time:int -> actor:string -> string -> unit
val entries : t -> entry list
(** In recording order. *)

val find : t -> actor:string -> substring:string -> entry option
val pp_entry : Format.formatter -> entry -> unit
