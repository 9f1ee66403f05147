(** Access-control lists with restriction-bearing and compound entries
    (paper Section 3.5).

    One ACL abstraction serves every server: end-servers, authorization
    servers, group servers, and accounting servers all consult the same
    structure. An entry names a subject — a principal, a group (to be proven
    by a group proxy), a compound of subjects that must all concur, or
    anyone — together with the operations it permits and a restriction list
    that authorization servers copy into the proxies they grant. *)

type subject =
  | Principal_is of Principal.t
  | Group of Principal.Group.t
  | Compound of subject list
      (** all components must concur — user+host credentials, separation of
          privilege *)
  | Anyone

type entry = {
  subject : subject;
  rights : string list;  (** permitted operations; [[]] means all *)
  restrictions : Restriction.t list;
      (** copied into proxies granted on the strength of this entry, and
          checked, with no records kept, against each request the entry
          permits: an [Accept_once] or [Sequence] there refuses it (fail
          closed) *)
}

type t

val create : unit -> t

val add : t -> target:string -> entry -> unit
(** Append an entry for an object. The target ["*"] applies to every
    object. *)

val remove_subject : t -> target:string -> subject -> unit
(** Drop all entries for [subject] on [target] — the paper's revocation
    story: "one can revoke a capability by changing the access rights
    available to the grantor". *)

val entries_for : t -> target:string -> entry list
(** Specific entries first, then ["*"] entries. *)

val targets : t -> string list

(** The facts available when testing whether a subject concurs. *)
type facts = {
  principals : Principal.t list;  (** authenticated identities *)
  groups : Principal.Group.t list;  (** memberships proven by group proxies *)
}

val permitting : t -> target:string -> operation:string -> facts -> entry list
(** Every entry whose subject is satisfied and whose rights cover
    [operation], in {!entries_for}'s order. An entry's own restrictions
    are its user's to check: a guard tries them in this order. *)

val pp_subject : Format.formatter -> subject -> unit
