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

type 'c choice =
  | Grant of { entry : entry; credited : 'c list; via_groups : Principal.Group.t list }
      (** [entry] grants, on the chains and groups that satisfied its
          subject's leaves, in the subject's order *)
  | No_entry  (** no entry that covers the operation is satisfied *)
  | Refused of string  (** every satisfied entry's restrictions refuse: the first's reason *)

val choose :
  t ->
  Restriction.request ->
  grantor:('c -> Principal.t) ->
  chains:'c list ->
  groups:(Principal.Group.t * 'c) list ->
  'c choice
(** The ACL's decision of [req] (Section 3.5): the first of {!entries_for}
    [req.target] whose rights cover [req.operation], whose subject is
    satisfied and whose own restrictions pass with no records kept
    ({!Restriction.no_state}). One walk decides a subject: a principal is
    satisfied by one of [req.presenters], crediting nothing, or else by
    the first of [chains] whose [grantor] it is, crediting that chain; a
    group by the first of [groups] (each asserted group with the chain
    that proved it) naming it, crediting that proof; a compound when
    every part is; [Anyone] always. Pure: no clock, no server state, no
    signature. *)

val pp_subject : Format.formatter -> subject -> unit
