(** Typed proxy restrictions (paper Section 7).

    A restriction is a typed subfield of a proxy certificate. Restrictions
    are {e additive}: deriving a proxy may only append restrictions, never
    remove or weaken them (Section 6.2). Unknown restriction types decode
    into {!Unknown} and always fail {!check_all} — a server that does not
    understand a restriction must reject rather than ignore it. *)

type currency = string

(** One object an {!Authorized} restriction grants access to. An empty
    [ops] list authorizes every operation on the object. *)
type authorized_entry = { target : string; ops : string list }

(** One step of a {!Sequence} restriction: the operation it permits, plus
    optional context predicates — the end-server that must evaluate it and
    the target it must name. [None] leaves that dimension unconstrained. *)
type seq_step = {
  step_op : string;
  step_server : Principal.t option;
  step_target : string option;
}

type t =
  | Grantee of Principal.t list * int
      (** principals allowed to exercise the proxy, and how many of them
          must concur (Section 7.1); presence makes a proxy a delegate
          proxy *)
  | For_use_by_group of Principal.Group.t list * int
      (** groups whose membership must be asserted alongside (7.2) *)
  | Issued_for of Principal.t list
      (** end-servers allowed to accept the proxy (7.3) *)
  | Quota of currency * int  (** resource ceiling (7.4) *)
  | Authorized of authorized_entry list
      (** complete list of accessible objects/operations (7.5) *)
  | Group_membership of string list
      (** grantee is a member of only these of the group server's groups
          (7.6), which the proxy proves at its grantor ({!claimed_groups});
          refuses an {!assert_membership} request on any other. Every name
          is non-empty on the wire, as a group name is ({!Principal.Group}) *)
  | Accept_once of string
      (** single-use identifier, e.g. a check number (7.7); {e stateful}:
          the server records it ({!check_all}'s [held]) *)
  | Sequence of seq_step list
      (** context-aware permission sequence: operations are permitted only
          in the stated order, one grant per step, with progress recorded
          server-side per presented chain head (cf. Section 7's typed
          catalogue; sequences make a restriction {e stateful}). A sequence
          must be non-empty with pairwise-distinct steps; malformed
          sequences fail closed at both decode and check time *)
  | Limit_restriction of Principal.t list * t list
      (** restrictions enforced only by the named servers (7.8) *)
  | Unknown of string
      (** unrecognized restriction type: always fails checks *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

val to_wire : t -> Wire.t
val of_wire : Wire.t -> (t, string) result
(** Accepts each known tag only in the shape {!to_wire} writes it, and
    refuses it in any other; an unrecognized tag decodes to [Unknown tag]
    whatever follows it. *)

val list_to_wire : t list -> Wire.t
val list_of_wire : Wire.t -> (t list, string) result

(** The request a proxy is being exercised for, as seen by the end-server
    at check time. *)
type request = {
  server : Principal.t;  (** the end-server evaluating the proxy *)
  time : int;  (** virtual time of evaluation *)
  operation : string;
  target : string;
      (** object of the operation ("" if none); for {!assert_membership},
          the local name of the group asserted *)
  presenters : Principal.t list;
      (** principals that authenticated alongside the presentation *)
  groups_asserted : Principal.Group.t list;
      (** group memberships proven by accompanying group proxies *)
  spend : (currency * int) option;
      (** resource amount the operation would consume *)
}

val request :
  server:Principal.t ->
  time:int ->
  operation:string ->
  ?target:string ->
  ?presenters:Principal.t list ->
  ?groups_asserted:Principal.Group.t list ->
  ?spend:currency * int ->
  unit ->
  request

val assert_membership : string
(** The operation a membership proxy is exercised for, on the local name
    of the group it asserts. *)

val membership_right : string
(** The right a group server's table grants each member of a group, and
    that a membership proxy carries beside {!assert_membership}. *)

val membership : group:string -> member:Principal.t -> t list
(** A membership proxy's restrictions, as group servers and replicas write
    them (Section 3.3): [Authorized] for {!assert_membership} and
    {!membership_right} on [group], [Group_membership [group]],
    [Grantee ([member], 1)]. *)

val claimed_groups : t list -> string list
(** The group names the top-level [Group_membership] restrictions list, in
    order, each once. An empty name, which names no group, is skipped. *)

val seq_step_equal : seq_step -> seq_step -> bool

val seq_validate : seq_step list -> (unit, string) result
(** [Ok ()] iff the step list is non-empty with pairwise-distinct steps. *)

val seq_canonical : seq_step list -> string
(** Canonical form of a sequence — its own wire encoding. Two sequences
    share progress state iff their canonical forms are byte-identical. *)

val seq_key : head:string -> string -> string
(** [seq_key ~head canon] scopes a canonical sequence under a presented
    chain's head certificate serial — the progress-tracker key. Kept like
    the guard's accept-once records: per chain head, so revocation
    shedding (by grantor tag) and verify-cache invalidation compose, and
    every chain derived from one grant shares one progress line. *)

val seq_key_parse : string -> (string * seq_step list, string) result
(** Invert {!seq_key}: recover the head serial and the decoded steps. The
    key is self-describing, so a server receiving forwarded progress can
    re-validate the sequence it claims to advance. *)

val tighten_sequence : keep:int -> seq_step list -> seq_step list
(** Keep only the first [keep] steps (clamped to [1 .. length]) — the only
    sequence transformation a delegate may apply: dropping trailing steps
    tightens, while reordering or extending would widen and is simply not
    expressible through this function. *)

(** A restriction whose verdict depends on what the server has already
    granted: an accept-once identifier (Section 7.7) or a sequence's
    steps. *)
type stateful = Once of string | Steps of seq_step list

val check_all :
  held:(stateful -> ('a, string) result) -> t list -> request -> ('a list, string) result
(** Do the restrictions permit the request? They are decided in order and
    the first refusal is reported. Every stateless restriction is decided
    here. Each [Accept_once] and each [Sequence] (once {!seq_validate}
    passes) that applies at [req.server] goes to [held] in its place in
    the list. A restriction applies there when it is at top level, or
    inside a [Limit_restriction] that names the server, at any depth.
    [held] decides it from the server's records. [Ok] carries what [held]
    returned, in order: what a server that grants the request must
    record. *)

val no_state : stateful -> ('a, string) result
(** The [held] of a caller that keeps no records: it refuses every
    stateful restriction (fail closed). *)

val seq_next : seq_step list -> done_:int -> request -> (unit, string) result
(** Is the request step [done_] of a valid sequence, the next one once
    [done_] steps have been granted? Past the end the sequence is
    exhausted and everything is refused. *)

val grantees : t list -> Principal.t list
(** The union, in order, of every top-level [Grantee] list: non-empty
    exactly when the restrictions make a proxy a delegate proxy. *)

val propagate : issued_for:Principal.t list -> t list -> t list
(** Restrictions to copy into a proxy derived from one carrying these
    restrictions (Section 7.9). Everything is kept, except that a
    [Limit_restriction] whose server list is disjoint from [issued_for] may
    be elided — sound only because the derived proxy carries
    [Issued_for issued_for], which later derivations can never widen. The
    [Issued_for issued_for] restriction itself is prepended. Raises
    [Invalid_argument] when [issued_for] is empty. *)
