(** Typed proxy restrictions (paper Section 7).

    A restriction is a typed subfield of a proxy certificate. Restrictions
    are {e additive}: deriving a proxy may only append restrictions, never
    remove or weaken them (Section 6.2). Unknown restriction types decode
    into {!Unknown} and always fail {!check} — a server that does not
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
          (7.6) *)
  | Accept_once of string
      (** single-use identifier, e.g. a check number (7.7) *)
  | Sequence of seq_step list
      (** context-aware permission sequence: operations are permitted only
          in the stated order, one grant per step, with progress tracked
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
val list_to_wire : t list -> Wire.t
val list_of_wire : Wire.t -> (t list, string) result

(** The request a proxy is being exercised for, as seen by the end-server
    at check time. *)
type request = {
  server : Principal.t;  (** the end-server evaluating the proxy *)
  time : int;  (** virtual time of evaluation *)
  operation : string;
  target : string;  (** object of the operation ("" if none) *)
  presenters : Principal.t list;
      (** principals that authenticated alongside the presentation *)
  groups_asserted : Principal.Group.t list;
      (** group memberships proven by accompanying group proxies *)
  claimed_memberships : string list;
      (** local group names this proxy is being used to assert *)
  spend : (currency * int) option;
      (** resource amount the operation would consume *)
  accept_once_seen : string -> bool;
      (** replay-cache lookup supplied by the server *)
  sequence_progress : string -> int;
      (** progress-tracker lookup supplied by the server: given a sequence's
          canonical form ({!seq_canonical}), how many of its steps have
          already been granted under the presented chain. The default
          ([fun _ -> 0]) means "no progress": only a sequence's first step
          can ever pass, and nothing advances — fail closed for call sites
          that track no state. {!Verifier.authorize} composes the presented
          chain's head serial into the lookup ({!seq_key}), so the raw
          canonical form never reaches the tracker unscoped. *)
}

val request :
  server:Principal.t ->
  time:int ->
  operation:string ->
  ?target:string ->
  ?presenters:Principal.t list ->
  ?groups_asserted:Principal.Group.t list ->
  ?claimed_memberships:string list ->
  ?spend:currency * int ->
  ?accept_once_seen:(string -> bool) ->
  ?sequence_progress:(string -> int) ->
  unit ->
  request

val seq_step_equal : seq_step -> seq_step -> bool

val seq_validate : seq_step list -> (unit, string) result
(** [Ok ()] iff the step list is non-empty with pairwise-distinct steps. *)

val seq_canonical : seq_step list -> string
(** Canonical form of a sequence — its own wire encoding. Two sequences
    share progress state iff their canonical forms are byte-identical. *)

val seq_key : head:string -> string -> string
(** [seq_key ~head canon] scopes a canonical sequence under a presented
    chain's head certificate serial — the progress-tracker key. Keyed like
    {!Replay_cache} accept-once state: per chain head, so revocation
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

val check : t -> request -> (unit, string) result
(** Does this single restriction permit the request? *)

val check_all : t list -> request -> (unit, string) result
(** All restrictions must pass (first failure reported). *)

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
