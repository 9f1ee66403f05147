(** Replicated group membership as signed epoch snapshots.

    The paper's Section 4 comparison to Grapevine: a realm should be able
    to keep resolving group membership while the group server's realm is
    unreachable. The authoritative group server periodically publishes its
    {e full} membership table as a signed, monotonically-numbered
    {b snapshot}; a replica in another realm holds the latest applied
    snapshot plus a staleness bound — the same {!Signed_epoch} design as
    revocation bulletins ({!Revocation}):

    - {b bounded inconsistency}: within the staleness bound the replica
      answers membership queries from the last snapshot — a membership
      change propagates within one publication interval;
    - {b fail closed beyond the bound}: once [now - as_of] exceeds the
      bound, {!check} refuses every query until a fresh snapshot arrives.

    Snapshots are cumulative (each carries the whole table), canonically
    ordered, and self-authenticating, so they can travel over any channel
    and be applied in any order: only a signature-valid snapshot with a
    strictly higher epoch advances the state. *)

type group = string * Principal.t list
(** A group name and its direct principal members. *)

type report = {
  fresh : int;
      (** (group, member) pairs not covered by the previous snapshot (0
          for a heartbeat re-publication) *)
}

(** Snapshots are {!Signed_epoch} artifacts tagged ["membership-snapshot"],
    signed by the authoritative group server; their items are the full
    table in canonical order (groups sorted by name, members by principal
    string). The replica state {!t} holds the latest applied one.
    [sign] canonicalizes (sorts and dedups) the table before signing, so
    the same membership yields the same bytes whatever order the
    publisher's tables iterate in. *)
include Signed_epoch.S with type item := group and type report := report

type snapshot = artifact

val member : t -> group:string -> Principal.t -> bool
(** Raw table lookup; does {e not} consider staleness. *)

val check : t -> now:int -> group:string -> Principal.t -> (unit, string) result
(** The serving gate: fail closed when {!stale}, else a membership
    decision from the replicated table. *)
