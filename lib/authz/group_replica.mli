(** A cross-realm replica of another realm's group server.

    The paper's Section 4 comparison to Grapevine: group membership should
    keep resolving in realm B while realm A (where the authoritative group
    server lives) is unreachable. The replica holds an epoch-stamped,
    signed {!Membership} snapshot of the origin's table and grants
    membership proxies from it under its {e own} principal — end-servers in
    realm B list [replica$group] on their ACLs, trusting their local
    replica's node identity rather than a foreign grantor.

    Refreshing walks the ordinary cross-realm TGS path under the replica's
    own identity: the origin realm authenticates the replica {e node},
    never a forwarded end-user claim. During a partition the replica keeps
    serving from the last applied snapshot; past the staleness bound it
    fails closed ({!Membership.check}). Metrics:
    ["membership.replica_hits"], ["membership.replica_denials"],
    ["membership.replica_stale_denials"], ["membership.snapshots_applied"]. *)

type t

val create :
  Sim.Net.t ->
  me:Principal.t ->
  my_key:string ->
  kdc:Principal.t ->
  origin:Principal.t ->
  origin_pub:Crypto.Rsa.public ->
  ?staleness_bound_us:int ->
  ?proxy_lifetime_us:int ->
  unit ->
  (t, string) result
(** [origin] is the authoritative group server (typically in another
    realm); [origin_pub] its snapshot-signing key. [kdc] is the {e local}
    realm's KDC — the replica reaches the origin through the federation. *)

val install : t -> unit
(** Serve the same ["assert"] verb as {!Group_server} (clients use
    {!Group_server.request_membership_proxy} unchanged), decided from the
    replicated table. Nested-group evidence is not accepted — a replica
    attests only direct memberships from the snapshot. *)

val me : t -> Principal.t
val origin : t -> Principal.t

val epoch : t -> int
(** Epoch of the last applied snapshot (0 before the first). *)

val stale : t -> bool
(** Is the replica past its staleness bound right now? *)

val refresh : t -> (Membership.applied, string) result
(** Pull the origin's current snapshot across the realm boundary and apply
    it. *)

val group_name : t -> string -> Principal.Group.t
(** The replica-scoped global name of a group ([replica$group]) — what
    end-server ACLs in this realm should list. *)
