(** The group server of paper Section 3.3.

    Grants proxies that "delegate the right to assert membership in a
    particular group". A group's global name composes the group server's
    principal with the local group name; the same group server may maintain
    many groups. Issued proxies carry {!Restriction.membership}: a
    [Group_membership] naming the group the proxy proves, an [Authorized]
    entry for the assert-membership operation, and a [Grantee] naming the
    member — the end-server "verifies the authenticity of the proxy and the
    identity of the client".

    The membership database is the standard ACL abstraction (Section 3.5),
    so a group may contain {e other groups} — including groups on other
    group servers ("the name of a group [may] appear ... even on another
    group server"): a member of a nested group proves itself by attaching a
    membership proxy from that group's server as evidence. *)

type t

val create :
  Sim.Net.t ->
  me:Principal.t ->
  my_key:string ->
  kdc:Principal.t ->
  ?lookup_pub:(Principal.t -> Crypto.Rsa.public option) ->
  ?verify_cache:Verify_cache.t ->
  ?signing_key:Crypto.Rsa.private_ ->
  unit ->
  (t, string) result
(** [verify_cache] overrides the membership guard's signature-verification
    memo cache (capacity 0 disables caching). [signing_key] enables
    snapshot publication ({!publish}) for cross-realm replicas. The
    membership proxies it grants live 2 hours. *)

val install : t -> unit
val me : t -> Principal.t

val add_member : t -> group:string -> Principal.t -> unit
val add_group_member : t -> group:string -> Principal.Group.t -> unit
(** Nest another group (possibly maintained by a different group server). *)

val remove_member : t -> group:string -> Principal.t -> unit

val group_name : t -> string -> Principal.Group.t
(** The global name of one of this server's groups. *)

val publish : t -> (Membership.snapshot, string) result
(** Sign an epoch-stamped copy of the membership table (direct principal
    members per group; nested [Group] entries are not flattened) for
    replicas in other realms (Grapevine-style replication); each
    publication advances the epoch.
    [Error] without a [signing_key]. Also served remotely as the
    ["snapshot"] verb ({!fetch_snapshot}). *)

(** Client side. *)
val request_membership_proxy :
  Sim.Net.t ->
  creds:Ticket.credentials ->
  group:string ->
  end_server:Principal.t ->
  ?evidence:Proxy.t list ->
  unit ->
  (Proxy.t, string) result
(** Obtain a proxy asserting membership of [group] for presentation at
    [end_server]. [evidence] carries membership proxies for nested groups,
    each proving its group at {e this} group server. *)

val fetch_snapshot :
  Sim.Net.t ->
  creds:Ticket.credentials ->
  unit ->
  (Membership.snapshot, string) result
(** Pull the signed membership snapshot (the replica's refresh path). *)
