(** Grantor-side online refresh for short-TTL public-key proxies.

    Aggressive revocation wants short certificate lifetimes; honest traffic
    survives them by {e refreshing}: the grantee re-presents its chain to
    the grantor's refresh service shortly before expiry and receives a
    re-signed head certificate — same grantor, same restrictions, same
    proxy public key (or none, for a key-less head), but a fresh serial,
    [issued_at = now], and a new short expiry. Because cascade
    certificates are signed with (and chain off) the {e proxy} keys, the
    rest of the chain stays valid untouched, and the grantee's secret key
    material never moves.

    Refresh is where revocation bites the honest path: the service runs
    the full chain verification {e including} its own revocation state, so
    a revoked chain is refused a new lease (and a service with stale
    bulletin state refuses all refreshes — fail closed, like any other
    verifier). A grantor-epoch revocation therefore kills outstanding
    short-TTL proxies within one TTL without listing individual serials:
    re-issued heads carry [issued_at >= not_before] and survive; the old
    ones age out. *)

type t

val create :
  Sim.Net.t ->
  me:Principal.t ->
  my_key:string ->
  signing_key:Crypto.Rsa.private_ ->
  lookup:(Principal.t -> Crypto.Rsa.public option) ->
  ?revocation:Revocation.t ->
  ?lifetime_us:int ->
  unit ->
  t
(** [me]/[signing_key] must be the granting principal and its long-term
    key: only heads this key signed can be re-signed. [revocation] is the
    grantor's local bulletin state (keep it synced via
    {!Revocation_authority.sync} semantics — fetch and
    {!Revocation.apply}); without it, refresh never refuses on revocation
    grounds. [lifetime_us] defaults to 15 simulated minutes. *)

val install : t -> unit

val revocation : t -> Revocation.t option

val refresh :
  Sim.Net.t ->
  creds:Ticket.credentials ->
  Proxy.t ->
  (Proxy.t, string) result
(** Grantee side: present a public-key proxy chain to the grantor's
    refresh service ([creds] names the grantor as the service) and splice
    the re-signed head into the held proxy. Fails on non-public-key
    proxies, expired or revoked chains, stale-bulletin refusal, and a
    returned head whose proxy key differs from the held head's, in its
    bytes or in whether there is one at all. *)
