(** Caching public-key resolution through the name server.

    Guards and accounting servers take a [lookup] function; this module
    provides the production one: fetch the CA-signed binding from the name
    server on first use, cache it until a TTL expires, and re-fetch after.
    Revocation at the name server therefore takes effect within one TTL —
    the classic certificate-freshness trade the paper's expiration-time
    discussion implies. *)

type t

val create :
  Sim.Net.t ->
  name_server:Principal.t ->
  ca_pub:Crypto.Rsa.public ->
  caller:string ->
  unit ->
  t
(** The TTL is one simulated hour. *)

val lookup : t -> Principal.t -> Crypto.Rsa.public option
(** The shape services expect; failures (unknown, revoked, network) read as
    [None]. Each call ticks the net's metrics: ["resolver.hits"] when the
    cache answers, ["resolver.misses"] when the name server is consulted
    (additionally ["resolver.expired"] when that was forced by a stale
    entry) — so benches can report resolver traffic directly. *)

val flush : t -> unit
(** Drop the cache (forces re-fetch on next use). *)

val cached : t -> int
(** Number of live cache entries. *)
