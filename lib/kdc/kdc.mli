(** The key distribution centre: Kerberos-style authentication service.

    Implements the two exchanges the proxy machinery needs (Section 6.2):

    - {b AS}: initial authentication. The client names itself and a service;
      the KDC returns a ticket sealed under the service's long-term key plus
      an encrypted part only the genuine client can read. The client may
      request restrictions on the ticket — the paper's observation that
      "initial authentication can itself be thought of as the granting of a
      proxy".
    - {b TGS}: ticket derivation. Presenting an existing ticket for the KDC
      (a TGT) plus an authenticator, the client obtains a ticket for another
      service. Authorization-data restrictions are {e additive}: the derived
      ticket carries the union of the TGT's restrictions and those in the
      authenticator, never fewer.

    The KDC runs as a node on the simulated network. *)

type t

val create :
  Sim.Net.t ->
  name:Principal.t ->
  directory:Directory.t ->
  ?require_preauth:bool ->
  unit ->
  t
(** The KDC's own long-term key must already be registered in [directory]
    under [name]; raises [Invalid_argument] otherwise. Tickets live 8
    simulated hours; the clock skew tolerance is 5 minutes.
    With [require_preauth] the AS refuses requests that do not prove
    knowledge of the client key with a fresh sealed timestamp (stops the
    offline-guessing oracle); the bundled client always pre-authenticates. *)

val name : t -> Principal.t

val install : t -> unit
(** Register the request handler on the network under
    [Principal.to_string (name t)]. *)

(** {2 Cross-realm trust}

    Two realms that share an inter-realm key can authenticate each other's
    principals: a client asks its own TGS for a ticket naming the remote
    KDC (a cross-realm TGT, sealed under the inter-realm key) and presents
    it to the remote TGS like any other TGT. Restrictions remain additive
    across the realm boundary. *)

val add_cross_realm : t -> peer_realm:string -> key:string -> unit
(** Install one direction of trust; call on both KDCs with the same key
    (or use {!federate}). *)

val federate : t -> t -> unit
(** Mint a fresh inter-realm key and install it in both KDCs. *)

(** Client-side operations (each one network exchange). *)
module Client : sig
  val authenticate :
    Sim.Net.t ->
    kdc:Principal.t ->
    client:Principal.t ->
    client_key:string ->
    service:Principal.t ->
    ?auth_data:Wire.t list ->
    unit ->
    (Ticket.credentials, string) result
  (** AS exchange: obtain credentials for [service] (use the KDC's own name
      as [service] to get a ticket-granting ticket). *)

  val derive :
    Sim.Net.t ->
    kdc:Principal.t ->
    tgt:Ticket.credentials ->
    target:Principal.t ->
    ?subkey:string ->
    ?auth_data:Wire.t list ->
    unit ->
    (Ticket.credentials, string) result
  (** TGS exchange: derive credentials for [target] from a TGT, optionally
      adding restrictions ([auth_data]) and nominating a fresh [subkey] that
      will protect the reply (the proxy-key slot). *)
end
