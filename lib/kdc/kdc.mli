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

(** {2 Requests}

    RFC 4120's KRB_AS_REQ and KRB_TGS_REQ. {!request_to_wire} lays each out
    once, as [L [S "as" | S "tgs"; fields...]] in constructor order;
    {!request_of_wire} accepts exactly those shapes and refuses any other
    ("as: malformed request", "tgs: malformed request"). *)
type request =
  | As_req of {
      client : Principal.t;
      service : Principal.t;  (** the KDC's own name asks for a TGT *)
      nonce : int;
      auth_data : Wire.t list;
      preauth : string option;  (** [None] omits the field; the KDC reads it as [Some ""] *)
    }
  | Tgs_req of {
      tgt : string;
      authenticator : string;
          (** sealed under the TGT's session key, covering {!tgs_covers} *)
      target : Principal.t;
      nonce : int;
    }

val request_to_wire : request -> Wire.t
val request_of_wire : Wire.t -> (request, string) result

val tgs_covers : target:Principal.t -> nonce:int -> string
(** What a TGS request's authenticator covers ([Ticket.seal_authenticator
    ~covers]): the encoded target and request nonce, RFC 4120's
    authenticator checksum over the request body. The KDC opens the
    authenticator under the target and nonce the request carries, so a
    rewritten one is refused ("tgs: authenticator: seal verification
    failed") before any ticket is issued. *)

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
      as [service] to get a ticket-granting ticket). A reply for another
      service is refused ("reply: asked for X, got credentials for Y"). *)

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
      will protect the reply (the proxy-key slot). The authenticator covers
      the target and nonce ({!tgs_covers}), and a reply for another service
      is refused as well. *)
end
