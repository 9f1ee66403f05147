(** Shared machinery for services that grant proxies usable at other
    end-servers (authorization servers, group servers, accounting servers).

    Such a service holds Kerberos credentials of its own: a TGT obtained at
    startup, and per-end-server tickets derived on demand and cached. A
    granted proxy is rooted in the service's ticket for the target
    end-server, exactly as Section 3.2 prescribes ("the authorization server
    grants a restricted proxy allowing the client to act as the
    authorization server"). *)

type t

val create :
  Sim.Net.t -> me:Principal.t -> my_key:string -> kdc:Principal.t -> (t, string) result
(** Authenticates to the KDC for a TGT; fails if the KDC refuses. *)

val credentials_for : t -> Principal.t -> (Ticket.credentials, string) result
(** Ticket for an end-server, derived through the TGS on first use and
    cached until its expiry nears. A target in another realm is reached
    through a cross-realm TGT when the realms are federated (the remote KDC
    is assumed to be named ["kdc"]). *)

val grant :
  t ->
  end_server:Principal.t ->
  expires:int ->
  restrictions:Restriction.t list ->
  (Proxy.t, string) result
(** Mint a restricted proxy for use at [end_server], rooted in this
    service's credentials there. The caller transfers it to the grantee over
    a sealed channel. *)
