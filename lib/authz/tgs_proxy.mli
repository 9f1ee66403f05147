(** Proxies for the ticket-granting service (paper Section 6.3).

    A conventional proxy binds to one end-server. The paper's remedy: "it is
    possible to issue a proxy for the Kerberos ticket-granting service. Such
    a proxy allows the grantee to obtain proxies with identical restrictions
    for additional end-servers as needed."

    Concretely, the grantor derives a fresh TGT whose authorization-data
    carries the restrictions, keyed to a fresh subkey, and hands the whole
    credential (ticket + session key) to the grantee over a sealed channel.
    Every service ticket the grantee later derives carries at least those
    restrictions — the KDC only ever adds — and every guard-protected server
    enforces them through {!Guard.transport_ok}. *)

val grant :
  Sim.Net.t ->
  kdc:Principal.t ->
  tgt:Ticket.credentials ->
  restrictions:Restriction.t list ->
  unit ->
  (Ticket.credentials, string) result
(** Derive a restricted TGT suitable for handing to a grantee. The grantee
    uses it exactly like its own credentials: [Kdc.Client.derive] for each
    end-server, then ordinary authenticated requests. *)

val use :
  Sim.Net.t ->
  kdc:Principal.t ->
  proxy_tgt:Ticket.credentials ->
  service:Principal.t ->
  (Ticket.credentials, string) result
(** Grantee side: obtain restricted credentials for one more end-server. *)

val restrictions_of : Ticket.credentials -> Restriction.t list
(** The restrictions the credentials carry (fail-closed decoding). *)
