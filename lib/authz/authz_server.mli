(** The authorization server of paper Section 3.2 and Figure 3.

    The server "does not directly specify that a particular principal is
    authorized ... Instead, when requested by an authorized client, [it]
    grants a restricted proxy allowing the client to act as the
    authorization server for the purpose of asserting the client's rights".

    The database is the same ACL abstraction end-servers use — including
    {e group} entries: per Section 3.3, "if the end-server's authorization
    database is maintained by an authorization server, then the client would
    present the group proxy to the authorization server", which then returns
    an authorization proxy. The restrictions of the entry that matched
    ({!Guard.decision}'s [granted_by]; another entry naming the same client
    is not consulted) are copied into the granted proxy (Section 3.5), and
    restrictions attached to the client's own credentials propagate per
    Section 7.9. *)

type t

val create :
  Sim.Net.t ->
  me:Principal.t ->
  my_key:string ->
  kdc:Principal.t ->
  database:Acl.t ->
  ?lookup_pub:(Principal.t -> Crypto.Rsa.public option) ->
  unit ->
  (t, string) result
(** The proxies it grants live 2 hours. *)

val install : t -> unit
(** Serve authorization requests (secure-RPC). *)

(** Client side. *)
val request_authorization :
  Sim.Net.t ->
  creds:Ticket.credentials ->
  end_server:Principal.t ->
  target:string ->
  operation:string ->
  ?delegate:bool ->
  ?evidence:Proxy.t list ->
  unit ->
  (Proxy.t, string) result
(** Figure 3 messages 1-2: ask the authorization server (named by [creds])
    for a proxy authorizing [operation] on [target] at [end_server]. With
    [delegate:true] the proxy is usable only by the requesting client; the
    default is the figure's bearer proxy whose key is returned sealed under
    the session key. [evidence] carries group proxies supporting a
    group-based database entry, each proving its group at the authorization
    server. *)
