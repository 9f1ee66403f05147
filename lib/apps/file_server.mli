(** A capability-protected file server: the running example of paper
    Section 3.1.

    Authorization is the guard's: direct ACL entries, capabilities
    (restricted bearer proxies), group proxies, and authorization-server
    proxies all work, alone or combined. Clients pass proxies to each
    authenticated request, which carries their certificates and their
    session bindings ({!Guard.present}), never their keys. *)

type t

val create :
  Sim.Net.t ->
  me:Principal.t ->
  my_key:string ->
  ?lookup_pub:(Principal.t -> Crypto.Rsa.public option) ->
  ?my_rsa:Crypto.Rsa.private_ ->
  ?verify_cache:Verify_cache.t ->
  ?revocation:Revocation.t ->
  acl:Acl.t ->
  unit ->
  t
(** [my_rsa] lets the guard accept hybrid proxies (their symmetric proxy
    key is sealed to this server's public key); [verify_cache] overrides
    the guard's signature-verification memo cache (pass a capacity-0 cache
    to disable caching, e.g. for differential testing); [revocation]
    attaches local bulletin state (see {!Guard.create}). *)

val install : t -> unit
val me : t -> Principal.t
val acl : t -> Acl.t

val guard : t -> Guard.t
(** The underlying guard — e.g. to {!Guard.apply_bulletin} fetched
    revocation bulletins, or to read its caches. *)

val put_direct : t -> path:string -> string -> unit
(** Provision content without going through authorization (setup). *)

val get_direct : t -> path:string -> string option

(** {2 Client operations}

    [read] and [open_] take an optional retry policy, forwarded to
    {!Secure_rpc.call}: retransmissions reuse the same authenticator bytes,
    so the server's response cache keeps retried operations exactly-once.
    [write] and [stat] make one attempt. *)

val read :
  Sim.Net.t ->
  creds:Ticket.credentials ->
  ?retry:Sim.Retry.policy ->
  ?proxies:Proxy.t list ->
  ?group_proxies:Proxy.t list ->
  path:string ->
  unit ->
  (string, string) result

val write :
  Sim.Net.t ->
  creds:Ticket.credentials ->
  ?proxies:Proxy.t list ->
  ?group_proxies:Proxy.t list ->
  path:string ->
  string ->
  (unit, string) result

val stat :
  Sim.Net.t ->
  creds:Ticket.credentials ->
  ?proxies:Proxy.t list ->
  ?group_proxies:Proxy.t list ->
  path:string ->
  unit ->
  (int, string) result
(** Size in bytes. *)

val open_ :
  Sim.Net.t ->
  creds:Ticket.credentials ->
  ?retry:Sim.Retry.policy ->
  ?proxies:Proxy.t list ->
  ?group_proxies:Proxy.t list ->
  path:string ->
  unit ->
  (unit, string) result
(** Access check on an existing file, no content transfer — the op that
    typically heads a {!Restriction.Sequence} (open-before-read,
    open-before-debit). *)

val attach :
  Sim.Net.t ->
  proxy:Proxy.t ->
  server:Principal.t ->
  operation:string ->
  path:string ->
  Proxy.t
(** [proxy] itself. A presentation needs no per-request work: the request
    that carries the proxy binds it to its own ticket once ({!Guard.present})
    and its authenticator covers the operation and path. Kept so callers
    that prepare a presentation apart from the request need not change. *)
