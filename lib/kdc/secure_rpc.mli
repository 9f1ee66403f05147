(** Authenticated application RPC over tickets.

    The standard Kerberos application exchange: the client sends its ticket
    and a fresh authenticator with the request; the server learns the
    client's authenticated identity and the session key, and seals its
    response under the session key. Every
    service in the system — authorization server, group server, accounting
    servers, end-servers — speaks this.

    The authenticator covers the request, in the manner of RFC 4120's
    authenticator checksum: the client seals it with the encoded payload
    (and the trace context, when one rides along) as its AEAD associated
    data, and the envelope carries those exact bytes. A tap that rewrites
    any of them makes the authenticator fail to open, so the server
    refuses the request before its response cache or handler sees it.
    This holds for every verb, for [x-batch] wrappers as a whole, and for
    the replication a shard primary ships to its standby. *)

type server_context = {
  rpc_client : Principal.t;  (** authenticated identity of the caller *)
  rpc_auth_data : Wire.t list;
      (** restrictions carried by the caller's ticket + authenticator *)
  rpc_ticket : string;
      (** {!Ticket.digest} of the ticket the request rode, computed once
          per held ticket: the session a presented proxy's binding must
          name ([Guard.decide]'s [ticket]) *)
}

type cache = string Expiring.t
(** A response cache: authenticator tag -> sealed reply, a first-class
    value so shard replicas can share or seed one another's. Each reply is
    tagged ({!Expiring.add}) with [Principal.to_string] of the ticket's
    client, so evicting it raises that client's floor alone. Replication
    ships each handled request's [auth_id], client tag, expiry and reply
    to the standby, which {!Expiring.add}s it under that tag (re-seeding
    a live key updates it in place and evicts nothing, so a re-shipped
    batch cannot push out another live reply); the seeded cache then
    answers a failed-over client's retransmission without executing the
    request a second time. The key is the authenticator's AEAD tag, which
    covers the payload, so one key names the authenticator and the
    request together, and primary and standby derive the same one. *)

val create_cache : ?capacity:int -> unit -> cache
(** Default capacity 4096; at capacity, expired entries are purged, then
    the soonest-to-expire live entry is evicted. *)

val serve :
  Sim.Net.t ->
  me:Principal.t ->
  my_key:string ->
  ?node:string ->
  ?max_skew_us:int ->
  ?cache:cache ->
  ?on_handled:(auth_id:string -> client:string -> expires:int -> reply:string -> unit) ->
  (server_context -> Wire.t -> (Wire.t, string) result) ->
  unit
(** Register the service on the network. The handler sees only authenticated
    requests; ticket/authenticator failures, including a payload the
    authenticator does not cover, are answered with in-band errors before the
    response cache is consulted or the handler runs. A repeated authenticator
    within the skew window — a client retransmission or an adversarial replay —
    does {e not} re-run the handler: the original sealed response is returned
    from an internal response cache, giving exactly-once handler execution under
    at-least-once delivery. (A replayer gains nothing: the cached response is
    sealed under the session key.) If capacity pressure evicted that response
    while live, the repeat reads as forgotten ({!Expiring.lookup} under its
    client's tag, with expiry [timestamp + 1 + max_skew_us]) and is refused
    before the handler: at most once, never twice. That floor is the
    client's own, in its own timestamps: no other client's flood refuses
    its fresh requests, and if its timestamps only increase, however far
    its clock lags, it is refused only a repeat of an evicted request.

    [my_key] is held as a {!Ticket.holder}, once per [serve]: the key is
    prepared once, and each ticket blob is opened and its session key
    prepared once, for every request presenting that ticket until it
    expires (["ticket_cache.hits"] counts the requests the table
    answered, which tally no ["crypto.open"] for the ticket). The
    ticket's service and expiry are still checked on every request, so a
    misaddressed or expired ticket is refused as if opened afresh. The
    session key serves both the authenticator open and the reply seal,
    which {!call} opens under [cred_session]. A [my_key] that is not 32
    bytes opens nothing:
    every request is answered ["ticket: seal verification failed"].

    [node] is the network registration name (default: the service
    principal). Shard replicas register the {e same} logical identity [me]
    (and key) under distinct physical nodes, so a ticket for the shard is
    honoured by either replica.

    [cache] supplies an externally owned response cache (a standby's,
    seeded by replication, or one of another capacity); otherwise an
    internal {!create_cache} one is used. A reply is cached until the
    authenticator could no longer pass the freshness check — [max_skew_us]
    past its timestamp — so a client clock running ahead cannot outlive
    its cache entry. At capacity, expired entries are
    purged; if all are live, the soonest-to-expire one is evicted and the
    net's ["rpc.cache_evictions"] metric ticks (seeding a standby's cache
    ticks nothing: the counter is the served traffic's).

    [on_handled] fires after each request the handler {e actually ran}
    (cache hits excluded) with the authenticator tag, the client tag the
    reply is cached under, the cache expiry, and the sealed reply bytes —
    the feed a primary ships to its standby. *)

val call :
  Sim.Net.t ->
  creds:Ticket.credentials ->
  ?retry:Sim.Retry.policy ->
  ?via:string list ->
  ?on_failover:(from_:string -> to_:string -> unit) ->
  Wire.t ->
  (Wire.t, string) result
(** One authenticated exchange with the service named by
    [creds.cred_service]. The authenticator is sealed, and the response
    decrypted and authenticated, under [creds.cred_session], the session
    key prepared when the credentials were built; a tampered or
    substituted response surfaces as [Error].

    Without [retry] the call makes at most one attempt per destination and
    does not go through {!Sim.Retry.run}. With it, transient transport
    failures are retried under that policy: each retransmission reuses the
    {e same} request bytes, so the server's response cache answers
    duplicates without re-running the handler.

    [via] lists the physical destinations of the same logical service in
    order (absent or [[]]: the service principal's own node). The call
    moves to the next one before an attempt if the current target is
    observably down, or after the retry budget against it is exhausted
    with a transient error. Each move reuses the same request bytes, ticks
    ["cluster.failovers"] once, opens one ["cluster.failover"] span, and
    calls [on_failover] once. *)

val call_batch :
  Sim.Net.t ->
  creds:Ticket.credentials ->
  ?retry:Sim.Retry.policy ->
  ?via:string list ->
  Wire.t list ->
  ((Wire.t, string) result list, string) result
(** Request pipelining: N payloads under {e one} ticket/authenticator
    exchange — one client seal, one round trip, one server open + sealed
    coalesced reply — instead of N full exchanges. Transport semantics
    ([retry], [via] fail-over, same-bytes retransmission) are exactly
    {!call}'s, applied to the batch as a whole; the server runs its
    ordinary handler once per item, in order, and caches the coalesced
    reply under the single authenticator, so however often the batch is
    retransmitted or fails over each item executes exactly once. The outer
    [Error] is a transport or authentication failure (no item is known to
    have executed... or the whole batch was already executed and the
    cached reply was lost to the skew window — the same at-least-once
    caveat as [call]); the inner results are the per-item handler
    outcomes, positionally matching the payloads. An empty payload list
    returns [Ok []] without touching the network. Metrics:
    ["rpc.batch.calls"]/["rpc.batch.coalesced"] client side,
    ["rpc.batch.requests"]/["rpc.batch.items"] server side. *)
