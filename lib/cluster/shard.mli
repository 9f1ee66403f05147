(** A replicated bank shard: primary + standby accounting servers sharing
    one logical identity and long-term key.

    Failover ordering guarantees (see DESIGN.md §12):
    - the standby learns the primary's state from one ordered journal of
      {!Accounting_server.change}s (ledger primitives, accept-once records
      with their expiry and grantor tag, sequence progress, grant totals),
      fed by the primary's {!Accounting_server.set_journal} hook, each
      request's changes followed by its sealed reply;
    - replication ships {e before} the primary's reply is transmitted, so
      every reply a client saw is already at the standby;
    - each entry applies once: a batch carries the journal position of
      its first entry, the standby applies only the entries past its
      own position and answers with that position, which the primary
      records as the start of its next batch;
    - the standby's response cache is seeded with those replies, keyed by
      ticket and authenticator tag as at the primary, so a failed-over
      retransmission is answered without a second execution
      (exactly-once across replicas) and no other session reads them.
      Beside them it keeps the answer to the latest replication batch
      only, for a retransmission of that batch ({!standby_cache});
    - the standby refuses fresh work until it observes the primary down,
      and promotion is sticky thereafter. *)

type t

val create :
  Sim.Net.t ->
  me:Principal.t ->
  my_key:string ->
  kdc:Principal.t ->
  signing_key:Crypto.Rsa.private_ ->
  lookup:(Principal.t -> Crypto.Rsa.public option) ->
  ?collect_retry:Sim.Retry.policy ->
  ?repl_retry:Sim.Retry.policy ->
  ?revocation_authority:Principal.t * Crypto.Rsa.public ->
  ?staleness_bound_us:int ->
  primary_node:string ->
  standby_node:string ->
  unit ->
  (t, string) result
(** Both replicas are created with the same [me]/[my_key]; [primary_node]
    and [standby_node] are their distinct physical network names.
    [repl_retry] governs the primary->standby replication exchange.

    Every request that changed state ships its pending entries, its
    sealed reply last, in one ["x-replicate-bulk"] exchange before the
    reply is released (["cluster.repl_ops_shipped"] counts the changes).
    Requests that changed nothing (reads) skip shipping entirely —
    re-executing one on a failed-over retransmission is idempotent
    (["cluster.repl_read_skips"]). Pipelined batches
    ({!Secure_rpc.call_batch}) journal all their items under one
    authenticator and thus one ship. A failed ship re-rides the next
    handled request, from the same journal position, so a batch the
    standby applied but whose answer was lost is not applied twice.
    [revocation_authority] subscribes {e each replica independently} to
    that authority's bulletins (its own {!Revocation.t}, aged by its own
    deliveries), so a partition isolating one physical node drives only
    that replica past [staleness_bound_us] into fail-closed. *)

val install : t -> unit
(** Register both replicas on the network. *)

val logical : t -> Principal.t
val primary_node : t -> string
val standby_node : t -> string
val primary_server : t -> Accounting_server.t
val standby_server : t -> Accounting_server.t

val standby_cache : t -> Secure_rpc.cache
(** The standby's response cache, to read: the replies replication seeded,
    and the answer to the latest replication batch, kept for a duplicate
    of that batch. An earlier batch's answer is dropped when the next
    batch is handled ({!Expiring.remove}): the primary never sends a batch
    again under its old authenticator once a later one has gone. *)

val promoted : t -> bool
(** Whether the standby has taken over. *)

val authoritative : t -> Accounting_server.t
(** The replica currently answering fresh work — the standby once the
    primary is down or promotion happened, the primary otherwise. Read
    invariants (conservation) against this one. *)

val mint : t -> name:string -> currency:string -> int -> (unit, string) result
(** Provision funds identically on both replicas (setup only). *)

val set_route :
  t -> drawee:Principal.t -> ?via:string list -> next_hop:Principal.t -> unit -> unit
(** Install an inter-shard clearing route on both replicas. *)

val warm : t -> drawee:Principal.t -> (unit, string) result
(** Pre-fetch clearing credentials on both replicas so no KDC traffic is
    needed once a fault plan is live (a freshly promoted standby included). *)

val apply_bulletin : t -> Revocation.bulletin -> (bool, string) result
(** Deliver a revocation bulletin to {e both} replicas locally. [Ok true]
    when either epoch advanced. The remote path is
    {!Accounting_server.push_bulletin} aimed at each physical node — the
    standby accepts the ["apply-bulletin"] verb even before promotion
    (unlike fresh work), because a standby with stale revocation state
    would fail open the moment it took over. *)
