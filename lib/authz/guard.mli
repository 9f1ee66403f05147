(** The end-server authorization engine (paper Section 3.5).

    Every application server bases authorization on a local ACL. The guard
    combines, for one request:

    - the caller's authenticated identity (from the secure-RPC ticket),
    - any restricted proxies presented (each contributing its grantor's
      authority, limited by its restrictions),
    - any group proxies presented (each proving membership in groups
      maintained by the granting group server),
    - compound ACL entries requiring several of the above to concur,
    - the server's accept-once replay cache, and
    - per-entry restrictions recorded in the ACL itself.

    Capabilities, centrally-administered authorization, and plain ACLs are
    all the same decision: a capability is a bearer proxy whose grantor the
    ACL names; delegating to an authorization server is one ACL entry naming
    that server. *)

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
(** [my_key] opens the base tickets of conventional capabilities. It is
    held as a {!Ticket.holder}: each base ticket is opened once and then
    answered from the holder's table (["ticket_cache.hits"]) until it
    expires; its service is checked on every presentation, and the
    verifier checks its expiry.

    [my_rsa] enables accepting hybrid proxies (their symmetric proxy key is
    encrypted to this server's public key). [verify_cache] lets several
    guards (or a guard and a bare {!Verifier} call site) share one
    verification memo cache; by default each guard gets its own,
    wired to the net's metrics ("verify_cache.hits"/"misses"/"evictions"/
    "invalidations", and "replay_cache.evictions" for the accept-once
    cache). The cache memoizes RSA checks and conventional-link opens
    only: every presentation still resolves each signer's key through
    [lookup_pub], so rebinding a principal to a new key denies chains
    signed under the old one, and still checks every window, revocation
    and restriction.
    [revocation] attaches local bulletin state: every verification then
    consults it ({!Verifier.verify}), and {!apply_bulletin} keeps it
    current. Without it the guard never revokes (the pre-bulletin
    behavior). *)

val me : t -> Principal.t
val acl : t -> Acl.t
val replay_cache : t -> Replay_cache.t
val verify_cache : t -> Verify_cache.t
val revocation : t -> Revocation.t option

val seq_tracker : t -> Seq_tracker.t
(** The guard's {!Restriction.Sequence} progress state, keyed per presented
    chain head ({!Restriction.seq_key}), tagged by grantor. Each granted
    decision advances every distinct sequence the contributing chains carry
    (tallying ["seq_tracker.advances"]); {!apply_bulletin} sheds a freshly
    revoked grantor's progress alongside its accept-once records (tallying
    ["seq_tracker.shed"]). *)

val set_seq_observer :
  t -> (key:string -> progress:int -> expires:int -> tag:string -> unit) option -> unit
(** Observer fired whenever sequence progress moves here — after a granted
    decision advances a step and after {!import_seq_progress} accepts a
    forwarded one. The replication feed: a cluster primary journals these
    so its standby's tracker survives a failover. *)

val set_seq_forward :
  t ->
  (server:Principal.t -> key:string -> progress:int -> expires:int -> tag:string -> unit)
  option ->
  unit
(** Hook fired after an advancement when the sequence's {e next} step names
    a different server: the glue forwards the (self-describing) key and new
    progress so the sequence can continue there — typically by calling that
    server's ["seq-advance"] verb, which lands in {!import_seq_progress}. *)

val import_seq_progress :
  t ->
  caller:Principal.t ->
  key:string ->
  progress:int ->
  expires:int ->
  tag:string ->
  (unit, string) result
(** Accept forwarded sequence progress. The key is parsed back into its
    sequence ({!Restriction.seq_key_parse}) and the authenticated [caller]
    must be the server named by the step the new progress claims was just
    completed — only the server that granted step [progress - 1] may attest
    it. Storage is max-monotone, so retransmissions and replica replays are
    harmless. Tallies ["seq_tracker.imports"] and fires the observer. *)

val apply_bulletin : t -> Revocation.bulletin -> (bool, string) result
(** Feed one signed bulletin to the guard's revocation state. [Ok true]
    means the epoch advanced; if the bulletin added coverage, the whole
    verify cache is cleared ({!Verify_cache.bump_generation}) so no cached
    signature or opened link of a revoked chain can be re-hit, and the
    accept-once replay
    records of every grantor newly killed by a [By_grantor_epoch] entry
    are shed ({!Replay_cache.shed}) — their credentials can no longer
    verify, and a re-issued credential reusing an identifier must not
    collide with the dead grant's record. [Ok false] means a replayed or
    out-of-order old bulletin was ignored. [Error] means the bulletin
    failed authentication, or no revocation state is configured. Metrics:
    ["revocation.bulletins_applied"], ["verify_cache.generation_bumps"],
    ["verify_cache.invalidations"], ["replay_cache.shed"]. *)

(** A proxy as it arrives at the server: certificates plus (for bearer
    proxies) a proof of possession bound to this request. *)
type presented = { pres : Proxy.presentation; pres_proof : Presentation.proof option }

val presented_to_wire : presented -> Wire.t
val presented_of_wire : Wire.t -> (presented, string) result

val present :
  proxy:Proxy.t ->
  time:int ->
  server:Principal.t ->
  operation:string ->
  ?target:string ->
  ?spend:string * int ->
  unit ->
  presented
(** Client side: build the presentation for a specific request. The proof
    binds server/operation/target/spend, so it cannot be replayed for
    anything else. A key-less proxy gets no proof: it has no proxy key. *)

type decision = {
  granted_by : Acl.subject;  (** the ACL entry that matched *)
  acting_for : Principal.t list;
      (** proxy grantors whose authority contributed *)
  via_groups : Principal.Group.t list;  (** memberships that contributed *)
  serials_used : string list;  (** certificate serials (audit trail) *)
}

val decide :
  t ->
  operation:string ->
  ?target:string ->
  ?presenter:Principal.t ->
  ?extra_presenters:Principal.t list ->
  ?proxies:presented list ->
  ?group_proxies:presented list ->
  ?spend:string * int ->
  unit ->
  (decision, string) result
(** Evaluate one request. On success, accept-once identifiers carried by
    the proxies that contributed are recorded in the replay cache (a second
    presentation of the same check bounces). *)

val restrictions_of_auth_data : Wire.t list -> Restriction.t list
(** Decode ticket/authenticator authorization-data into restrictions;
    undecodable entries become [Unknown] (fail-closed). *)

val transport_ok :
  me:Principal.t ->
  now:int ->
  auth_data:Wire.t list ->
  operation:string ->
  ?target:string ->
  ?spend:string * int ->
  unit ->
  (unit, string) result
(** Enforce the restrictions carried by the caller's own credentials (the
    ticket's authorization-data) against this request. This is what makes
    "the initial authentication ... itself the granting of a proxy"
    (Section 6.3) real: a server must refuse a request that the transport
    credentials' restrictions forbid, whoever else vouches for it. *)
