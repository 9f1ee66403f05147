(** The end-server authorization engine (paper Section 3.5).

    Every application server bases authorization on a local ACL. The guard
    combines, for one request:

    - the caller's authenticated identity (from the secure-RPC ticket),
    - any restricted proxies presented (each contributing its grantor's
      authority, limited by its restrictions),
    - any group proxies presented (each proving membership in the groups
      its [Group_membership] restrictions name, at the server that granted
      it: {!Restriction.claimed_groups}),
    - compound ACL entries requiring several of the above to concur,
    - the server's accept-once replay cache, and
    - per-entry restrictions recorded in the ACL itself.

    Capabilities, centrally-administered authorization, and plain ACLs are
    all the same decision: a capability is a bearer proxy whose grantor the
    ACL names; delegating to an authorization server is one ACL entry naming
    that server.

    A bearer proxy proves possession once per session: its final proxy key
    signs or MACs a binding to this server and the ticket the request
    rides ({!present}, {!Presentation}), and the request's authenticator,
    which covers the payload, is the per-request proof ([Secure_rpc]). The
    guard checks the binding against the ticket the request rode
    ({!decide}'s [ticket]), memoized in its verify cache; restrictions,
    windows, revocation and accept-once run on every request. *)

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
    cache). The cache memoizes RSA checks, conventional-link opens and
    the decodes of {!decode_presented} only: every presentation still
    resolves each signer's key through
    [lookup_pub], so rebinding a principal to a new key denies chains
    signed under the old one, and still checks every window, revocation
    and restriction.
    [revocation] attaches local bulletin state: every verification then
    consults it ({!Verifier.verify}), and {!apply_bulletin} keeps it
    current. Without it the guard never revokes (the pre-bulletin
    behavior). *)

val me : t -> Principal.t
val acl : t -> Acl.t
val verify_cache : t -> Verify_cache.t
val revocation : t -> Revocation.t option

val accepted : t -> unit Expiring.t
(** The accept-once identifiers consumed here (Section 7.7), each tagged by
    its grantor. Like {!progress}, a table of guarantees: 131072 entries,
    each kept until the head certificate of the chain that carried it
    expires ({!Verifier.verified}'s [head_expires]), and evicting a live
    one ticks ["replay_cache.evictions"] and raises its grantor's floor
    ({!Expiring.lookup}). A presentation whose identifier reads
    [Forgotten] under its grantor is refused, as is one whose sequence
    progress does; another grantor's presentations are untouched. Both
    tables change only through {!apply_change}; these accessors are for
    reading them. *)

val progress : t -> int Expiring.t
(** The guard's {!Restriction.Sequence} progress: steps granted per
    presented chain head and sequence ({!Restriction.seq_key}), tagged by
    grantor (evictions tick ["seq_tracker.evictions"]). Each granted
    decision advances, by one step, every distinct sequence line it
    checked on the contributing chains (tallying
    ["seq_tracker.advances"]); {!apply_bulletin} sheds a freshly revoked
    grantor's progress alongside its accept-once records (tallying
    ["seq_tracker.shed"]). *)

(** A movement of the guard's server-side state, as data: an accept-once
    record with the expiry and grantor tag it was recorded under, or a
    sequence's new progress. *)
type change =
  | Accept_once of { id : string; expires : int; tag : string }
  | Seq_progress of { key : string; progress : int; expires : int; tag : string }

val set_journal : t -> (change -> unit) option -> unit
(** Install (or clear) the journal hook, fired with each change that moves
    a table, in the order it happens: a granted {!decide} consuming an
    accept-once identifier or advancing a sequence step, and
    {!import_seq_progress} accepting a forwarded step.
    {!Accounting_server} installs it to feed its replication journal. *)

val apply_change : t -> now:int -> change -> unit
(** Apply one change here, and journal it if it moved a table: the one
    path by which {!decide}, {!import_seq_progress} and a standby mirroring
    its primary move either table. An accept-once record keeps its expiry
    and tag, so {!apply_bulletin} sheds it like a record made here; one
    already live is left alone. Progress is max-monotone: a change at or
    behind a sequence's line leaves it alone, so re-applying a change is
    harmless and journals nothing. *)

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
    harmless. Tallies ["seq_tracker.imports"] and applies the change with
    {!apply_change}. *)

val apply_bulletin : t -> Revocation.bulletin -> (bool, string) result
(** Feed one signed bulletin to the guard's revocation state. [Ok true]
    means the epoch advanced; if the bulletin added coverage, the whole
    verify cache is cleared ({!Verify_cache.bump_generation}) so no cached
    signature or opened link of a revoked chain can be re-hit, and the
    accept-once replay
    records of every grantor newly killed by a [By_grantor_epoch] entry
    are shed ({!Expiring.shed}) — their credentials can no longer
    verify, and a re-issued credential reusing an identifier must not
    collide with the dead grant's record. [Ok false] means a replayed or
    out-of-order old bulletin was ignored. [Error] means the bulletin
    failed authentication, or no revocation state is configured. Metrics:
    ["revocation.bulletins_applied"], ["verify_cache.generation_bumps"],
    ["verify_cache.invalidations"], ["replay_cache.shed"]. *)

(** A proxy as a request carries it: its certificates plus, for a proxy
    with a key, the binding of that key to the session the request rides
    ({!Presentation}). The request's authenticator covers both, so neither
    can be swapped on the wire. *)
type presented = { pres : Proxy.presentation; pres_binding : string option }

val presented_to_wire : presented -> Wire.t
val presented_of_wire : Wire.t -> (presented, string) result

val decode_presented : t -> Wire.t -> (presented, string) result
(** {!presented_of_wire} as this guard receives it: each public-key
    certificate is decoded through the guard's verify cache
    ({!Verify_cache.decode_cert}), so a certificate it has verified and
    decoded before comes back as the same value, parsed and re-encoded
    nothing. A server decodes the presentations it hands to {!decide}
    this way. *)

val present : creds:Ticket.credentials -> Proxy.t -> presented
(** Client side: present [proxy] on requests made with [creds]. The binding
    names [creds]' service and ticket; it is made the first time this
    proxy key is presented with these credentials (one HMAC, or one RSA
    sign) and kept in them ([cred_bindings]), so every later request over
    the same ticket reuses it. A key-less proxy gets no binding. Client
    wrappers ([File_server.read], [Accounting_server.proxy_debit], ...)
    call this themselves. *)

val presentations : creds:Ticket.credentials -> Proxy.t list -> Wire.t
(** The wire list of [proxies] on a request made with [creds], each
    {!present}ed. *)

val bind : server:Principal.t -> ticket:string -> Proxy.t -> presented
(** {!present}'s binding, made afresh and kept nowhere, for a session named
    by its {!Ticket.digest} [ticket] at [server]: what a caller of
    {!decide} that makes no RPC presents. *)

type decision = {
  granted_by : Acl.entry;
      (** the ACL entry that granted, the first permitting one whose own
          restrictions pass: an authorization server copies its
          restrictions into the proxy it grants *)
  acting_for : Principal.t list;
      (** proxy grantors whose authority contributed *)
  via_groups : Principal.Group.t list;  (** memberships that contributed *)
  serials_used : string list;  (** certificate serials (audit trail) *)
  quotas : (Restriction.currency * int) list;
      (** the top-level [Quota] restrictions of the proxies that
          contributed *)
}

val decide :
  t ->
  operation:string ->
  ?target:string ->
  ?presenter:Principal.t ->
  ?extra_presenters:Principal.t list ->
  ?ticket:string ->
  ?proxies:presented list ->
  ?group_proxies:presented list ->
  ?spend:string * int ->
  unit ->
  (decision, string) result
(** Evaluate one request. [ticket] is the {!Ticket.digest} of the ticket
    the request rode ([Secure_rpc.server_context]'s [rpc_ticket]): a bearer
    proxy contributes only if its binding names this server and that
    ticket, and with no [ticket] no bearer proxy contributes. A binding's
    check is memoized in the verify cache, so after the first request
    over a ticket it costs one lookup; the chain's windows, restrictions
    and revocation still run on every request.

    Each presented proxy is verified once ({!Verifier.verify}) and then
    authorized ({!Verifier.authorize}) once per question it answers. A
    group proxy answers one per group it claims
    ({!Restriction.claimed_groups}): an {!Restriction.assert_membership}
    request on that group's local name, which, if granted, asserts the
    group at the proxy's grantor. A regular proxy answers the request
    itself, with those groups as its [groups_asserted], and contributes its
    grantor. The first ACL entry that the presenters, the contributing
    grantors and the asserted groups satisfy, and whose own restrictions
    pass, grants the request ({!Acl.permitting}); when every such entry's
    restrictions refuse, the first one's refusal is the reason. When no
    entry is satisfied and no regular proxy contributed, the denial names
    the first refusal of a regular proxy, or, when no group was asserted
    either, of a group proxy:
    ["... (no presented proxy was usable: <why>)"].

    Each [Accept_once] and [Sequence] that applies here
    ({!Restriction.check_all}), on every presented chain, group proxies
    included, costs one {!Expiring.lookup} in {!accepted} or {!progress},
    before the proof of possession: a live record is a replay, or the
    step the request must match; a [Forgotten] one is refused; an absent
    one passes. On success the decision writes what it checked, for the
    chains that contributed: a second presentation of the same check
    bounces, and each distinct sequence line advances one step. The ACL
    entry's own restrictions keep no records ({!Restriction.no_state}).

    On a traced net ({!Sim.Net.spans}) each decision is a ["guard.decide"]
    span with attributes [operation] and [target]; a grant adds
    [presenter] (["<anonymous>"] without one), [granted_by] (the entry's
    subject, as {!Acl.pp_subject} prints it) and [acting_for] (the
    contributing grantors, comma-separated, empty when none); last comes
    [verdict], ["grant"] or ["deny"]. An untraced decision formats none of
    them, and no decision writes to the audit trail ({!Sim.Trace}). *)

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
    credentials' restrictions forbid, whoever else vouches for it. No
    record is kept for credentials ({!Restriction.no_state}): an
    [Accept_once] or [Sequence] among them refuses the request. *)
