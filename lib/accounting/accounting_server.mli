(** The distributed accounting service (paper Section 4, Figure 5).

    Each server keeps a {!Ledger} of multi-currency accounts guarded by the
    same ACL machinery end-servers use: opening an account installs an entry
    permitting its owner to debit it, so a check — a delegate proxy whose
    grantor is the owner — clears through the ordinary proxy-verification
    path, with accept-once (the check number), quota (the face value), and
    issued-for (this server) restrictions enforced by the guard.

    Clearing follows Figure 5: the payee endorses the check to its own
    server and deposits it; a server that is not the drawee endorses onward
    and forwards a [collect] to the next hop (configurable routes model
    longer intermediary chains); the drawee validates the whole endorsement
    chain offline and debits the payor. Certified checks place a hold and
    return a certification proxy signed by the server; cashier's checks are
    drawn by the server on its own escrow account. *)

type t

val create :
  Sim.Net.t ->
  me:Principal.t ->
  my_key:string ->
  kdc:Principal.t ->
  signing_key:Crypto.Rsa.private_ ->
  lookup:(Principal.t -> Crypto.Rsa.public option) ->
  ?collect_retry:Sim.Retry.policy ->
  ?verify_cache:Verify_cache.t ->
  ?revocation:Revocation.t ->
  ?proxy_lifetime_us:int ->
  unit ->
  (t, string) result
(** [signing_key] signs endorsements, certification proxies, and cashier's
    checks; [lookup] resolves account owners' and peer servers' public
    keys. [collect_retry] governs the inter-bank [collect] hop during check
    clearing: without it a transiently lost collect response strands money
    debited at the drawee; with it the hop retransmits (same authenticator,
    so the remote response cache fires the collect exactly once).
    [revocation] attaches local bulletin state to the guard, so checks
    drawn by revoked grantors bounce (see {!Guard.create}). *)

val install : t -> unit
val me : t -> Principal.t

val guard : t -> Guard.t
(** The underlying guard — e.g. to read its revocation state or caches. *)

val apply_bulletin : t -> Revocation.bulletin -> (bool, string) result
(** Feed a revocation bulletin to this server's guard (local delivery —
    the cluster replication path uses this to reach a standby directly).
    [Ok true] when the guard's epoch advanced; see {!Guard.apply_bulletin}. *)

val ledger : t -> Ledger.t
(** Direct ledger access for provisioning (minting resource currencies). *)

val account : t -> string -> Principal.Account.t
(** Global name of a local account. *)

val set_route :
  t -> drawee:Principal.t -> ?via:string list -> next_hop:Principal.t -> unit -> unit
(** Forward checks drawn on [drawee] via [next_hop] (default: directly).
    [via] optionally lists the physical network destinations for the hop —
    a sharded bank's primary and standby replicas; the endorsement still
    names the logical [next_hop], and the transport fails over between the
    replicas (see {!Secure_rpc.call}). *)

val warm : t -> drawee:Principal.t -> (unit, string) result
(** Pre-fetch this server's credentials for the hop that clears checks
    drawn on [drawee], so no KDC exchange happens on the clearing path
    later — a standby warms its routes before any fault plan goes in. *)

val handle :
  t -> Secure_rpc.server_context -> Wire.t -> (Wire.t, string) result
(** The request handler behind {!install}, exposed so cluster shards can
    wrap it (promotion gating, replication taps) and register it under a
    physical node name via {!Secure_rpc.serve}. *)

val settle : t -> presenter:Principal.t -> Check.t -> (int, string) result
(** Clear a presented check at this server: if it is drawn on an account
    held here, validate the endorsement chain and debit (the "collect"
    verb's local leg); otherwise endorse it onward to the configured route
    and forward a collect. Exposed so lane schedulers can run the clearing
    leg at an epoch boundary, where the presenting bank lives in another
    lane and the RPC transport cannot span lanes. Returns the amount paid. *)

val add_redemption_observer : t -> (string -> unit) -> unit
(** Add an observer fired with the check number each time a check is paid
    here, after those added before it. Observers compose: a counter added
    later never displaces the replication feed that mirrors accept-once
    records to a standby. *)

val apply_replicated :
  t ->
  ?seq:(string * int * int * string) list ->
  ops:Ledger.op list ->
  redeemed:string list ->
  unit ->
  (unit, string) result
(** Standby side of replication: replay the primary's journalled ledger
    ops (mirroring the ACL entry an [Op_open] installs) and record redeemed
    check numbers in the guard's accept-once cache, without re-running any
    handler. [seq] mirrors the primary's sequence-progress movements as
    [(key, progress, expires, grantor-tag)] entries straight into the
    guard's {!Seq_tracker} (max-monotone, so re-application is harmless).
    Standing-authority cumulative draws are not replicated. *)

(** {2 Client operations} — each an authenticated exchange. [creds] are the
    caller's credentials for the accounting server. [?retry] and [?via],
    where an operation takes them, are {!Secure_rpc.call}'s retry policy
    and ordered replica list; [?on_failover] is its fail-over callback. A
    retransmission reuses the same authenticator, so the server's response
    cache makes the ledger mutation exactly-once however often the message
    is re-sent. *)

val open_account :
  ?retry:Sim.Retry.policy -> ?via:string list ->
  ?on_failover:(from_:string -> to_:string -> unit) ->
  Sim.Net.t -> creds:Ticket.credentials ->
  name:string -> (unit, string) result

val balance :
  ?retry:Sim.Retry.policy -> ?via:string list ->
  ?on_failover:(from_:string -> to_:string -> unit) ->
  Sim.Net.t -> creds:Ticket.credentials ->
  name:string -> currency:string ->
  (int * int, string) result
(** Owner only; returns (available, held). *)

val transfer :
  ?retry:Sim.Retry.policy -> ?via:string list ->
  ?on_failover:(from_:string -> to_:string -> unit) ->
  Sim.Net.t ->
  creds:Ticket.credentials ->
  from_:string ->
  to_:string ->
  currency:string ->
  amount:int ->
  (unit, string) result
(** Local transfer between two accounts on this server (cross-server
    movement travels by check). *)

val deposit :
  ?retry:Sim.Retry.policy -> ?via:string list ->
  ?on_failover:(from_:string -> to_:string -> unit) ->
  Sim.Net.t ->
  creds:Ticket.credentials ->
  endorser_key:Crypto.Rsa.private_ ->
  check:Check.t ->
  to_account:string ->
  (int, string) result
(** Endorse the check to the bank named by [creds] and deposit it into
    [to_account]; returns the amount credited once the check has cleared all
    the way to the drawee. A bounced check (insufficient funds, forged or
    duplicate number) is an [Error] and credits nothing. *)

val certify :
  Sim.Net.t ->
  creds:Ticket.credentials ->
  check:Check.t ->
  (Proxy.t, string) result
(** Place a hold covering [check] (which the caller has drawn on its account
    at this server) and return the certification proxy asserting that funds
    are guaranteed. *)

val cashier_check :
  Sim.Net.t ->
  creds:Ticket.credentials ->
  from_account:string ->
  payee:Principal.t ->
  currency:string ->
  amount:int ->
  (Check.t, string) result
(** Pay now, receive a check drawn by the server itself on its escrow
    account — trusted because the server is its own drawee. *)

val standing_debit :
  Sim.Net.t ->
  creds:Ticket.credentials ->
  authority:Standing.t ->
  to_account:string ->
  amount:int ->
  (int, string) result
(** Resource-server side of quota allocation: draw [amount] of the
    authority's currency from the grantor's account into [to_account]
    (owned by the caller). The accounting server tracks the cumulative draw
    per authority and refuses to exceed its quota. Returns the new
    cumulative total. *)

val standing_release :
  Sim.Net.t ->
  creds:Ticket.credentials ->
  authority:Standing.t ->
  from_account:string ->
  amount:int ->
  (int, string) result
(** Quota release: return funds from [from_account] to the grantor and
    lower the cumulative draw. Returns the new cumulative total. *)

val proxy_transfer :
  ?retry:Sim.Retry.policy -> ?via:string list ->
  Sim.Net.t ->
  creds:Ticket.credentials ->
  presented:Guard.presented ->
  payor_account:string ->
  to_account:string ->
  currency:string ->
  amount:int ->
  (int, string) result
(** Move [amount] from [payor_account] (authorized by the presented
    delegate-proxy chain — the guard checks "debit" on it) into
    [to_account], owned by the caller. Exactly one guard decision runs per
    executed request, so a stateful {!Restriction.Sequence} on the chain
    advances exactly once per grant — use this, not the double-decision
    ["proxy-debit"] probe, for sequence-gated draws. Returns the amount
    moved. *)

val seq_advance :
  ?retry:Sim.Retry.policy -> ?via:string list ->
  Sim.Net.t ->
  creds:Ticket.credentials ->
  key:string ->
  progress:int ->
  expires:int ->
  tag:string ->
  (unit, string) result
(** Hand sequence progress to this server (the ["seq-advance"] verb): the
    glue a {!Guard.set_seq_forward} hook calls when a sequence's next step
    lives here. The server validates the push with
    {!Guard.import_seq_progress} — the caller must be the server that ran
    the attested step. *)

val push_bulletin :
  ?via:string list ->
  Sim.Net.t ->
  creds:Ticket.credentials ->
  Revocation.bulletin ->
  (bool, string) result
(** Push a revocation bulletin to the server (the ["apply-bulletin"] verb).
    Bulletins are self-authenticating — the guard verifies the authority's
    signature — so any authenticated caller may deliver one; a forged or
    foreign bulletin is refused by the guard, not the transport. [Ok true]
    when the server's epoch advanced. *)

val verify_certification :
  lookup:(Principal.t -> Crypto.Rsa.public option) ->
  now:int ->
  server:Principal.t ->
  check_number:string ->
  Proxy.t ->
  (unit, string) result
(** End-server side: check that a certification proxy really was issued by
    [server] for [check_number] and is still valid. *)

val escrow_account : string
