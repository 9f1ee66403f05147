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
  unit ->
  (t, string) result
(** [signing_key] signs endorsements, certification proxies, and cashier's
    checks; [lookup] resolves account owners' and peer servers' public
    keys. [collect_retry] governs the inter-bank [collect] hop during check
    clearing: without it a transiently lost collect response strands money
    debited at the drawee; with it the hop retransmits (same authenticator,
    so the remote response cache fires the collect exactly once).
    [revocation] attaches local bulletin state to the guard, so checks
    drawn by revoked grantors bounce (see {!Guard.create}). What the server
    signs (endorsements, certification proxies, cashier's checks) lives 24
    hours. *)

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

(** {2 Requests}

    One constructor per verb. {!request_to_wire} lays each out once, as [L
    [S verb; fields...]] in constructor order; {!request_of_wire} accepts
    exactly those shapes and refuses any other ("accounting: malformed
    <verb> request", "accounting: unknown operation ..."). *)
type request =
  | Open_account of { name : string }
  | Balance of { name : string; currency : string }
  | Transfer of { from_ : string; to_ : string; currency : string; amount : int }
  | Deposit of { check : Check.t; to_account : string }
  | Collect of Check.t  (** a bank forwards a check toward its drawee *)
  | Certify of Check.t
  | Cashier of { from_account : string; payee : Principal.t; currency : string; amount : int }
  | Seq_advance of { key : string; progress : int; expires : int; tag : string }
  | Proxy_draw of {
      release : bool;  (** ["proxy-release"] when true, else ["proxy-debit"] *)
      presented : Guard.presented;
      payor_account : string;
      account : string;
      currency : string;
      amount : int;
    }
  | Apply_bulletin of Revocation.bulletin  (** passes a standby's promotion gate *)

val request_to_wire : request -> Wire.t
val request_of_wire : Wire.t -> (request, string) result

val handle :
  t -> Secure_rpc.server_context -> request -> (Wire.t, string) result
(** The handler behind {!install} (which decodes first), exposed so shards
    can wrap it (promotion gating, replication taps) and register it under
    a physical node name via {!Secure_rpc.serve}. *)

val settle : t -> presenter:Principal.t -> Check.t -> (int, string) result
(** Clear a presented check at this server: if it is drawn on an account
    held here, validate the endorsement chain and debit (the "collect"
    verb's local leg); otherwise endorse it onward to the configured route
    and forward a collect. Exposed so lane schedulers can run the clearing
    leg at an epoch boundary, where the presenting bank lives in another
    lane and the RPC transport cannot span lanes. Returns the amount paid. *)

val add_redemption_observer : t -> (string -> unit) -> unit
(** Add an observer fired with the check number each time a check is paid
    here, after those added before it: a scenario's redemption counter.
    Replication does not read it ({!set_journal}). *)

(** {2 Replication} *)

(** One movement of the state a replica mirrors: a ledger primitive, an
    accept-once record or sequence step of the guard
    ({!Guard.change}), or a grant's new running total of presented-proxy
    draws (its key and total). *)
type change = Ledger of Ledger.op | Guard of Guard.change | Drawn of string * int

val set_journal : t -> (change -> unit) option -> unit
(** Install (or clear) the journal hook, fired with every change in the
    order the changes happen here, whichever handler, client or direct
    {!ledger} call made them. A cluster primary's hook feeds its standby. *)

val change_to_wire : change -> Wire.t
val change_of_wire : Wire.t -> (change, string) result

val apply_replicated : t -> change list -> (unit, string) result
(** Standby side of replication: apply the primary's changes in order,
    without re-running any handler. An [Op_open] also installs the
    owner's ACL entry; an accept-once record keeps the primary's expiry
    and grantor tag, so a grantor-epoch bulletin sheds it here too;
    progress is max-monotone and a total is overwritten, so re-applying
    either is harmless. [Error] when a ledger op does not apply (the
    replica diverged). *)

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

(** {3 Presented-proxy draws}

    A delegate proxy whose chain authorizes ["debit"] on an account here
    (a standing authority, {!Standing}) is drawn on by two verbs:
    ["proxy-debit"] moves funds out of the account into one the caller
    owns, and ["proxy-release"] moves them back. Each request runs exactly
    one {!Guard.decide}. The server keeps a running total per grant and
    currency: the grant is the chain's head certificate (its grantor and
    serial for public-key and hybrid chains, its first sealed certificate
    for conventional ones), so every chain derived from one grant, its
    holder's re-delegations included, shares one budget. A draw's decision
    spends the running total plus the amount, so each Quota on the chain
    caps the cumulative draw. A Quota bounds only its own currency, so a
    draw in a currency that no Quota on the contributing chain names is
    refused (every {!Standing.grant} carries one); a release may not return
    more than is drawn.
    A request the decision grants without the presented proxy (on the
    caller's own rights) is refused, so nobody moves a grant's total by
    presenting copied certificates. Each new total is a journalled
    {!change}, so a standby keeps counting where its primary stopped. *)

val proxy_debit :
  ?retry:Sim.Retry.policy -> ?via:string list ->
  Sim.Net.t ->
  creds:Ticket.credentials ->
  proxy:Proxy.t ->
  payor_account:string ->
  to_account:string ->
  currency:string ->
  amount:int ->
  (int, string) result
(** Draw [amount] of [currency] from [payor_account], authorized by
    [proxy] ({!Guard.present}ed with [creds]), into [to_account], owned by
    the caller (the ["proxy-debit"] verb). Returns the grant's new running
    total. A stateful {!Restriction.Sequence} on the chain advances once
    per granted draw. *)

val standing_debit :
  Sim.Net.t ->
  creds:Ticket.credentials ->
  authority:Standing.t ->
  to_account:string ->
  amount:int ->
  (int, string) result
(** {!proxy_debit} on a standing authority: the resource server (the
    caller) draws [amount] of the authority's currency from the grantor's
    account into [to_account]. Returns the new running total. *)

val standing_release :
  Sim.Net.t ->
  creds:Ticket.credentials ->
  authority:Standing.t ->
  from_account:string ->
  amount:int ->
  (int, string) result
(** Quota release (the ["proxy-release"] verb): return [amount] from
    [from_account], owned by the caller, to the grantor and lower the
    running total. Returns the new running total. *)

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
