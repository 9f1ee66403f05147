(** End-server verification of presented proxies.

    Walks the certificate chain (Figure 4), accumulating restrictions
    additively and recovering the final proxy-key commitment, then
    {!authorize} evaluates the accumulated restrictions against the request
    and demands the right kind of proof: possession of the proxy key for a
    bearer proxy, authenticated presenter identity for a delegate proxy.

    Verification is offline — no message to any authentication server — in
    contrast to Sollins's cascaded authentication, which is the comparison
    the paper draws in Section 3.4 and that [proxykit bench f4] measures. *)

(** What the verifier learns from the opaque base credentials (the
    grantor's ticket for this server); supplied by the server glue since the
    core stays independent of the KDC. *)
type base_info = {
  base_client : Principal.t;
  base_session_key : string;
  base_expires : int;
  base_restrictions : Restriction.t list;
      (** restrictions already attached to the base credentials *)
}

type verified = {
  grantor : Principal.t;  (** the authority at the head of the chain *)
  restrictions : Restriction.t list;  (** the full, additive set *)
  expires : int;  (** the tightest expiry along the chain *)
  commitment : Presentation.commitment;
  chain_length : int;
  serials : string list;  (** certificate serials, head first (audit) *)
}

type span_hook = { wrap : 'a. name:string -> attrs:(string * string) list -> (unit -> 'a) -> 'a }
(** Abstract per-certificate instrumentation: the verifier calls
    [wrap ~name:"verify.cert" ~attrs] around each link of the chain (attrs
    carry the flavor, chain index, and serial). The core has no simulation
    dependency; [Authz.Guard] passes a wrapper that opens a [Sim.Span]
    child so each certificate's RSA/cache cost lands on its own span. *)

val verify_conventional :
  open_base:(string -> (base_info, string) result) ->
  ?tally:(string -> unit) ->
  ?cache:Verify_cache.t ->
  ?revocation:Revocation.t ->
  ?hook:span_hook ->
  now:int ->
  Proxy.conventional_chain ->
  (verified, string) result
(** [open_base] opens the base ticket and meters that open itself: a
    server's open may be answered from its table of opened tickets
    ({!Ticket.open_held} in [Authz.Guard]). Each certificate is opened
    under the previous key, from the base session key, and each open
    tallies ["crypto.open"]; with [cache], an open remembered for this
    exact blob under this exact key tallies ["verify_cache.hits"] instead
    ({!Verify_cache.find_link}). Windows, revocation and the head-grantor
    check run on every link of every presentation, and the base ticket's
    expiry once per presentation. *)

val verify_pk :
  lookup:(Principal.t -> Crypto.Rsa.public option) ->
  ?tally:(string -> unit) ->
  ?cache:Verify_cache.t ->
  ?revocation:Revocation.t ->
  ?hook:span_hook ->
  now:int ->
  Proxy_cert.pk_cert list ->
  (verified, string) result
(** Chain rules: the head certificate must be signed by the grantor's
    long-term key; later certificates are signed either with the previous
    proxy key (bearer cascade) or by a named principal that the previous
    certificate listed as a grantee (delegate cascade — enforcing the
    paper's audit-trail discipline). A delegate-cascade signature
    {e discharges} the Grantee restriction it exercised: a check endorsed
    from payee to bank no longer requires the payee among the final
    presenters, only the endorsement target. Every link's signer key is
    resolved through [lookup] on every presentation, cached or not, so a
    chain signed by a key the directory no longer binds is refused.

    Key-less certificates ({!Proxy_cert.keyless_names_grantee}): one that
    names no grantee is refused, and so is a proxy-key signature on the
    certificate after one (there is no key to verify it with). A chain
    ending in a key-less certificate commits to no proxy key
    ([Presentation.No_commit]); its final restrictions carry that
    certificate's grantees, so it authorizes only as a delegate proxy. *)

val verify_hybrid :
  lookup:(Principal.t -> Crypto.Rsa.public option) ->
  decrypt:(string -> string option) ->
  ?me:Principal.t ->
  ?tally:(string -> unit) ->
  ?cache:Verify_cache.t ->
  ?revocation:Revocation.t ->
  ?hook:span_hook ->
  now:int ->
  Proxy_cert.hybrid_cert * string list ->
  (verified, string) result
(** Section 6.1 hybrid: validate the grantor's signature, recover the
    symmetric proxy key with the server's RSA [decrypt], then walk any
    cascade certificates conventionally. When [me] is given, the
    certificate must name this server. *)

val verify :
  open_base:(string -> (base_info, string) result) ->
  lookup:(Principal.t -> Crypto.Rsa.public option) ->
  ?decrypt:(string -> string option) ->
  ?me:Principal.t ->
  ?tally:(string -> unit) ->
  ?cache:Verify_cache.t ->
  ?revocation:Revocation.t ->
  ?hook:span_hook ->
  now:int ->
  Proxy.presentation ->
  (verified, string) result
(** Dispatch on the presentation's flavor. Hybrid presentations require
    [decrypt] (the default refuses them). When [cache] is given, successful
    RSA signature verifications and conventional-link opens (the
    conventional chain and a hybrid's cascade tail) are memoized
    ({!Verify_cache}): a cache hit tallies ["verify_cache.hits"] instead of
    ["crypto.rsa_verify"] or ["crypto.open"], a miss tallies both
    ["verify_cache.misses"] and the usual crypto counter — so the
    cache-miss metering is exactly the uncached metering. Time windows,
    restrictions, proofs and signer-key lookups are never cached: a
    signature verdict is keyed by the key [lookup] returns now, so a chain
    signed by a key its principal no longer holds misses and fails its RSA
    check, and a link by the key it is sealed under, so blobs moved under
    another base ticket miss and fail their open.

    When [revocation] is given, every certificate body on the walk is
    checked against the local bulletin state (tallying
    ["revocation.denials"] on a hit), and a chain is refused outright —
    tallying ["revocation.stale_denials"] — when that state is stale past
    its bound (fail closed). Like windows and restrictions, revocation is
    re-checked on {e every} presentation: the verify cache never shields a
    revoked link. *)

val authorize :
  verified ->
  req:Restriction.request ->
  proof:Presentation.proof option ->
  max_skew:int ->
  (unit, string) result
(** Full decision: expiry, every restriction, and the flavor-appropriate
    proof. A bearer proxy without a valid proof of possession is refused; a
    delegate proxy is refused unless the grantee quorum is among the
    authenticated presenters (which {!Restriction.check} enforces via the
    [Grantee] restriction). *)

val lookup_by_realm :
  (string * (Principal.t -> Crypto.Rsa.public option)) list ->
  Principal.t ->
  Crypto.Rsa.public option
(** Compose per-realm public-key directories into one [lookup] for
    {!verify_pk}/{!verify}: each principal resolves against its home
    realm's directory, and a principal from a realm with no route answers
    [None] (the verifier then refuses the chain — fail closed, never
    fall through to another realm's keys). *)
