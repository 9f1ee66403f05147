(** Bounded memo cache for successful verification steps.

    Certificates are immutable bytes and checking them is deterministic,
    so a holder that has checked a certificate once need not redo the
    expensive part when the same bytes come back. Two kinds of step are
    remembered, each keyed by the exact bytes it read:

    - {e signature verdicts}: a depth-k public-key cascade (Figure 4)
      presented N times costs N*k RSA verifications at the end server
      without the cache and k with it; M holders sharing a depth-k prefix
      cost k+M. The key is the length-framed (signed bytes, signature,
      verifying key) string itself;
    - {e opened conventional links}: a conventional certificate is an AEAD
      box under the previous proxy key (the base session key for the
      head), and opening it costs a key preparation (8 SHA-256
      compressions), a MAC over the box and a decode. The key is the
      length-framed sealing key followed by the exact certificate blob;
      the value is the certificate body and the next proxy key it
      carries.

    A one-byte tag starts each key, so a link key can never equal a
    signature key. Keys are the bytes themselves, not a digest: hashing a
    250-byte blob would take 5 SHA-256 compressions, over half of what a
    preparation costs.

    What is deliberately {e not} cached:

    - the signer's key — the verifier resolves it on every presentation and
      it is part of the cache key, so once the directory rebinds a
      principal to a new key, a chain signed under the old one misses and
      fails its RSA check;
    - the chain a link sits in — the sealing key is part of the link key,
      so certificate blobs re-presented under another base ticket (another
      session key) miss and fail their open;
    - certificate time windows, revocation and restriction checks — they
      depend on the request, the current time and the bulletin state, so
      the verifier re-runs them on every presentation, cached or not; an
      expired certificate is refused even when its signature or its open
      is remembered;
    - failures — a tampered certificate is a different key, misses, and
      fails the real verification every time.

    Entries live in one {!Expiring} table, expiring [ttl_us] after they are
    recorded (defaulting to [Pki.Resolver]'s TTL): a cached verification
    asserts "this key signed these bytes", and the binding of that key to a
    principal is only as fresh as the resolver's cache, so both expire on
    the same clock. The table's rule decides what goes under capacity
    pressure: expired entries are purged first, then the soonest-expiring
    entry is evicted.

    {b Revocation does not wait for the TTL.} When a revocation bulletin
    applies ([Authz.Guard]), the holder calls {!bump_generation}, which
    drops every entry of both kinds — the next presentation re-runs the
    full walk, where the verifier's revocation check refuses the revoked
    link. (Even a stale entry that somehow survived would not grant
    access: the verifier re-checks time windows, restrictions, {e and}
    revocation on every presentation; the cache only memoizes the RSA
    operation or the AEAD open.)

    Hit/miss/eviction/invalidation totals are kept here and callers (e.g.
    [Authz.Guard]) mirror them into [Sim.Metrics]. *)

type t

type stats = {
  hits : int;  (** of both kinds *)
  link_hits : int;  (** the hits that answered a conventional-link open *)
  misses : int;
  evictions : int;
  invalidations : int;
  size : int;
}

val create :
  ?capacity:int ->
  ?ttl_us:int ->
  ?on_evict:(unit -> unit) ->
  ?on_invalidate:(unit -> unit) ->
  unit ->
  t
(** Defaults: capacity 1024 entries, TTL one simulated hour. [on_evict]
    fires once per capacity eviction (not on TTL expiry); [on_invalidate]
    fires once per entry dropped by {!bump_generation}. A [capacity] of 0
    creates a {e disabled} cache that keeps no table: {!check} and
    {!find_link} always miss and {!record} and {!record_link} are no-ops —
    differential tests use it to run identical guard wiring with caching
    off. *)

val key : signed_bytes:string -> signature:string -> signer:string -> string
(** Cache key for a signature verdict: a tag, then the length-framed
    signed bytes, signature and serialized verifying key, as they are. *)

val check : t -> now:int -> string -> bool
(** [check t ~now key] is [true] when this verification succeeded before
    and the entry is still within its TTL. Counts a hit or a miss; an
    expired entry is dropped and counts as a miss. *)

val record : t -> now:int -> string -> unit
(** Remember a successful verification until [now + ttl_us], by the
    {!Expiring} rule: a new key first purges expired entries, then evicts
    the soonest-expiring one if the table is still full; re-recording a
    live key refreshes its TTL and evicts nothing. Only call on success. *)

val find_link :
  t -> now:int -> sealing_key:string -> string -> (Proxy_cert.body * string) option
(** What {!Proxy_cert.open_conventional} gave for this exact blob under
    this exact sealing key, if it opened before and the entry is within
    its TTL. Counts a hit (and a link hit) or a miss, as {!check} does. *)

val record_link :
  t -> now:int -> sealing_key:string -> string -> Proxy_cert.body * string -> unit
(** Remember a successful open, by the same rule as {!record}. Only call
    on success. *)

val bump_generation : t -> int
(** Drop every entry, counting each as an invalidation, and return how
    many were dropped. This is the revocation path: the cache cannot tell
    which entries depend on a revoked link (a sealed link names no serial
    until it is opened), so the bulletin holder drops everything and lets
    honest traffic repopulate the cache. *)

val stats : t -> stats
val size : t -> int
