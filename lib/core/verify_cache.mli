(** Bounded memo cache for successful signature verifications.

    A depth-k public-key cascade (Figure 4) presented N times costs N*k RSA
    verifications at the end server; since certificates are immutable bytes
    and verification is deterministic, k of those suffice. The cache
    remembers {e (signed bytes, signature, verifying key)} triples — hashed
    together into one key — that verified successfully, so re-presentations
    skip straight to the cheap checks. It is the only verification memo in
    the stack; M holders sharing a depth-k prefix cost k+M RSA verifies.

    What is deliberately {e not} cached:

    - the signer's key — the verifier resolves it on every presentation and
      it is part of the cache key, so once the directory rebinds a
      principal to a new key, a chain signed under the old one misses and
      fails its RSA check;
    - certificate time windows and restriction checks — they depend on the
      request and the current time, so the verifier re-runs them on every
      presentation, cached or not; an expired certificate is refused even
      when its signature is remembered;
    - failures — a tampered certificate hashes to a different key, misses,
      and fails the real verification every time.

    Entries live in one {!Expiring} table, expiring [ttl_us] after they are
    recorded (defaulting to [Pki.Resolver]'s TTL): a cached verification
    asserts "this key signed these bytes", and the binding of that key to a
    principal is only as fresh as the resolver's cache, so both expire on
    the same clock. The table's rule decides what goes under capacity
    pressure: expired entries are purged first, then the soonest-expiring
    entry is evicted.

    {b Revocation does not wait for the TTL.} When a revocation bulletin
    applies ([Authz.Guard]), the holder calls {!bump_generation}, which
    drops every entry — the next presentation re-runs the full signature
    walk, where the verifier's revocation check refuses the revoked link.
    (Even a stale entry that somehow survived would not grant access: the
    verifier re-checks time windows, restrictions, {e and} revocation on
    every presentation; the cache only memoizes the RSA operation.)

    Hit/miss/eviction/invalidation totals are kept here and callers (e.g.
    [Authz.Guard]) mirror them into [Sim.Metrics]. *)

type t

type stats = { hits : int; misses : int; evictions : int; invalidations : int; size : int }

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
    creates a {e disabled} cache that keeps no table: {!check} always
    misses and {!record} is a no-op — differential tests use it to run
    identical guard wiring with caching off. *)

val key : signed_bytes:string -> signature:string -> signer:string -> string
(** Cache key for a verification: SHA-256 over the length-framed signed
    bytes, signature, and serialized verifying key. *)

val check : t -> now:int -> string -> bool
(** [check t ~now key] is [true] when this verification succeeded before
    and the entry is still within its TTL. Counts a hit or a miss; an
    expired entry is dropped and counts as a miss. *)

val record : t -> now:int -> string -> unit
(** Remember a successful verification until [now + ttl_us], by the
    {!Expiring} rule: a new key first purges expired entries, then evicts
    the soonest-expiring one if the table is still full; re-recording a
    live key refreshes its TTL and evicts nothing. Only call on success. *)

val bump_generation : t -> int
(** Drop every entry, counting each as an invalidation, and return how
    many were dropped. This is the revocation path: cache keys are one-way
    hashes, so a revoked link cannot be mapped back to the dependent
    entries — the bulletin holder drops everything and lets honest traffic
    repopulate the cache. *)

val stats : t -> stats
val size : t -> int
