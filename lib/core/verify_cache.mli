(** Bounded memo cache for successful verification steps.

    Certificates are immutable bytes and checking them is deterministic,
    so a holder that has checked a certificate once need not redo the
    expensive part when the same bytes come back. Three kinds of step are
    remembered:

    - {e signature verdicts}: a depth-k public-key cascade (Figure 4)
      presented N times costs N*k RSA verifications at the end server
      without the cache and k with it; M holders sharing a depth-k prefix
      cost k+M. A verdict is found by its signature, and it holds the
      bytes the signature was checked over and the verifying key's bytes
      (the very string the key carries, not a copy). A hit needs both to
      be equal to what is presented now, so it is the same test as a key
      made of all three, with only the signature to hash;
    - {e binding verdicts}: a session binding ({!Presentation}) rides every
      request over its ticket, so it is checked once, by an RSA verify or
      an HMAC (about 5 SHA-256 compressions), and answered from here
      after. It is found by the binding and holds what the binding binds:
      the server, the ticket digest and the verifying key (the RSA public
      key's bytes or the symmetric proxy key). A hit compares those three,
      so it is the same test as comparing the signed bytes
      ({!Presentation.signed_bytes}), which are encoded only on a miss;
    - {e opened conventional links}: a conventional certificate is an AEAD
      box under the previous proxy key (the base session key for the
      head), and opening it costs a key preparation (4 SHA-256
      compressions), a ChaCha20-Poly1305 open of the box and a decode.
      It is found by the box's 16-byte Poly1305 tag and holds the sealing
      key and the exact box, with the certificate body and the next proxy
      key opening it gave. A hit compares the sealing key and the box, so
      it is the same test as a key made of both.

    A one-byte tag starts each key, so keys of different kinds can never
    be equal. A key is never a digest: hashing a 250-byte blob would take
    5 SHA-256 compressions, more than a preparation costs. Whoever holds a
    key can steer a Poly1305 tag, so two boxes can share one: the later
    replaces the earlier, and the earlier then misses and is opened again.

    {b Decoded certificates.} A guard decodes the public-key certificates
    it is handed through its cache ({!decode_cert}). The first time it
    decodes one whose signature has a verdict over the same signed bytes,
    the verdict keeps the decoded certificate and the wire value it came
    from; a later wire value equal to that one decodes to that very
    certificate, with nothing parsed, and {!check_cert} knows it by
    identity, re-encoding nothing. A certificate decoded any other way
    ({!Proxy_cert.pk_cert_of_wire}) is never kept.

    What is deliberately {e not} cached:

    - the signer's key — the verifier resolves it on every presentation and
      every hit compares it, so once the directory rebinds a principal to
      a new key, a chain signed under the old one misses and fails its RSA
      check;
    - the chain a link sits in — the sealing key is part of the link key,
      so certificate blobs re-presented under another base ticket (another
      session key) miss and fail their open;
    - certificate time windows, revocation and restriction checks — they
      depend on the request, the current time and the bulletin state, so
      the verifier re-runs them on every presentation, cached or not; an
      expired certificate is refused even when its signature or its open
      is remembered;
    - failures — a tampered certificate misses (its signature is not
      found, or is found over other bytes) and fails the real
      verification every time; a certificate that copies a remembered
      signature onto another body does too, and leaves the genuine
      verdict in place, and so does a link box that carries a remembered
      box's tag over other bytes;
    - spent chains — a public-key or hybrid chain whose grant consumed an
      accept-once identifier one of its readable certificates names keeps
      no entry from that certificate on ({!forget}): a guard refuses every
      later presentation of it from its accept-once table, before any
      lookup here, so such an entry could never be read. A paid check
      keeps none of its verdicts.

    Entries live in one {!Expiring} table, expiring one simulated hour
    after they are recorded ([Pki.Resolver]'s TTL): a cached verification
    asserts "this key signed these bytes", and the binding of that key to a
    principal is only as fresh as the resolver's cache, so both expire on
    the same clock. The table's rule decides what goes under capacity
    pressure: expired entries are purged first, then the soonest-expiring
    entry is evicted.

    {b Revocation does not wait for the TTL.} When a revocation bulletin
    applies ([Authz.Guard]), the holder calls {!bump_generation}, which
    drops every entry of every kind, decoded certificates with their
    verdicts — the next presentation re-runs the full walk, where the
    verifier's revocation check refuses the revoked link. (Even a stale
    entry that somehow survived would not grant access: the verifier
    re-checks time windows, restrictions, {e and} revocation on every
    presentation; the cache only memoizes the RSA operation, the AEAD open
    or the decode.)

    Hit/miss/eviction/invalidation totals are kept here and callers (e.g.
    [Authz.Guard]) mirror them into [Sim.Metrics]. Decoding through the
    cache counts nothing. *)

type t

type stats = {
  hits : int;  (** of both kinds *)
  link_hits : int;  (** the hits that answered a conventional-link open *)
  binding_hits : int;  (** the hits that answered a session binding's check *)
  misses : int;
  evictions : int;
  invalidations : int;
  size : int;
}

val create :
  ?capacity:int ->
  ?on_evict:(unit -> unit) ->
  ?on_invalidate:(unit -> unit) ->
  unit ->
  t
(** Default capacity: 2048 entries (room for each link of a server's
    working set plus one binding per chain). [on_evict]
    fires once per capacity eviction (not on TTL expiry); [on_invalidate]
    fires once per entry dropped by {!bump_generation}. A [capacity] of 0
    creates a {e disabled} cache that keeps no table: every check and
    {!find_link} miss, every record is a no-op, and {!decode_cert} decodes
    afresh — differential tests use it to run identical guard wiring with
    caching off. *)

val check : t -> now:int -> signed_bytes:string -> signature:string -> signer:string -> bool
(** [true] when [signature] was verified before over exactly
    [signed_bytes] under exactly the key whose bytes are [signer], and the
    verdict is still within its TTL. Counts a hit or a miss; an expired
    entry is dropped and counts as a miss. *)

val record : t -> now:int -> signed_bytes:string -> signature:string -> signer:string -> unit
(** Remember a successful verification for one simulated hour, by the
    {!Expiring} rule: a new signature first purges expired entries, then
    evicts the soonest-expiring one if the table is still full;
    re-recording a live signature replaces its verdict in place, refreshes
    its TTL and evicts nothing. Only call on success. *)

val check_binding :
  t -> now:int -> server:Principal.t -> ticket:string -> binding:string -> key:string -> bool
(** [true] when [binding] was verified before, under exactly [key], over
    exactly [server] and the ticket digest [ticket], and the verdict is
    within its TTL. Counts as {!check} does; a hit counts as a binding hit
    too. *)

val record_binding :
  t -> now:int -> server:Principal.t -> ticket:string -> binding:string -> key:string -> unit
(** {!record} for a session binding. *)

val check_cert : t -> now:int -> signer:string -> Proxy_cert.pk_cert -> bool
(** {!check} for a public-key certificate's signature
    ({!Proxy_cert.pk_signed_bytes}): the certificate the verdict decoded
    ({!decode_cert}) is known by identity, so only [signer] is compared;
    any other is re-encoded and compared. *)

val decode_cert : t -> now:int -> Wire.t -> (Proxy_cert.pk_cert, string) result
(** {!Proxy_cert.pk_cert_of_wire}, through the cache: a wire value equal
    to the one a live verdict kept gives back that verdict's certificate;
    otherwise the value is decoded, and the result is kept by the verdict
    of its signature when that verdict has kept none and its signed bytes
    are the certificate's. Counts nothing. *)

val find_link :
  t -> now:int -> sealing_key:string -> string -> (Proxy_cert.body * string) option
(** What {!Proxy_cert.open_conventional} gave for this exact blob under
    this exact sealing key, if it opened before and the entry is within
    its TTL. Counts a hit (and a link hit) or a miss, as {!check} does; a
    blob too short to be a box misses. *)

val record_link :
  t -> now:int -> sealing_key:string -> string -> Proxy_cert.body * string -> unit
(** Remember a successful open, by the same rule as {!record}. Only call
    on success. *)

val forget : t -> Proxy.presentation -> from:int -> binding:string option -> unit
(** Drop what the cache holds for a chain's certificates from index
    [from] on (a public-key chain's certificates, or a hybrid's head, 0,
    and its cascade links, 1 on; a conventional chain keeps its links)
    and for its session [binding]: every entry its walk from there would
    look up, recorded by this presentation or an earlier one. Counts
    nothing and raises no floor ({!Expiring.remove}). [Authz.Guard] calls
    it for a chain whose grant spent the accept-once identifier
    certificate [from] names, so no chain through that certificate
    reaches a lookup again. *)

val bump_generation : t -> int
(** Drop every entry, counting each as an invalidation, and return how
    many were dropped. This is the revocation path: the cache cannot tell
    which entries depend on a revoked link (a sealed link names no serial
    until it is opened), so the bulletin holder drops everything and lets
    honest traffic repopulate the cache. *)

val stats : t -> stats
val size : t -> int
