(** Authenticated encryption: ChaCha20-Poly1305 (RFC 8439 §2.8) under a
    subkey derived from the key by HMAC-SHA256.

    Sealed boxes carry session keys inside Kerberos-style tickets and proxy
    keys between grantor and grantee. The 16-byte Poly1305 tag covers the
    associated data and the ciphertext under a one-time key drawn from
    ChaCha20 block 0 under the nonce, so any tampering with a sealed
    certificate, its associated data or its nonce is detected before
    decryption. A nonce must never repeat under one key: two boxes under
    the same key and nonce expose the keystream and the one-time MAC key,
    and with it a forgery.

    A box is one string, its own wire form: the 12-byte nonce, the 16-byte
    tag, then the ciphertext. A seal encrypts and tags straight into it,
    and an open reads it by offset. *)

val tag : prefix:string -> string -> string
(** [prefix] then the 16-byte tag of a box that opened, in one allocation:
    the tag names the box, its associated data and its key together, so
    it keys tables of boxes. *)

val overhead : int
(** 28: the nonce and tag a box adds to its plaintext, so the length of
    the shortest box. *)

(** {2 Prepared keys}

    A 32-byte key never keys the cipher itself, since proxy keys also key
    HMAC session bindings: it drives one subkey, HMAC(key, "aead-encrypt"),
    under which ChaCha20 runs and each box's one-time MAC key is drawn.
    Deriving it costs 4 SHA-256 compressions. A prepared key holds it, so
    whoever keeps a key for many messages derives it once: a
    server its long-term key and, per ticket it has opened, that ticket's
    session key ([Ticket.holder], held by [Secure_rpc.serve] and
    [Guard.create]), client credentials their session key
    ([Ticket.credentials]). Remembering is the holder's business, never
    this module's: a prepared key is read-only after {!prepare} — no
    memo, no shared state — so one key serves any number of messages,
    from several domains at once. *)

type key

val prepare : string -> key
(** Never raises. A raw key that is not 32 bytes gives a key under which
    {!open_prepared} opens nothing and {!seal_prepared} raises, as
    {!open_} and {!seal} do with that raw key. *)

val seal_prepared : key -> ?ad:string -> nonce:string -> string -> string
(** [seal_prepared (prepare key) ~ad ~nonce plaintext = seal ~key ~ad ~nonce
    plaintext]. Raises [Invalid_argument "Aead.seal: key must be 32 bytes"]
    for a key prepared from another length, and on a nonce that is not 12
    bytes. *)

val open_prepared : key -> ?ad:string -> string -> (string, [ `Malformed | `Bad_tag ]) result
(** [open_prepared (prepare key) ~ad box = open_ ~key ~ad box]. *)

(** {2 Raw keys}

    For keys used once: each call prepares [key] and drops it. *)

val seal : key:string -> ?ad:string -> nonce:string -> string -> string
(** [seal ~key ~ad ~nonce plaintext] is the box, 28 bytes longer than
    [plaintext]. [key] is 32 bytes, [nonce] 12 bytes. [ad] is
    authenticated but not encrypted. *)

val open_ : key:string -> ?ad:string -> string -> (string, [ `Malformed | `Bad_tag ]) result
(** [open_ ~key ~ad box] is the plaintext iff the tag verifies; [`Malformed]
    under 28 bytes, the smallest box (an empty plaintext). *)
