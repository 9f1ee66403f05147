(** Authenticated encryption: ChaCha20 + HMAC-SHA256, encrypt-then-MAC.

    Sealed boxes carry session keys inside Kerberos-style tickets and proxy
    keys between grantor and grantee. The MAC covers nonce, associated data,
    and ciphertext, so any tampering with a sealed certificate is detected
    before decryption. *)

type sealed = { nonce : string; ciphertext : string; tag : string }

(** {2 Prepared keys}

    A 32-byte key drives two subkeys, one for the cipher and one for the
    MAC; deriving them costs 8 SHA-256 compressions. A prepared key holds
    both, so whoever keeps a key for many messages derives them once: a
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
    {!open_prepared} returns [None] and {!seal_prepared} raises, as
    {!open_} and {!seal} do with that raw key. *)

val seal_prepared : key -> ?ad:string -> nonce:string -> string -> sealed
(** [seal_prepared (prepare key) ~ad ~nonce plaintext = seal ~key ~ad ~nonce
    plaintext]. Raises [Invalid_argument "Aead.seal: key must be 32 bytes"]
    for a key prepared from another length, and on a nonce that is not 12
    bytes. *)

val open_prepared : key -> ?ad:string -> sealed -> string option
(** [open_prepared (prepare key) ~ad box = open_ ~key ~ad box]. *)

(** {2 Raw keys}

    For keys used once: each call prepares [key] and drops it. *)

val seal : key:string -> ?ad:string -> nonce:string -> string -> sealed
(** [seal ~key ~ad ~nonce plaintext]. [key] is 32 bytes, [nonce] 12 bytes.
    [ad] is authenticated but not encrypted. *)

val open_ : key:string -> ?ad:string -> sealed -> string option
(** [open_ ~key ~ad box] returns the plaintext iff the tag verifies. *)

val encode : sealed -> string
(** Flat wire encoding (nonce || tag || ciphertext). *)

val decode : string -> sealed option
