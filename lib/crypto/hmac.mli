(** HMAC-SHA256 (RFC 2104).

    This is the integrity primitive of the conventional-cryptography proxy
    realization: proxy certificates are sealed with an HMAC under the
    grantor's key, and proof-of-possession challenges are answered with an
    HMAC under the proxy key. *)

val mac : key:string -> string -> string
(** [mac ~key msg] is the 32-byte HMAC-SHA256 tag. *)

val verify : key:string -> msg:string -> tag:string -> bool
(** Constant-time tag check. *)

(** {2 Prepared keys}

    A prepared key is SHA-256's chaining words after the block key ⊕ ipad
    and after key ⊕ opad (8 words each), so preparing costs two
    compressions, once however many messages the key tags. A MAC then
    hashes on from those words without building a context: a message of
    at most 55 bytes is one inner and one outer compression. *)

type key

val prepare : string -> key

val mac_prepared : key -> string -> string
(** [mac_prepared (prepare key) msg = mac ~key msg]. *)
