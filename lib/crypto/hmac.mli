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

    A prepared key has both pads absorbed, so the two key blocks are
    hashed once however many messages it tags. *)

type key

val prepare : string -> key

val mac_prepared : key -> string -> string
(** [mac_prepared (prepare key) msg = mac ~key msg]. *)

val start : key -> Sha256.ctx
(** A fresh inner context for streaming a message with {!Sha256.update}. *)

val finish : key -> Sha256.ctx -> string
(** [finish k ctx] is the tag of the message streamed into [ctx], which
    must come from [start k] and must not be used afterwards. *)
