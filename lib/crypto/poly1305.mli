(** Poly1305 one-time authenticator (RFC 8439 §2.5).

    A Poly1305 key authenticates one message: two messages under one key
    let an observer forge a third. {!Aead} therefore derives a fresh key
    per box from ChaCha20 block 0 under the box's nonce (RFC 8439 §2.6).
    Nothing here keeps state between MACs, so any number of domains may
    run them at once. *)

val mac : key:string -> string -> string
(** [mac ~key msg] is the 16-byte tag of [msg] under the 32-byte one-time
    [key]. Raises [Invalid_argument] if [key] is not 32 bytes. *)

(** {2 Streaming, for the AEAD construction} *)

type t
(** One MAC in progress. *)

val start : key:string -> t
(** As {!mac}, the key is 32 bytes. *)

val pad16 : t -> string -> int -> int -> unit
(** [pad16 st s off len] absorbs [len] bytes of [s] from [off], zero-padded
    to a multiple of 16 bytes (RFC 8439 §2.8's [pad16]). Raises
    [Invalid_argument] on a range outside [s]. *)

val lengths : t -> int -> int -> unit
(** [lengths st a b] absorbs one block, [a] then [b] as 64-bit
    little-endian numbers: the block of lengths RFC 8439 §2.8 ends its MAC
    input with. [a] and [b] are not negative. *)

val finish : t -> Bytes.t -> int -> unit
(** [finish st dst at] writes the 16-byte tag of everything absorbed to
    [dst] from [at]. Use a state once. *)
