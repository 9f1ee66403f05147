(** ChaCha20 stream cipher (RFC 8439).

    Used to protect proxy keys in transit (the paper requires the proxy key
    be "protected from disclosure" when a proxy moves from grantor to
    grantee) and as the confidentiality half of {!Aead}. *)

val block : key:string -> nonce:string -> counter:int -> string
(** [block ~key ~nonce ~counter] is the 64-byte keystream block. [key] must
    be 32 bytes and [nonce] 12 bytes; raises [Invalid_argument] otherwise.
    The counter is a 32-bit word: only its low 32 bits are used. *)

val encrypt : key:string -> nonce:string -> ?counter:int -> string -> string
(** XOR the message with the keystream starting at block [counter]
    (default 1, per RFC 8439 AEAD convention). Encryption and decryption are
    the same operation. The block counter wraps: a message whose blocks run
    past counter 0xffffffff continues at block 0. [key] must be 32 bytes and
    [nonce] 12 bytes, even for an empty message; raises [Invalid_argument]
    otherwise. *)

(** {2 One state per message} *)

type t
(** The input state of one key and nonce, for one message at a time:
    {!xor_into} sets its block counter before each block. *)

val start : key:string -> nonce:string -> t
(** Raises [Invalid_argument] on a key that is not 32 bytes or a nonce
    that is not 12. *)

val xor_into : t -> counter:int -> string -> int -> Bytes.t -> int -> int -> unit
(** [xor_into st ~counter src src_off dst dst_off len] is {!encrypt} of
    [len] bytes of [src] from [src_off] under [st], written to [dst] from
    [dst_off]. Raises [Invalid_argument] on a range outside its buffer. *)
