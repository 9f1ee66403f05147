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

val encrypt_into :
  key:string -> nonce:string -> counter:int -> string -> int -> Bytes.t -> int -> int -> unit
(** [encrypt_into ~key ~nonce ~counter src src_off dst dst_off len] is
    {!encrypt} of [len] bytes of [src] from [src_off], written to [dst] from
    [dst_off]. Raises [Invalid_argument] also on a range outside its buffer. *)
