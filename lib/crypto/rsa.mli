(** RSA signatures and encryption over {!Bignum.Nat}.

    This realizes the paper's public-key proxies (Figure 6): proxy
    certificates are signed with the grantor's private key, and for the
    hybrid scheme the conventional proxy key is sealed under the end-server's
    public key. Padding follows PKCS#1 v1.5 (deterministic for signatures,
    randomized for encryption); modulus size is a parameter so benches can
    sweep it. *)

type public = private {
  n : Bignum.Nat.t;
  e : Bignum.Nat.t;
  encoded : string;
      (** {!public_to_bytes}, made once where the key is made
          ({!generate}) or read ({!public_of_bytes}) *)
}
(** Private, so that a key's bytes always agree with its numbers: the only
    keys are those the two constructors return. *)

type crt = {
  p : Bignum.Nat.t;
  q : Bignum.Nat.t;
  dp : Bignum.Nat.t;  (** [d mod (p-1)] *)
  dq : Bignum.Nat.t;  (** [d mod (q-1)] *)
  qinv : Bignum.Nat.t;  (** [q^-1 mod p] *)
}
(** Chinese-remainder parameters for the private operation: two half-width
    exponentiations recombined by Garner's formula, roughly 4x cheaper than
    a full [c^d mod n]. *)

type private_ = { pub : public; d : Bignum.Nat.t; crt : crt option }
(** [crt = None] (e.g. a key parsed from the wire without its factors)
    degrades gracefully to the plain [d] exponentiation. *)

val generate : Drbg.t -> bits:int -> private_
(** Generate a key pair with a modulus of [bits] bits ([bits >= 128],
    public exponent 65537). The CRT parameters are filled in. *)

val sign : private_ -> string -> string
(** [sign key msg] signs SHA-256([msg]); the signature is
    [modulus_bytes key.pub] bytes. Uses the CRT fast path when [key.crt]
    is present; every CRT result is checked against the public-exponent
    recomputation (fault-attack guard) so the output is byte-identical to
    {!sign_reference} in all cases. *)

val sign_reference : private_ -> string -> string
(** The pre-optimization signing path: plain [d] exponentiation via
    {!Bignum.Nat.mod_pow_naive}, ignoring [crt]. Kept for byte-compat
    tests and before/after benches. *)

val verify : public -> msg:string -> signature:string -> bool

val encrypt : Drbg.t -> public -> string -> string option
(** PKCS#1 v1.5 type-2 encryption. [None] if the message is too long for
    the modulus (max [modulus_bytes - 11]). *)

val decrypt : private_ -> string -> string option

val modulus_bytes : public -> int

val public_to_bytes : public -> string
(** [be32 |n|, n, be32 |e|, e], each number in minimal big-endian bytes.
    The key carries it, so this allocates nothing. *)

val public_of_bytes : string -> public option
(** The inverse of {!public_to_bytes}, on its one shape only: the two
    length fields cover the input exactly, and [n] and [e] are non-empty
    with no leading zero byte. Anything else, such as trailing bytes or a
    zero-padded modulus, is [None]. The key keeps the input as its
    encoding. *)
