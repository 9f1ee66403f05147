(** Deterministic random bit generator (HMAC-DRBG, NIST SP 800-90A).

    Every source of randomness in the system — session and proxy keys,
    proxy-cert seal nonces, Kerberos request nonces, check numbers, RSA
    primes, retry jitter, fault decisions — draws from a seeded DRBG, so
    whole experiment runs are reproducible bit-for-bit. AEAD seal nonces
    inside a simulated net are counted, not drawn
    ([Sim.Net.fresh_nonce]): they only have to be unique per key. The
    generator keeps its key prepared ({!Hmac.prepare}), so a draw of 1 to
    32 bytes costs 8 SHA-256 compressions: one output MAC, then an update
    of two MACs and the next key's preparation. Each further 32 bytes
    adds one MAC (2 compressions) and an empty draw costs 6. Each call
    counts as one draw in {!Cost}. *)

type t

val create : seed:string -> t
val reseed : t -> string -> unit

val generate : t -> int -> string
(** [generate t n] returns [n] fresh pseudorandom bytes. *)

val rand : t -> Bignum.Prime.rand
(** View as the byte source expected by {!Bignum.Prime}. *)

val uniform_int : t -> int -> int
(** [uniform_int t n] is uniform in [[0, n)]. Raises [Invalid_argument] when
    [n <= 0]. *)
