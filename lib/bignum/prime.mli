(** Probabilistic primality testing and prime generation.

    Randomness is supplied by the caller as a byte source so that the library
    stays deterministic under the simulator's seeded DRBG. *)

type rand = int -> string
(** [rand n] must return [n] uniformly random bytes. *)

val is_probably_prime : ?rounds:int -> rand -> Nat.t -> bool
(** Miller–Rabin with [rounds] random witnesses (default 24), preceded by
    trial division by small primes. *)

val random_nat_below : rand -> Nat.t -> Nat.t
(** [random_nat_below r n] is uniform in [[0, n)]. Raises
    [Invalid_argument] when [n] is zero. *)

val generate : ?rounds:int -> rand -> int -> Nat.t
(** [generate r bits] returns a probable prime with exactly [bits] bits (top
    bit set, odd). Raises [Invalid_argument] if [bits < 2], and [Failure]
    after [100 * bits] candidates in a row fail, as under a broken kernel. *)
