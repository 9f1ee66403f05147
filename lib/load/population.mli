(** Synthetic principal populations for the load harness.

    Three building blocks, all deterministic under seeded DRBGs so
    whole load runs replay byte-for-byte:

    - a {e Zipf popularity} sampler over an integer universe, so a
      million-principal population produces realistic head-heavy traffic
      (rank 0 is the hottest account/object) without the driver ever
      touching the cold tail;
    - a {e pooled RSA key source}, so materializing the small touched
      subset of a huge population costs one keygen per {e concurrently
      live} principal, not one per principal — retired principals return
      their keys for reuse (harness economy only: a real deployment never
      shares long-term keys across principals);
    - a deterministic {e open-loop arrival schedule}: a piecewise-constant
      rate profile expanded to explicit arrival instants, independent of
      service completions (the defining property of open-loop load). *)

(** {1 Zipf popularity} *)

type zipf

val zipf : int -> zipf
(** [zipf n] prepares a sampler over ranks [0 .. n-1] with weight
    proportional to [1/(rank+1)] (the classic s=1 Zipf). Weights are
    integers ([2^40/(rank+1)]), so sampling involves no floating point and
    the draw sequence is machine-independent. Raises [Invalid_argument]
    when [n < 1]. *)

val zipf_size : zipf -> int

val zipf_sample : zipf -> Crypto.Drbg.t -> int
(** One rank, drawn by binary search over the cumulative weights. *)

(** {1 Pooled RSA keys} *)

type pool

val pool : seed:string -> unit -> pool
(** 512-bit keys are generated (lazily, on first acquire that finds the
    free list empty) from a dedicated DRBG seeded [seed], so the key
    sequence does not depend on what else the simulation draws. *)

val acquire : pool -> Crypto.Rsa.private_
(** Take a key: reuse the most recently released one, else generate. A
    key is never handed out twice without an intervening {!release}, so
    two live principals can never alias one key. *)

val release : pool -> Crypto.Rsa.private_ -> unit
(** Return a key for reuse. Raises [Invalid_argument] if the key is
    already free (a double release would let {!acquire} alias it). *)

val pool_generated : pool -> int
(** Keygens performed so far — the number the pooling exists to keep far
    below the number of {!acquire}s. *)

val pool_live : pool -> int
(** Keys currently acquired and not yet released. *)

val pool_free : pool -> int
(** Keys sitting in the free list. *)

(** {1 Arrival schedule} *)

type phase = { rate_per_s : int; duration_us : int }

val arrivals : phase list -> int list
(** Expand a rate profile into explicit arrival offsets (microseconds from
    schedule start), ascending. Within a phase arrivals are evenly spaced
    at [1_000_000 / rate_per_s] us; phases abut. Raises [Invalid_argument]
    on a non-positive rate, a negative duration, or a rate above 10^6/s. *)
