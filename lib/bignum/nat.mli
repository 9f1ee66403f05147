(** Arbitrary-precision natural numbers.

    Numbers are immutable. The representation uses base-[2^26] limbs so every
    intermediate product of two limbs fits comfortably in a native 63-bit
    integer. This module is the substrate for the RSA realization of
    public-key proxies (the paper's Figure 6); it replaces [zarith], which is
    not available in this environment. *)

type t

exception Underflow
(** Raised by {!sub} when the result would be negative. *)

val zero : t
val one : t
val two : t

val of_int : int -> t
(** [of_int n] converts a non-negative native integer. Raises
    [Invalid_argument] if [n < 0]. *)

val to_int_opt : t -> int option
(** [to_int_opt n] is [Some i] when [n] fits in a native integer. *)

val is_zero : t -> bool
val is_even : t -> bool
val is_odd : t -> bool

val compare : t -> t -> int
val equal : t -> t -> bool

val add : t -> t -> t
val sub : t -> t -> t
(** [sub a b] is [a - b]. Raises {!Underflow} if [b > a]. *)

val mul : t -> t -> t
(** Product. Schoolbook below 27 limbs, Karatsuba above. *)

val mul_schoolbook : t -> t -> t
(** The quadratic reference multiplier. Always agrees with {!mul}; exposed
    so property tests can cross-check the Karatsuba split and benches can
    measure the crossover. *)

val divmod : t -> t -> t * t
(** [divmod a b] is [(a / b, a mod b)]. Raises [Division_by_zero] if [b] is
    zero. *)

val div : t -> t -> t
val rem : t -> t -> t

val rem_int : t -> int -> int
(** [rem_int a d] is [a mod d] as a native int, computed without
    allocating. Raises [Invalid_argument] unless [0 < d <= 2^36]. *)

val shift_left : t -> int -> t
val shift_right : t -> int -> t

val bit : t -> int -> bool
(** [bit n i] is the [i]th bit of [n] (bit 0 is least significant). *)

val bit_length : t -> int
(** Number of significant bits; [bit_length zero = 0]. *)

val mod_pow : t -> t -> t -> t
(** [mod_pow base exp m] is [base^exp mod m]. Raises [Division_by_zero] if
    [m] is zero. Odd moduli of up to 512 limbs (13312 bits) take the
    Montgomery/sliding-window fast path: each Montgomery product scans its
    columns in the finely integrated product-scanning order, summing every
    limb product of a column in one native int and carrying once per
    column, with no division in the loop. 512 limbs is the widest modulus
    whose column sums stay below [max_int]. Even moduli and wider ones
    fall back to {!mod_pow_naive}. *)

val mod_pow_naive : t -> t -> t -> t
(** The reference square-and-multiply with a full division per step —
    the pre-optimization implementation, kept for cross-checking the
    Montgomery path and for before/after benches. Same results, any
    modulus. *)

val gcd : t -> t -> t

val mod_inv : t -> t -> t option
(** [mod_inv a m] is [Some x] with [a * x = 1 (mod m)] when
    [gcd a m = 1], and [None] otherwise. *)

val of_bytes_be : string -> t
(** Big-endian bytes to natural; the empty string maps to {!zero}. *)

val to_bytes_be : t -> string
(** Minimal big-endian representation; {!zero} maps to [""] . *)

val to_bytes_be_padded : int -> t -> string
(** [to_bytes_be_padded len n] is [n] as exactly [len] big-endian bytes.
    Raises [Invalid_argument] if [n] does not fit. *)

val of_string : string -> t
(** Parse a decimal string. Raises [Invalid_argument] on junk. *)

val to_string : t -> string
(** Decimal rendering. *)

val pp : Format.formatter -> t -> unit
