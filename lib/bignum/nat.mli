(** Arbitrary-precision natural numbers.

    Numbers are immutable. The representation uses base-[2^26] limbs so every
    intermediate product of two limbs fits comfortably in a native 63-bit
    integer, which {!rem_int}'s divisors and the long division rely on;
    the Montgomery kernel of {!mod_pow} converts to limbs of its own width
    ({!type-mont}). This module is the substrate for the RSA realization of
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
    [m] is zero. An odd modulus that {!mont} takes goes through
    {!mont_pow}, under constants built for this call; even moduli and
    wider ones fall back to {!mod_pow_naive}. *)

type mont
(** The Montgomery constants of one odd modulus m, for a kernel with limbs
    of its own width w: m in n = ceil(bits(m) / w) limbs of w bits,
    [-m^-1 mod 2^w], and [R^2 mod m] with [R = 2^(w n)]. Each Montgomery
    product scans its columns in the finely integrated product-scanning
    order, summing every limb product of a column in one native int that
    it only masks and shifts, so the sum reads as an unsigned 63-bit
    number; a column of 2n products of w-bit limbs stays below 2^63 when
    [n < 2^(62 - 2w)]. w is the widest of 29, 28, 27 and 26 bits that
    meets that bound: 29 bits up to 15 limbs (435-bit moduli), 28 up to
    63 (1,764 bits), 27 up to 255 (6,885 bits) and 26 up to 1,023 (26,598
    bits). A Montgomery squaring scans the same columns but sums each
    symmetric pair x_i*x_(k-i) once and adds it twice, with the quotient
    products q_i*m_(k-i) and q_(k-i)*m_i paired in the same step: about
    1.5n^2 limb products where a multiply makes 2n^2. Its columns add
    exactly the non-negative products a multiply of x by x would, so
    they meet the same bound and the widths hold for it unchanged.
    Two limb counts get the same multiply and squaring written out for
    exactly their size, over limbs held in locals, each column summing
    the products that are ready first and the previous column's carry
    last: an odd modulus of 233 to 259 bits (9 limbs of 29 bits, so
    [R = 2^261 > 4m]: a Miller–Rabin candidate or an RSA-512 CRT half)
    and one of 505 to 530 bits (19 limbs of 28 bits, [R = 2^532 > 4m]:
    an RSA-512 modulus or an RSA-1024 CRT half). Both reduce lazily: a
    product of operands below 2m is below 2m, and no product takes the
    conditional subtraction. The constants record which of the three
    kernels they take: the column loops, 9 limbs or 19 limbs. Immutable
    once made, so one value serves several domains. *)

val mont : t -> mont option
(** [mont m] is the constants of [m] when [m] is odd, above 1 and at most
    26,598 bits; [None] otherwise. Making them costs one division. *)

val mont_pow : mont -> t -> t -> t
(** [mont_pow c base exp] is [base^exp mod m], for [Some c = mont m]: the same
    result as {!mod_pow}, with no division when [base < m]. It converts
    [base] into w-bit limbs, raises it with a sliding window over [exp]
    (one bit for exponents of at most 20 bits, such as 65537; 2, 4 or 5
    bits for wider ones) and allocates its workspace, the table of odd
    powers and the accumulator, per call, and the quotient limbs only
    when the column loops run. Every squaring, the window's and the
    table's b^2, goes through the Montgomery squaring, which allocates
    nothing; the window multiplies and the conversions into and out of
    the Montgomery domain go through the multiply. Under the 9- and
    19-limb kernels the powers stay below 2m, and only the result, at
    most m after the conversion out, takes the conditional
    subtraction. *)

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
