(** Deterministic binary encoding for every on-the-wire structure.

    Certificates, tickets, restrictions, checks, and protocol messages all
    serialize through this one self-describing value type, so a signature
    computed over [encode v] is well-defined: encoding is canonical (the same
    value always produces the same bytes) and decoding is total (any byte
    string either decodes to a value or fails cleanly — malformed input from
    the adversary can never raise). *)

type t =
  | I of int  (** signed 63-bit integer *)
  | S of string  (** raw bytes *)
  | L of t list  (** heterogeneous sequence *)

val encode : t -> string
(** Sizes the value, then writes one string of exactly that size. *)

val decode : string -> (t, string) result
(** Reads each tag, length and int as one word at its offset. Rejects
    trailing bytes, truncated values, oversized lengths. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

(** {2 Reading helpers}

    A decoder matches its structure's one exact shape against the
    constructors above, so a missing, mistyped or extra field falls through
    to its [Error]. These total accessors read what a shape leaves open,
    such as the elements of a list of any length; all return [Result] so
    protocol handlers can reject malformed adversarial input uniformly. *)

val to_int : t -> (int, string) result
val to_string : t -> (string, string) result
val to_list : t -> (t list, string) result

val ( let* ) : ('a, 'e) result -> ('a -> ('b, 'e) result) -> ('b, 'e) result

val map_all : (t -> ('a, string) result) -> t list -> ('a list, string) result
(** Decode every element, in order; the first failure is the result. *)
