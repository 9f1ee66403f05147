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

val decode : string -> (t, string) result
(** Rejects trailing bytes, truncated values, oversized lengths. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

(** {2 Reading helpers}

    Total accessors used by message parsers; all return [Result] so protocol
    handlers can reject malformed adversarial input uniformly. *)

val to_int : t -> (int, string) result
val to_string : t -> (string, string) result
val to_list : t -> (t list, string) result

val field : t -> int -> (t, string) result
(** [field v i] is the [i]th element when [v] is a list. *)

val ( let* ) : ('a, 'e) result -> ('a -> ('b, 'e) result) -> ('b, 'e) result

val map_all : (t -> ('a, string) result) -> t list -> ('a list, string) result
(** Decode every element, in order; the first failure is the result. *)
