(** Principal, group, and account naming.

    Principals are realm-qualified names ([realm/name]). Group names are
    global only in composition with the group server that maintains them
    (Section 3.3 of the paper), and account names likewise compose the
    accounting server's identity with the local account name (Section 4). *)

type t = { realm : string; name : string }

val make : realm:string -> string -> t
(** Raises [Invalid_argument] if either part is empty or contains '/'. *)

val to_string : t -> string
val of_string : string -> (t, string) result
val equal : t -> t -> bool
val compare : t -> t -> int
val pp : Format.formatter -> t -> unit

val to_wire : t -> Wire.t
val of_wire : Wire.t -> (t, string) result

(** A group, named by its maintaining server plus the local group name. *)
module Group : sig
  type principal := t
  type t = { server : principal; group : string }

  val make : server:principal -> string -> t
  val to_string : t -> string
  (** ["realm/server$group"]. *)

  val equal : t -> t -> bool
  val pp : Format.formatter -> t -> unit
  val to_wire : t -> Wire.t
  val of_wire : Wire.t -> (t, string) result
end

(** An account, named by its accounting server plus the local account name. *)
module Account : sig
  type principal := t
  type t = { server : principal; account : string }

  val make : server:principal -> string -> t
  val to_string : t -> string
  val equal : t -> t -> bool
  val pp : Format.formatter -> t -> unit
end
