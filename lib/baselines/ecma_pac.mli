(** Baseline: ECMA-138 Privilege Attribute Certificates, as discussed in
    paper Section 5.

    "The ECMA standard defines Privilege Attributed Certificates (PACs)
    signed by an authority and certifying that the bearer or a named
    principal possess certain privileges." A PAC resembles an
    authorization-server proxy, but it is not derivable: holders cannot add
    restrictions themselves, so every narrowing requires another round-trip
    to the privilege authority — the contrast the C3/C4 bench quantifies.
    Only the named-principal form is modelled: each PAC names its caller. *)

type t
(** The privilege attribute authority. *)

val create : Sim.Net.t -> name:Principal.t -> drbg:Crypto.Drbg.t -> bits:int -> t
val install : t -> unit
val authority_pub : t -> Crypto.Rsa.public

val entitle : t -> Principal.t -> string -> unit
(** Record that a principal may be certified for a privilege. *)

type pac = {
  pac_subject : Principal.t;
  pac_privileges : string list;
  pac_expires : int;
  pac_sig : string;
}

val request :
  Sim.Net.t ->
  authority:Principal.t ->
  caller:Principal.t ->
  privileges:string list ->
  unit ->
  (pac, string) result
(** One round-trip; refused unless the caller is entitled to every requested
    privilege. Narrowing an existing PAC means calling this again — there is
    no offline derivation. *)

val verify :
  authority_pub:Crypto.Rsa.public ->
  now:int ->
  presenter:Principal.t option ->
  pac ->
  (string list, string) result
(** Offline validation; the presenter must be the PAC's subject. *)
