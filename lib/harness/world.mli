(** Experiment worlds: a simulated network with a KDC and enrolment
    helpers, shared by the benches and the examples.

    All functions that contact the KDC raise [Failure] on error — worlds are
    experiment scaffolding, not adversarial surface. *)

type t = {
  net : Sim.Net.t;
  dir : Directory.t;
  kdc : Kdc.t;
  kdc_name : Principal.t;
  realm : string;
}

val create : ?seed:string -> ?realm:string -> unit -> t

val create_in : Sim.Net.t -> ?realm:string -> unit -> t
(** Build a realm (fresh directory + KDC) on an existing network — the
    multi-realm harness: one net, one of these per realm, KDCs linked with
    {!Kdc.federate}. *)

val enrol : t -> string -> Principal.t * string
(** Register a principal with a fresh long-term symmetric key. *)

val enrol_pk : t -> string -> Principal.t * string * Crypto.Rsa.private_
(** Additionally generate and publish a 512-bit RSA key pair. *)

val lookup : t -> Principal.t -> Crypto.Rsa.public option
val login : t -> Principal.t -> Ticket.credentials
(** Obtain a TGT. *)

val credentials_for : t -> tgt:Ticket.credentials -> Principal.t -> Ticket.credentials
val now : t -> int
val hour : int
