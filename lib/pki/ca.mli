(** Certification authority for the public-key realization (Section 6.1).

    Binds principal names to RSA public keys with signed certificates, so an
    end-server presented with a public-key proxy can fetch "the public key of
    the grantor (obtained from an authentication/name server)" and trust the
    binding. *)

type binding = {
  subject : Principal.t;
  subject_pub : Crypto.Rsa.public;
  issued_at : int;
  expires : int;
}

type cert = { binding : binding; signature : string }

type t

val create : Crypto.Drbg.t -> name:Principal.t -> bits:int -> t
(** Generate the CA's own key pair. *)

val ca_pub : t -> Crypto.Rsa.public

val issue : t -> now:int -> lifetime:int -> Principal.t -> Crypto.Rsa.public -> cert

val verify : ca_pub:Crypto.Rsa.public -> now:int -> cert -> (binding, string) result
(** Check signature and validity window. *)

val cert_to_wire : cert -> Wire.t
val cert_of_wire : Wire.t -> (cert, string) result
