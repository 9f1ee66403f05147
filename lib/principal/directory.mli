(** Key directory: the authentication/name-server database.

    Maps principals to the long-term secret keys they share with the KDC
    (conventional realization) and/or to their public keys (public-key
    realization, Section 6.1's "authentication/name server"). *)

type t

val create : unit -> t

val add_symmetric : t -> Principal.t -> string -> unit
val symmetric : t -> Principal.t -> string option

val add_public : t -> Principal.t -> Crypto.Rsa.public -> unit
val public : t -> Principal.t -> Crypto.Rsa.public option
