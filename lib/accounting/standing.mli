(** Standing debit authorities: the quota mechanism of paper Section 4.

    "Quotas are implemented by transferring funds of the appropriate
    currency out of an account when the resource is allocated and
    transferring the funds back when the resource is released."

    A standing authority is a delegate proxy — like a check, but without the
    accept-once number — that lets a named resource server debit the
    grantor's account repeatedly, up to a {e cumulative} ceiling the
    accounting server tracks per proxy chain. Releases return funds and
    replenish the remaining quota. *)

type t = {
  currency : string;
  limit : int;  (** cumulative ceiling *)
  holder : Principal.t;  (** the resource server allowed to draw *)
  drawn_from : Principal.Account.t;
  authority : Proxy.t;  (** the signed delegate proxy *)
}

val grant :
  drbg:Crypto.Drbg.t ->
  now:int ->
  expires:int ->
  owner:Principal.t ->
  owner_key:Crypto.Rsa.private_ ->
  account:Principal.Account.t ->
  holder:Principal.t ->
  currency:string ->
  limit:int ->
  unit ->
  t
(** Sign the authority key-less: the holder draws on it by authenticating
    as itself. *)

val to_wire : t -> Wire.t
val of_wire : Wire.t -> (t, string) result
