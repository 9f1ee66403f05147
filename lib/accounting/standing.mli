(** Standing debit authorities: the quota mechanism of paper Section 4.

    "Quotas are implemented by transferring funds of the appropriate
    currency out of an account when the resource is allocated and
    transferring the funds back when the resource is released."

    A standing authority is a delegate proxy — like a check, but without the
    accept-once number — that lets a named resource server debit the
    grantor's account repeatedly, up to a {e cumulative} ceiling the
    accounting server tracks per grant, shared by every chain derived from
    it (see {!Accounting_server.proxy_debit}). Releases return funds and
    replenish the remaining quota. An authority is its signed chain: its
    fields are read from the head certificate the owner signed. *)

type t = private {
  currency : string;
  limit : int;  (** cumulative ceiling *)
  holder : Principal.t;  (** the resource server allowed to draw *)
  drawn_from : Principal.Account.t;
  authority : Proxy.t;  (** the signed delegate proxy *)
}

val restrictions :
  number:string option -> holder:Principal.t -> account:Principal.Account.t ->
  currency:string -> limit:int -> Restriction.t list
(** The debit-grant shape {!grant} signs, in this order: [Grantee
    ([holder], 1)]; [Accept_once number], on a check only ({!Check});
    [Quota (currency, limit)]; [Issued_for] the account's server;
    [Authorized] ["debit"] on the account. *)

val read : Proxy.t -> (string option * t, string) result
(** The number and terms a public-key chain's head certificate signs,
    when its restrictions are exactly {!restrictions} of them with a
    positive limit; an error for any other chain. *)

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

val of_proxy : Proxy.t -> (t, string) result
(** {!read}, refusing a chain that signs a check number. *)

val to_wire : t -> Wire.t
(** The chain's presentation, no more. *)

val of_wire : Wire.t -> (t, string) result
(** A presentation read by {!of_proxy}, held with no key material. *)
