(** Checks: numbered delegate proxies that transfer resources (Section 4,
    Figure 5).

    A check drawn by payor [C] on account [A] at accounting server [$2],
    payable to [S], is a public-key delegate proxy signed by [C] whose
    restrictions read: grantee [S]; accept-once (the check number); quota
    (currency, face amount — "the payee transfers up to that limit");
    issued-for [$2]; authorized to debit [A]. An endorsement is a delegate
    cascade step: the current holder signs an extension naming the next
    holder, leaving the paper's audit trail. Every holder exercises the
    check by authenticating as itself, so each certificate is key-less
    ({!Proxy.grant_keyless}, {!Proxy.delegate_keyless}) and a check in
    transit carries no private key. *)

type t = {
  number : string;  (** globally unique check number *)
  currency : string;
  amount : int;  (** face value: the transfer ceiling *)
  payee : Principal.t;
  drawn_on : Principal.Account.t;
  proxy : Proxy.t;  (** the signed delegate-proxy chain *)
}

val terms :
  drbg:Crypto.Drbg.t ->
  account:Principal.Account.t ->
  payee:Principal.t ->
  currency:string ->
  amount:int ->
  string * Restriction.t list
(** A fresh check number (random hex drawn from [drbg]) and the
    restrictions {!write} signs for it. *)

val write :
  drbg:Crypto.Drbg.t ->
  now:int ->
  expires:int ->
  payor:Principal.t ->
  payor_key:Crypto.Rsa.private_ ->
  account:Principal.Account.t ->
  payee:Principal.t ->
  currency:string ->
  amount:int ->
  unit ->
  t
(** Draw a check: {!terms}, signed key-less by the payor. *)

val endorse :
  drbg:Crypto.Drbg.t ->
  now:int ->
  expires:int ->
  endorser:Principal.t ->
  endorser_key:Crypto.Rsa.private_ ->
  next:Principal.t ->
  t ->
  (t, string) result
(** "dep ckno to $1" — a restricted (for-deposit) endorsement is a delegate
    proxy extension naming [next]. *)

val to_wire : t -> Wire.t
val of_wire : Wire.t -> (t, string) result
