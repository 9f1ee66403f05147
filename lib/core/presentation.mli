(** Proof of possession of the proxy key.

    "Usually this exchange involves sending a signed or encrypted timestamp
    or server challenge, proving possession of the proxy key" (Section 2).
    The proof binds the virtual timestamp and a digest of the request, so a
    proof captured off the wire cannot be replayed for a different request,
    and a freshness window plus the server's replay cache kill exact
    replays. *)

type proof = { pop_time : int; pop_sig : string }

val prove : key:Proxy.material -> time:int -> request_digest:string -> proof option
(** HMAC under a symmetric proxy key, or an RSA signature under a private
    proxy key; [None] for a key-less proxy, which has nothing to prove
    possession of. *)

(** What the verifier knows about the proxy key after validating the chain. *)
type commitment =
  | Sym_commit of string  (** recovered from the sealed certificate *)
  | Pk_commit of Crypto.Rsa.public  (** from the signed certificate *)
  | No_commit  (** the chain ends in a key-less certificate *)

val check :
  commitment ->
  proof ->
  now:int ->
  max_skew:int ->
  request_digest:string ->
  (unit, string) result
(** Refuses every proof against [No_commit]. *)

val proof_to_wire : proof -> Wire.t
val proof_of_wire : Wire.t -> (proof, string) result

val digest_request : Restriction.request -> string
(** Canonical digest of the request fields a proof should bind
    (server, operation, target, spend). *)
