(** Session bindings: possession of the proxy key, proved once per session.

    "Usually this exchange involves sending a signed or encrypted timestamp
    or server challenge, proving possession of the proxy key" (Section 2).
    The encrypted timestamp is the request's authenticator: [Secure_rpc]
    seals it under the session key of the ticket the request rides, and it
    covers the request's payload. A binding ties that session to the proxy
    key: the final proxy key signs (RSA) or MACs (HMAC-SHA256)
    {["session-binding"], server, SHA-256 of the ticket}. A presenter makes
    one binding per (chain, ticket) and sends it with every request over
    that ticket; the server checks it against the ticket the request
    actually rode.

    What this gives (DESIGN §19):
    - a binding copied off the wire is useless without the ticket's session
      key: a request over another ticket names another session, and one
      over the same ticket needs an authenticator only the session key can
      seal;
    - a captured request cannot be rewritten, because the authenticator
      covers its payload, nor replayed for effect, because the freshness
      window and the response cache answer an exact replay with the
      original sealed reply;
    - naming the server stops a binding from being forwarded to another;
    - each certificate mints a fresh proxy key, so the verifying key names
      the chain. *)

val signed_bytes : server:Principal.t -> ticket:string -> string
(** What a binding signs: [server] and the SHA-256 [ticket] of the ticket
    blob the requests ride, under a fixed label. *)

val bind : Proxy.material -> server:Principal.t -> ticket:string -> string option
(** An HMAC under a symmetric proxy key, or an RSA signature under a
    private proxy key, over {!signed_bytes}; [None] for a key-less proxy,
    which has no key to bind. *)

(** What the verifier knows about the proxy key after validating the chain. *)
type commitment =
  | Sym_commit of string  (** recovered from the sealed certificate *)
  | Pk_commit of Crypto.Rsa.public  (** from the signed certificate *)
  | No_commit  (** the chain ends in a key-less certificate *)
