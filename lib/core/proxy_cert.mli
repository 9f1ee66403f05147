(** Proxy certificates: the signed/sealed halves of restricted proxies.

    Figure 1 of the paper: a restricted proxy is a certificate
    [[restrictions, K_proxy]]{_grantor} plus the proxy key itself. Two
    realizations are provided (Section 6):

    - {b conventional}: the certificate is AEAD-sealed under a key the
      end-server can recover (the grantor's session key with that server, or
      the previous proxy key in a cascade). The proxy key is {e embedded} in
      the sealed body — confidentiality of the seal protects it.
    - {b public-key}: the certificate binds a {e public} proxy key and is
      signed; the grantee holds the private half. The certificate is
      world-readable; possession of the private key is what is proven. A
      {e key-less} public-key certificate binds no proxy key at all: it
      names its grantee instead, who exercises it by authenticating as
      itself (a check, an endorsement, a standing authority). *)

type body = {
  grantor : Principal.t;  (** whose authority the certificate conveys *)
  serial : string;  (** unique identifier, e.g. for audit and accept-once *)
  issued_at : int;
  expires : int;
  restrictions : Restriction.t list;
}

val body_to_wire : body -> Wire.t
val body_of_wire : Wire.t -> (body, string) result

(** {2 Conventional realization} *)

val seal_conventional :
  sealing_key:string -> nonce:string -> proxy_key:string -> body -> string
(** Produce an opaque certificate blob embedding [proxy_key]. *)

val open_conventional : sealing_key:string -> string -> (body * string, string) result
(** Returns the body and the embedded proxy key; fails on tampering. *)

(** {2 Public-key realization} *)

(** Which key verifies a certificate's signature. *)
type pk_signer =
  | By_grantor_key  (** the grantor's long-term public key (chain head) *)
  | By_proxy_key  (** the previous certificate's proxy key (bearer cascade) *)
  | By_principal of Principal.t
      (** a named intermediate's long-term key (delegate cascade — leaves an
          audit trail, Section 3.4) *)

type pk_cert = {
  pk_body : body;
  proxy_pub : Crypto.Rsa.public option;
      (** [None]: a key-less delegate certificate, which must name a
          [Grantee] in its own restrictions *)
  pk_signer : pk_signer;
  signature : string;
}

val sign_pk :
  key:Crypto.Rsa.private_ ->
  signer:pk_signer ->
  proxy_pub:Crypto.Rsa.public option ->
  body ->
  pk_cert

val pk_signed_bytes : pk_cert -> string
(** The exact bytes the signature covers (body, proxy key, and signer tag —
    so a cascade position cannot be forged by re-tagging). The key slot
    holds the public key's bytes, or the empty list for a key-less
    certificate, so adding or removing a key breaks the signature; a keyed
    certificate's bytes are those of the original keyed-only format. The
    key's bytes are the ones it was made with or arrived as (a decoded key
    keeps its input, and {!Crypto.Rsa.public_of_bytes} reads one shape
    only), so the signature covers the bytes received and no number is
    converted. *)

val keyless_names_grantee : pk_cert -> (unit, string) result
(** A key-less certificate must name a grantee in its own restrictions:
    with no proxy key and no grantee nobody could exercise it, and a
    bearer reading would demand a possession proof no key can give. Keyed
    certificates always pass. The one rule {!pk_cert_of_wire} and
    [Verifier.verify_pk] both enforce. *)

val verify_pk_signature : Crypto.Rsa.public -> pk_cert -> (unit, string) result

val pk_cert_to_wire : pk_cert -> Wire.t

val pk_cert_of_wire : Wire.t -> (pk_cert, string) result
(** Refuses a malformed key slot and any certificate
    {!keyless_names_grantee} refuses. *)

(** {2 Hybrid realization (Section 6.1)}

    "If a hybrid authentication system is used, where subsequent keys are
    from a conventional cryptosystem, then the proxy key is a conventional
    key generated by the grantor and the proxy key must be additionally
    encrypted in the public key of the end-server."

    The certificate is RSA-signed by the grantor (third-party verifiable,
    like the public-key realization) but the proxy key is symmetric —
    possession proofs are cheap HMACs — and its ciphertext only the named
    end-server can open, which also pins the proxy to that server. *)

type hybrid_cert = {
  h_body : body;
  h_end_server : Principal.t;  (** whose public key seals the proxy key *)
  h_enc_key : string;  (** the symmetric proxy key, RSA-encrypted *)
  h_signature : string;  (** grantor's signature over body + target + ciphertext *)
}

val sign_hybrid :
  drbg:Crypto.Drbg.t ->
  grantor_key:Crypto.Rsa.private_ ->
  end_server:Principal.t ->
  end_server_pub:Crypto.Rsa.public ->
  proxy_key:string ->
  body ->
  (hybrid_cert, string) result
(** Fails when the proxy key does not fit the end-server's modulus. *)

val hybrid_signed_bytes : hybrid_cert -> string
val verify_hybrid_signature : Crypto.Rsa.public -> hybrid_cert -> (unit, string) result

val open_hybrid_key :
  decrypt:(string -> string option) -> hybrid_cert -> (string, string) result
(** End-server side: recover the symmetric proxy key with the server's RSA
    decryption function. *)

val hybrid_cert_to_wire : hybrid_cert -> Wire.t
val hybrid_cert_of_wire : Wire.t -> (hybrid_cert, string) result
