(** Restricted proxies: granting, cascading, and presentation payloads.

    A value of type {!t} is the {e grantee's} view of a proxy: the
    certificate chain plus the secret proxy-key material. What crosses the
    network is only {!presentation} — the paper's key design point is that
    the bearer "does not send the entire proxy across the network", so an
    eavesdropper who captures a presentation cannot reuse the proxy
    (Section 3.1). *)

(** The secret the grantee holds. *)
type material =
  | Sym of string  (** 32-byte key (conventional realization) *)
  | Keypair of Crypto.Rsa.private_  (** private half (public-key realization) *)
  | No_key
      (** a key-less public-key proxy: the newest certificate binds no
          proxy key and names its grantee, who exercises it by
          authenticating as itself *)

type conventional_chain = {
  base : string;
      (** the grantor's opaque credentials for the end-server (a sealed
          ticket blob); the chain's root sealing key is its session key *)
  cert_blobs : string list;  (** sealed certificates, outermost (oldest) first *)
}

type flavor =
  | Conventional of conventional_chain
  | Public_key of Proxy_cert.pk_cert list  (** chain, oldest first *)
  | Hybrid of Proxy_cert.hybrid_cert * string list
      (** a signed head certificate whose symmetric proxy key is encrypted
          to the end-server, plus conventionally-sealed cascade
          certificates (Section 6.1's hybrid scheme) *)

type t = { flavor : flavor; key : material }

val classify : Restriction.t list -> [ `Bearer | `Delegate of Principal.t list ]
(** A proxy is a delegate proxy iff a [Grantee] restriction is present
    (Section 7.1); the listed principals are the union of all grantee
    lists. *)

(** {2 Granting (conventional)} *)

val grant_conventional :
  drbg:Crypto.Drbg.t ->
  now:int ->
  expires:int ->
  grantor:Principal.t ->
  session_key:string ->
  base:string ->
  restrictions:Restriction.t list ->
  t
(** The grantor, holding credentials [base] for the end-server with
    [session_key], mints a fresh proxy key and seals the certificate under
    the session key. *)

val restrict_conventional :
  drbg:Crypto.Drbg.t ->
  now:int ->
  expires:int ->
  ?grantor:Principal.t ->
  restrictions:Restriction.t list ->
  t ->
  (t, string) result
(** Cascade (Figure 4): append a certificate sealed under the current proxy
    key, carrying a fresh proxy key and {e additional} restrictions. The
    intermediate may label itself with [grantor] (informational — a
    conventional bearer cascade does not authenticate intermediates); the
    default is the anonymous marker [cascade/intermediate]. Fails on a
    public-key proxy. *)

(** {2 Granting (public-key)} *)

val grant_pk :
  drbg:Crypto.Drbg.t ->
  now:int ->
  expires:int ->
  grantor:Principal.t ->
  grantor_key:Crypto.Rsa.private_ ->
  ?proxy_bits:int ->
  restrictions:Restriction.t list ->
  unit ->
  t
(** Figure 6: generate a proxy key pair, sign the certificate with the
    grantor's long-term key. [proxy_bits] defaults to 512. *)

val grant_keyless :
  drbg:Crypto.Drbg.t ->
  now:int ->
  expires:int ->
  grantor:Principal.t ->
  grantor_key:Crypto.Rsa.private_ ->
  restrictions:Restriction.t list ->
  unit ->
  t
(** A key-less delegate grant: {!grant_pk} without the proxy key pair. The
    certificate binds no proxy key and the material is [No_key], so the
    grantee can present it by name (its [Grantee] restriction) but can
    neither prove possession nor {!restrict_pk} it; it can still extend it
    by {!delegate_pk} or {!delegate_keyless}.
    @raise Invalid_argument when [restrictions] name no grantee. *)

val restrict_pk :
  drbg:Crypto.Drbg.t ->
  now:int ->
  expires:int ->
  ?proxy_bits:int ->
  restrictions:Restriction.t list ->
  t ->
  (t, string) result
(** Bearer cascade: the new certificate is signed with the current {e proxy}
    key and granted by the anonymous marker [cascade/intermediate], so no
    intermediate identity is revealed. Fails on a key-less proxy, which
    holds no key to sign with. *)

val delegate_pk :
  drbg:Crypto.Drbg.t ->
  now:int ->
  expires:int ->
  intermediate:Principal.t ->
  intermediate_key:Crypto.Rsa.private_ ->
  ?proxy_bits:int ->
  restrictions:Restriction.t list ->
  t ->
  (t, string) result
(** Delegate cascade: the new certificate is signed by the named
    intermediate's long-term key, leaving an audit trail (Section 3.4). *)

val delegate_keyless :
  drbg:Crypto.Drbg.t ->
  now:int ->
  expires:int ->
  intermediate:Principal.t ->
  intermediate_key:Crypto.Rsa.private_ ->
  restrictions:Restriction.t list ->
  t ->
  (t, string) result
(** {!delegate_pk} without a fresh proxy key pair: the new certificate is
    key-less, so [restrictions] must name the next grantee (refused
    otherwise). An endorsement is one. *)

(** {2 Granting (hybrid, Section 6.1)} *)

val grant_hybrid :
  drbg:Crypto.Drbg.t ->
  now:int ->
  expires:int ->
  grantor:Principal.t ->
  grantor_key:Crypto.Rsa.private_ ->
  end_server:Principal.t ->
  end_server_pub:Crypto.Rsa.public ->
  restrictions:Restriction.t list ->
  unit ->
  (t, string) result
(** Sign a certificate carrying a fresh {e symmetric} proxy key encrypted
    under the end-server's public key: third-party-verifiable like the
    public-key realization, with HMAC-cheap possession proofs, pinned to
    one end-server. *)

val restrict_hybrid :
  drbg:Crypto.Drbg.t ->
  now:int ->
  expires:int ->
  restrictions:Restriction.t list ->
  t ->
  (t, string) result
(** Cascade a hybrid proxy: subsequent certificates are conventional seals
    under the current symmetric proxy key, each granted by the anonymous
    marker [cascade/intermediate]. *)

(** {2 Presentation payloads} *)

type presentation = flavor
(** Everything that travels to the end-server: certificates only, never the
    proxy-key material. *)

val presentation : t -> presentation
val presentation_to_wire : presentation -> Wire.t
val presentation_of_wire : Wire.t -> (presentation, string) result

val keyless_of_wire : Wire.t -> (t, string) result
(** A presentation, held as a proxy with no key material ([No_key]): how a
    key-less proxy travels (a check, a standing authority, a
    certification), or a chain whose key stays with its holder. *)

val presentation_of_wire_with :
  pk_cert:(Wire.t -> (Proxy_cert.pk_cert, string) result) ->
  Wire.t ->
  (presentation, string) result
(** {!presentation_of_wire}, decoding each public-key certificate with
    [pk_cert]: a guard passes its verify cache's
    [Verify_cache.decode_cert]. *)

val transfer_to_wire : t -> Wire.t
(** Full grantor→grantee transfer encoding {e including} the secret material;
    must only ever travel inside a sealed channel. *)

val transfer_of_wire : Wire.t -> (t, string) result
