(** The revocation authority: accumulates revocations and distributes them
    as signed epoch bulletins ({!Revocation.bulletin}) over {!Secure_rpc}.

    Grantors revoke their own authority — a certificate they signed (by
    presenting it), or their whole past output (a grantor epoch). Each
    accepted revocation advances the epoch and re-signs the cumulative
    bulletin; {!publish} alone re-signs without new entries, the heartbeat
    that keeps subscribers inside their staleness bound.

    Distribution is pull: subscribers {!fetch} (or {!sync}, which also
    applies the result to a {!Guard.t}). A partition between a subscriber
    and the authority therefore shows up as bulletin staleness at the
    subscriber, which is exactly the condition the guard's fail-closed
    policy keys on. *)

type t

val create :
  Sim.Net.t ->
  me:Principal.t ->
  my_key:string ->
  signing_key:Crypto.Rsa.private_ ->
  ?lookup:(Principal.t -> Crypto.Rsa.public option) ->
  unit ->
  t
(** Starts at epoch 1 with an empty bulletin signed at the current time.
    [lookup] resolves grantor public keys so ["revoke-cert"] can refuse
    certificates the caller never signed (without it, every revoke-cert is
    refused). *)

val install : t -> unit
(** Serve ["fetch"], ["revoke-cert"] and ["revoke-grantor"]. *)

val me : t -> Principal.t
val epoch : t -> int
val bulletin : t -> Revocation.bulletin

val publish : t -> Revocation.bulletin
(** Heartbeat: advance the epoch and re-sign the current entries at the
    current time, without adding anything. *)

(** {2 Client operations} *)

val fetch : Sim.Net.t -> creds:Ticket.credentials -> (Revocation.bulletin, string) result

val sync :
  Sim.Net.t ->
  creds:Ticket.credentials ->
  Guard.t ->
  (bool, string) result
(** Fetch the current bulletin and {!Guard.apply_bulletin} it. [Ok true]
    when the guard's epoch advanced. A transport failure (e.g. partition)
    leaves the guard's state untouched — and ageing toward its bound. *)

val revoke_cert :
  Sim.Net.t ->
  creds:Ticket.credentials ->
  Proxy_cert.pk_cert ->
  (int, string) result
(** Revoke one certificate by presenting it; the authority accepts only
    certificates whose body names the authenticated caller as grantor.
    Returns the new epoch. *)

val revoke_grantor :
  Sim.Net.t ->
  creds:Ticket.credentials ->
  ?not_before:int ->
  unit ->
  (int, string) result
(** Revoke every certificate the {e caller} issued before [not_before]
    (default: the authority's current time). Returns the new epoch. *)
