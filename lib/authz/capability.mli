(** Capabilities (paper Section 3.1).

    A capability is a bearer proxy restricted to named objects and
    operations. Unlike classical capabilities, presentation never puts the
    whole proxy on the wire (the proxy key stays secret), the capability can
    be revoked by revoking the grantor's own rights, and it expires. *)

val mint :
  drbg:Crypto.Drbg.t ->
  now:int ->
  expires:int ->
  grantor:Principal.t ->
  session_key:string ->
  base:string ->
  target:string ->
  ops:string list ->
  Proxy.t
(** Pure form: the grantor already holds credentials ([base],
    [session_key]) for the end-server. *)

val mint_via_kdc :
  Sim.Net.t ->
  kdc:Principal.t ->
  tgt:Ticket.credentials ->
  end_server:Principal.t ->
  target:string ->
  ops:string list ->
  unit ->
  (Proxy.t, string) result
(** Convenience: derive fresh credentials for [end_server] through the TGS,
    then mint. This is how a user turns "I can read file1" into a
    transferable read capability for file1. The capability lives 2 hours,
    or until the derived ticket expires if that is sooner. *)

val narrow :
  drbg:Crypto.Drbg.t ->
  now:int ->
  expires:int ->
  target:string ->
  ops:string list ->
  Proxy.t ->
  (Proxy.t, string) result
(** Derive a weaker capability from an existing one (cascade): the result
    permits at most the intersection of old and new rights. *)
