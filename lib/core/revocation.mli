(** Revocation lists distributed as signed epoch bulletins.

    The paper's restrictions bound a proxy's lifetime at grant time; this
    module handles withdrawal {e after} the grant. A revocation authority
    accumulates per-grantor revocations — by certificate serial, or by
    grantor epoch ("every certificate this grantor issued before T is
    void") — and publishes the {e cumulative} list as a signed,
    monotonically-numbered {b bulletin}. Verifying servers hold a local
    {!t}: the latest applied bulletin plus a staleness bound.

    Two properties drive the design:

    - {b bounded inconsistency}: a server whose bulletin is within the
      staleness bound serves normally — a freshly revoked chain may be
      honored for at most one staleness window;
    - {b fail closed beyond the bound}: once [now - as_of] exceeds the
      bound (e.g. the server is partitioned away from the authority),
      the verifier refuses {e every} proxy presentation, revoked or not, until
      a fresh bulletin arrives. Direct-ACL requests carry no proxies and
      are unaffected, and accept-once replay state is kept throughout.

    Bulletins are cumulative and self-authenticating, so they can travel
    over any channel (push or pull) and be applied in any order: only a
    signature-valid bulletin with a strictly higher epoch than the one held
    advances the state. *)

type entry =
  | By_serial of string  (** revoke one certificate by its serial *)
  | By_grantor_epoch of { grantor : Principal.t; not_before : int }
      (** revoke every certificate [grantor] issued strictly before
          [not_before]; re-issued (refreshed) certificates carry a later
          [issued_at] and survive *)

type report = {
  fresh : int;  (** entries not already covered by the previous state *)
  fresh_entries : entry list;
      (** those entries in bulletin order — the hook for targeted cleanup,
          e.g. shedding a freshly revoked grantor's accept-once replay
          records ([Authz.Guard]); empty for a pure heartbeat
          re-publication *)
}

val entry_to_wire : entry -> Wire.t
val entry_of_wire : Wire.t -> (entry, string) result

(** Bulletins are {!Signed_epoch} artifacts tagged ["revocation-bulletin"],
    signed by the revocation authority; the subscriber state {!t} holds
    the latest applied one. *)
include Signed_epoch.S with type item := entry and type report := report

type bulletin = artifact

val short_serial : string -> string
(** The first eight characters of a certificate serial (hex, from
    {!Proxy.fresh_serial}): how a revocation denial ("certificate ...
    is revoked") and the verifier's per-certificate spans name a
    certificate. *)

val revoked : t -> Proxy_cert.body -> (unit, string) result
(** Is this certificate body on the list? [Error] names the matching entry
    kind. Does {e not} consider staleness. *)
