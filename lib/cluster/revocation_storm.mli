(** Seeded revocation-storm scenario: a grantor revokes its whole output
    (per-serial entries plus a grantor epoch) while one subscriber is
    partitioned away from the revocation authority.

    The run demonstrates, in one deterministic world: immediate denial and
    whole-generation verify-cache invalidation at a freshly synced server;
    the bounded degradation window and then fail-closed behaviour at the
    partitioned server (direct-ACL requests still answered); short-TTL
    proxy refresh for a healthy grantor and refresh refusal for the revoked
    one; accept-once state surviving the churn; bulletin delivery to both
    replicas of a bank shard and a bounced post-revocation check with
    conservation intact.

    Same config (same seed) must produce a byte-identical digest — the
    smoke gate relies on it. *)

type config = {
  seed : string;
  grants : int;  (** distinct proxies the doomed grantor issues (storm width) *)
  staleness_bound_us : int;
  lifetime_us : int;  (** short-TTL lifetime for the healthy grantor's proxies *)
}

val default : config
(** seed ["revocation-storm"], 6 grants, 10-minute staleness bound,
    15-minute proxy lifetime. *)

type outcome = {
  warm_reads : int;
  revocations : int;
  final_epoch : int;
  fresh_denials : int;
  stale_window_served : int;
  stale_denials : int;
  direct_reads_while_stale : int;
  refresh_ok : bool;
  refresh_refused_revoked : bool;
  replay_refused : bool;
  healed_denials : int;
  healed_serves : bool;
  invalidations : int;
  generation_bumps : int;
  bulletin_on_standby : bool;
  check_cleared : bool;
  check_bounced : bool;
  conserved : (unit, string) result;
  metrics : (string * int) list;
  gates : Drive.gate list;
      (** fresh and healed servers deny all [grants] revoked chains; the
          stale server fails closed yet serves direct ACLs; refresh works
          for the healthy grantor only; replay refused; healthy chain
          served on heal; bulletin on both replicas; the pre-storm check
          clears and the post-storm one bounces; the cache generation
          bumped; value conserved *)
  digest : string;  (** metrics snapshot and audit trail *)
}

val run : config -> outcome

val entry : config -> outcome Drive.entry
