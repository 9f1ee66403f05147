(** The cross-realm federation scenario: three realms on one seeded
    network, exercising every boundary the federation layer has.

    Forged inter-realm TGTs (a peer minting another realm's users — or
    the trusting realm's own) must bounce at the TGS with the pinned
    realm-mismatch error; malformed TGS subkeys are refused in-band on
    both sides; a cascaded proxy chain signed in realm A and extended in
    realm C is verified at a realm-B end-server with each signer's key
    resolved by realm; the granter recovers from an inter-realm rekey by
    evicting its cached cross TGT; and a Grapevine-style membership
    replica serves realm A's group through a partition, fails closed
    past its staleness bound, and recovers on heal. Same-config reruns
    have a byte-identical digest (metrics and trace). *)

type config = {
  seed : string;
  members : int;  (** direct members of the replicated group *)
  staleness_bound_us : int;  (** replica staleness bound *)
}

val default : config

type outcome = {
  forged_error : string;  (** the pinned realm-mismatch error *)
  stale_error : string;  (** the replica's fail-closed denial *)
  cross_tgs : int;  (** cross-realm TGTs accepted at remote TGSs *)
  replica_epoch : int;
  replica_hits : int;
  replica_stale_denials : int;
  snapshots_applied : int;
  gates : Drive.gate list;
      (** both forged TGTs refused; malformed subkeys refused with the
          pinned errors on both sides; the three-realm cascade served; the
          granter recovered from the rekey; cross-realm TGTs accepted; the
          replica asserted every member warm, through the partition (whose
          refresh failed) and after heal, served the group-ACL read and
          refused the non-member; past its bound it failed closed, saying
          so; it reached epoch 2 from 2+ snapshots and counted its stale
          denials *)
  digest : string;  (** metrics snapshot and audit trail *)
}

val entry : config -> outcome Drive.entry

(** {2 Lane-parallel variant: one realm per lane}

    Each lane owns a fully-isolated realm; the only cross-lane traffic is
    what would cross realms in production — signed membership snapshots,
    ringing to the next lane and applied there — plus a per-lane
    forged-TGT probe against the lane's own TGS. The digest is
    byte-identical for any [domains]. *)

type lanes_outcome = {
  l_epochs_run : int;
  l_delivered : int;
  l_gates : (string * bool) list;  (** label, pass *)
  l_digest : string;  (** per-lane logs + metrics + traces, lane order *)
}

val lanes_entry : domains:int -> config -> lanes_outcome Drive.entry
(** Its smoke compares the digest against the same config at
    [domains = 1]. *)
