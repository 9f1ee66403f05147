(** Two-server sequence scenario: a {!Restriction.Sequence} spanning a
    file server and a sharded bank — an fs ["open"] step gates a bank
    ["debit"] step — under message noise, retries, and a mid-sequence
    permanent crash of the bank primary.

    The file server hands earned progress to the bank over the
    ["seq-advance"] verb; the bank primary journals it to the standby
    before releasing the reply (the PR-5 replication path), so the
    sequence completes exactly once across the failover. A same-seed
    rerun has a byte-identical digest (metrics and trace). *)

type config = {
  seed : string;
  drop : float;
  duplicate : float;
  retries : int;
  timeout_us : int;
  crash_after_us : int;  (** primary crash time, relative to chaos start *)
}

val default : config

type outcome = {
  crashed_node : string;
  promotions : int;
  seq_advances : int;
  seq_imports : int;
  alice_available : int;
  bob_available : int;
  gates : Drive.gate list;
      (** the pre-open debit bounced; the in-order open was granted and a
          second open bounced; the standby held the progress right after
          the open; after the crash the debit succeeded once and a repeat
          bounced; the standby was promoted *)
  digest : string;  (** metrics snapshot and audit trail *)
}

val run : config -> outcome
(** Raises [Failure] only on setup errors (before any fault goes in). *)

val entry : config -> outcome Drive.entry
