(** The shared chaos scenario: the two-bank accounting world of the
    marketplace tests run under a seeded fault plan.

    Buyers bank at first-bank, the shop at shore-bank; a seeded stream of
    check deposits (which clear across the inter-bank [collect] hop) and
    local transfers runs while the environment drops, duplicates, and
    delays messages and — optionally — crashes the drawee bank mid-run.
    All credentials are acquired before the plan is installed, mirroring
    the paper's point that proxy verification needs no online third party:
    chaos hits only the transaction traffic.

    The interesting outcomes are the robustness invariants: value is
    conserved across every ledger however many messages were lost or
    replayed, and no check number is ever redeemed twice. Both are checked
    here so tests and the CLI share one implementation. *)

type config = {
  seed : string;  (** drives the world, the workload, and the fault plan *)
  ops : int;  (** logical operations in the workload stream *)
  drop : float;  (** per-message drop probability, each direction *)
  duplicate : float;  (** per-message duplication probability *)
  jitter_us : int;  (** max extra per-message latency *)
  crash_drawee : bool;  (** crash first-bank for a window mid-run *)
  retries : int;  (** client + inter-bank retransmission budget *)
  timeout_us : int;  (** client timeout per silent failure *)
}

val default : config
(** seed ["chaos"], 40 ops, 15% drop, 10% duplicate, 2ms jitter, crash on,
    8 retries, 10ms timeout. *)

type outcome = {
  attempted : int;
  succeeded : int;  (** operations whose caller saw [Ok] *)
  failed : int;
  conserved : (unit, string) result;  (** {!Invariant.check} over both banks *)
  redemptions : (string * int) list;  (** check number -> times paid, either bank *)
  double_redemptions : int;  (** check numbers paid more than once (must be 0) *)
  retries_used : int;
  gave_up : int;  (** logical calls that exhausted their retry budget *)
  dedups : int;  (** retransmissions absorbed by a server response cache *)
  faults_dropped : int;
  faults_duplicated : int;
  latency : Sim.Metrics.dist option;  (** per-logical-call virtual latency *)
  metrics : (string * int) list;  (** full counter snapshot *)
  gates : Drive.gate list;  (** value conserved; each check redeemed at most once *)
  digest : string;  (** metrics snapshot and audit trail *)
}

val run : config -> outcome
(** Deterministic: equal configs produce equal outcomes, digest included.
    Raises [Failure] only on setup errors before chaos begins. *)

val entry : config -> outcome Drive.entry
