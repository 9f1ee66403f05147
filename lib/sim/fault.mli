(** Deterministic fault injection for the simulated network.

    A {e fault plan} is a declarative description of how the environment
    misbehaves: probabilistic message drop and duplication, extra latency
    jitter, node crash/restart schedules, and partitions. Plans are data —
    they compose by list concatenation — and every probabilistic decision
    is drawn from an HMAC-DRBG seeded from the plan's seed, so a chaos run
    is reproducible bit-for-bit from [(plan, workload)].

    Plans model the {e environment} and install alongside the adversary tap
    in {!Net} (the tap models an attacker, and runs first — an attacker acts
    at the sender; the environment then loses, duplicates, or delays
    whatever the attacker let through).

    Crashes here are fail-stop unreachability windows: a crashed node keeps
    its state across restart, matching the paper's accounting servers that
    persist accept-once records (Section 7.7). *)

type directive =
  | Drop of { p : float }
      (** Lose a message, request or response, with probability [p]. *)
  | Duplicate of { p : float }
      (** Deliver a message twice with probability [p]: a duplicated request
          is processed twice (at-least-once delivery), a duplicated response
          is absorbed by the client. *)
  | Jitter of { max_us : int }
      (** Add uniform extra latency in [[0, max_us]] to every message. *)
  | Crash of { node : string; at : int; until : int option }
      (** [node] is unreachable from virtual time [at] (inclusive) to
          [until] (exclusive); [None] means it never restarts. *)
  | Partition of { a : string list; b : string list; at : int; until : int option }
      (** Messages between the two groups are cut during the window. *)

type plan

val plan : seed:string -> directive list -> plan
(** Build a plan. The [seed] drives an independent DRBG, so installing a
    plan does not perturb the key/nonce stream of the world under test. *)

(* -- convenience constructors -- *)

val drop : float -> directive
val duplicate : float -> directive
val jitter : int -> directive
val crash : string -> at:int -> ?until:int -> unit -> directive
val partition : a:string list -> b:string list -> at:int -> ?until:int -> unit -> directive

(** {2 Runtime} — used by {!Net}; holds the plan's private DRBG. *)

type runtime

val runtime : plan -> runtime

val node_down : runtime -> now:int -> string -> bool
(** Is the node inside a crash window at virtual time [now]? *)

val partitioned : runtime -> now:int -> src:string -> dst:string -> bool

type outcome = { o_drop : bool; o_duplicate : bool; o_jitter_us : int }

val transit : runtime -> outcome
(** Evaluate the drop/duplicate/jitter rules for one message in flight,
    consuming DRBG draws for each probabilistic rule. Drop wins over
    duplicate when both fire. *)
