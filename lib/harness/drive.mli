(** The contract every scenario driver keeps, its one smoke runner, and the
    helpers the drivers share.

    A driver maps a config to an outcome that carries named {e gates} —
    one [(label, holds)] per conjunct of its acceptance predicate — and a
    {e digest}: one string holding every byte a rerun must reproduce
    (metrics snapshot, audit trail, span JSONL). Its {!entry} tells the
    runner how to run it and what to rerun for comparison. Tests and the
    CLI share both. *)

type gate = string * bool

type 'o entry = {
  label : string;  (** names the smoke in its verdict line *)
  run : unit -> 'o;
  gates : 'o -> gate list;  (** must hold on every run *)
  smoke_gates : 'o -> gate list;
      (** asked only by a smoke: what its config must exercise *)
  digest : 'o -> string;
  reference : string * (unit -> 'o);
      (** what a smoke reruns, and its name in the digest gate *)
}

val entry :
  label:string ->
  ?smoke_gates:('o -> gate list) ->
  ?reference:string * (unit -> 'o) ->
  gates:('o -> gate list) ->
  digest:('o -> string) ->
  (unit -> 'o) ->
  'o entry
(** [smoke_gates] defaults to none; [reference] to a same-config rerun. *)

val main : smoke:bool -> ?report:('o -> unit) -> 'o entry -> int
(** Run the entry, [report] the outcome, then print one ["  ok   label"]
    or ["  FAIL label"] line per gate; exit code 0 iff every gate holds.
    A smoke also prints the smoke gates, reruns the reference, gates on
    digest equality and ends with a ["<label> smoke: OK"] or
    ["... FAILED"] line. *)

(** {2 Driver helpers} *)

val ok_or : string -> ('a, string) result -> 'a
(** Unwrap a setup step; raises [Failure] naming the step. *)

val percentile : int array -> float -> int
(** Nearest-rank percentile of a sorted array; 0 when empty. *)

val conserved : (unit, string) result -> gate
(** ["value conserved"], with the violation appended when it fails. *)

val redeemed_once : int -> gate
(** ["each check redeemed at most once"]: no double redemptions. *)

val digest : ?lane:int -> Sim.Net.t -> string
(** The net's metrics snapshot as ["name=value"] lines, its audit trail as
    ["time actor event"] lines (each prefixed ["lane-<i>|"] when [lane] is
    given), then its span JSONL. *)

(** Redemptions counted at the servers that pay checks. *)
type tally

val tally : unit -> tally

val watch : tally -> Accounting_server.t -> unit
(** Count every check the server pays from now on. *)

val redemptions : tally -> (string * int) list
(** Check number -> times paid, sorted by number. *)

val double_redemptions : tally -> int
(** Check numbers paid more than once. *)
