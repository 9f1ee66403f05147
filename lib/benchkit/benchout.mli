(** Bench rows: their sampler, their tables, and their artifacts.

    Every experiment returns rows; {!emit} prints them as tables and writes
    [BENCH_<ID>.json], so every PR leaves a perf trajectory to regress
    against. A row separates {e logical} metrics — integers: ops, bytes,
    crypto-op counters, virtual-time latency, all deterministic under the
    fixed seeds — from {e physical} ones — floats: sampled nanoseconds,
    which vary by machine. {!check} compares the logical metrics exactly
    and ignores the physical ones; that is the CI gating rule.

    Environment: [BENCH_DIR] overrides the output directory (default
    [bench]); [BENCH_FAST=1] skips the sampling — every float is NaN and
    the logical metrics are unaffected, so a fast run still checks cleanly
    against a full-run baseline. *)

type row = {
  label : string;
  ints : (string * int) list;  (** logical metrics: compared exactly *)
  floats : (string * float) list;  (** sampled timings: reported only *)
}

type doc = { id : string; title : string; mode : string; rows : row list }

val fast : bool
(** [BENCH_FAST] is set: take no timing samples, keep logical work. *)

(** {2 The sampler}

    One monotonic nanosecond clock times every float. A timed key [k] is
    written as two floats: [k], the median time per op over a fixed
    number of samples (5 in full mode, none in fast mode, where both are
    NaN), and [k_iqr], the distance between the samples' quartiles in the
    same unit. *)

val summary : per:int -> int list -> float * float
(** [summary ~per batches] is the (median, interquartile range) of the
    batch times divided by [per], the ops in one batch; quartiles are
    {!Drive.percentile}'s nearest ranks. [(nan, nan)] when empty. *)

val time : string -> (unit -> 'a) -> (string * float) list
(** [time key f] samples a repeatable call: the batch of calls to [f]
    doubles, untimed, until one lasts at least 1 ms; each sample times one
    such batch. *)

val time_each :
  ?per:int -> string -> setup:(unit -> 'a) -> ('a -> 'b) -> (string * float) list
(** [time_each key ~setup f] times one call of [f] per sample, on a fresh
    [setup ()] made outside the timed region: for calls that consume their
    state or run for long. [per] (default 1) is the ops in one call.
    Callers run [f] once untimed first (for their integers), which also
    warms it. *)

(** {2 Tables and artifacts} *)

val tables : row list -> (string list * string list list) list
(** (header, cells) per table. Consecutive rows with the same metric keys
    share a table; its columns are the label, then the integers, then the
    floats ([n/a] for NaN). *)

val emit : id:string -> title:string -> row list -> unit
(** Print the tables under the title, then write the artifact
    [<BENCH_DIR>/BENCH_<ID>.json] (creating the directory if needed) and
    print its path. *)

val load : string -> (doc, string) result
(** Parse an artifact; [Error] doubles as schema validation. *)

val check : baseline:doc -> current:doc -> (unit, string list) result
(** Exact comparison of ids, row labels, and integer metrics; floats are
    never compared. A [baseline] whose [mode] is not ["full"] is refused:
    committed baselines come from full-mode runs, while [current] may be
    of either mode. *)
