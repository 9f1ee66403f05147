(** Machine-readable bench artifacts.

    Each instrumented experiment writes [BENCH_<ID>.json] next to its human
    table, so every PR leaves a perf trajectory to regress against. A row
    separates {e logical} metrics — integers: ops, bytes, crypto-op
    counters, virtual-time latency, all deterministic under the fixed
    seeds — from {e physical} ones — floats: wall-clock nanoseconds, which
    vary by machine. {!check} compares the logical metrics exactly and
    ignores the physical ones; that is the CI gating rule.

    Environment: [BENCH_DIR] overrides the output directory (default
    [bench]); [BENCH_FAST=1] asks experiments to cut wall-time sampling —
    logical metrics are unaffected, so a fast run still checks cleanly
    against a full-run baseline. *)

type row = {
  label : string;
  ints : (string * int) list;  (** logical metrics: compared exactly *)
  floats : (string * float) list;  (** wall-times etc.: reported only *)
}

type doc = { id : string; title : string; mode : string; rows : row list }

val schema_version : int

val fast : bool
(** [BENCH_FAST] is set: reduce measurement iterations, keep logical work. *)

val mode : string
(** ["fast"] or ["full"]; recorded in the artifact. *)

val path_for : string -> string
(** [path_for id] is [<BENCH_DIR>/BENCH_<ID>.json]. *)

val write : id:string -> title:string -> row list -> unit
(** Write the artifact (creating the directory if needed) and print the
    path. *)

val load : string -> (doc, string) result
(** Parse an artifact; [Error] doubles as schema validation. *)

val check : baseline:doc -> current:doc -> (unit, string list) result
(** Exact comparison of ids, row labels, and integer metrics; floats are
    never compared. *)
