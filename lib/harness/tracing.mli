(** Traced end-to-end scenarios (the `proxykit trace` subcommand, the span
    tests, and the BENCH_F4 attribution rows all run these).

    Setup (enrolment, key generation, provisioning) happens untraced; then
    tracing is enabled and [requests] requests run, each under a fresh root
    span. The outcome pairs the resulting span tree with the global
    {!Sim.Metrics} diff over the same window, so callers can verify that
    per-span self costs sum exactly to the global delta. *)

type outcome = {
  net : Sim.Net.t;  (** for access to the live collector / clock *)
  requests : int;
  ok : int;  (** requests that succeeded end to end *)
  spans : Sim.Span.span list;  (** completed spans, oldest first *)
  delta : (string * int) list;
      (** global metrics diff over the traced window *)
  dropped : int;  (** spans lost to ring overflow *)
  gates : Drive.gate list;  (** self costs sum exactly to [delta] *)
  digest : string;  (** metrics snapshot, audit trail and span JSONL *)
}

val run_f4 :
  ?seed:string ->
  ?requests:int ->
  ?depth:int ->
  ?capacity:int ->
  ?plan:Sim.Fault.plan ->
  unit ->
  outcome
(** Cascaded authorization against a file server (paper Figure 4 shape):
    bob presents alice's depth-[depth] public-key bearer cascade; the
    guard's chain walk emits one [verify.cert] span per link with resolver
    lookups nested beneath, and an injected drop of the first file-server
    request forces a retry child under the first request's [rpc.call].
    Defaults: [seed = "trace-f4"], [requests = 3], [depth = 3]. *)

val run_f5 :
  ?seed:string ->
  ?requests:int ->
  ?capacity:int ->
  ?plan:Sim.Fault.plan ->
  unit ->
  outcome
(** Inter-bank check clearing (paper Figure 5 shape): alice's checks,
    deposited by bob at bank-b, are endorsed onward and collected from
    bank-a — spans cross bob, both banks, and the KDC. Defaults:
    [seed = "trace-f5"], [requests = 2]. *)

(** {2 Runner entries}

    A smoke of either scenario adds, to exact attribution: every request
    succeeded, no span dropped, at least 4 causally nested spans across at
    least 3 actors, some cost in every span's subtree, a Chrome export
    that {!Sim.Json.valid} accepts and, for f4, a retry child under the
    injected drop. *)

val f4_entry : ?seed:string -> ?requests:int -> ?depth:int -> unit -> outcome Drive.entry
val f5_entry : ?seed:string -> ?requests:int -> unit -> outcome Drive.entry
