(** Causal spans with per-span cost attribution.

    Where {!Trace} is a flat audit log, a span collector records a tree:
    every instrumented operation opens a span carrying
    [(trace_id, span_id, parent_id, actor, kind)] and its virtual start/end
    times, and on close captures the {!Metrics} delta over its interval.
    The delta is split into {e self} cost (what the span did itself) and
    what its children already claimed, so summing self costs over a traced
    region reproduces the global metrics diff exactly — per-request cost
    attribution with nothing double-counted and nothing lost.

    Nesting is ambient: the sim is synchronous (a server handler runs
    inside the client's {!Net.rpc} call), so a per-collector stack of open
    spans gives correct parentage without any explicit threading. Crossing
    a trust boundary where the ambient stack must not be relied upon (the
    sealed RPC envelope), callers pass an explicit {!context}.

    Ids are minted from a collector-private DRBG seeded from the net seed
    — deterministic per seed, and enabling tracing never perturbs the keys
    or nonces the run would otherwise draw. Completed spans live in a
    bounded ring buffer; overflow drops the oldest and counts it. *)

type span = {
  sp_trace : string;  (** 16-hex trace id shared by one causal tree *)
  sp_id : string;  (** 16-hex span id *)
  sp_parent : string option;
  sp_actor : string;
  sp_kind : string;  (** dotted operation class, e.g. ["rpc.call"] *)
  sp_name : string;  (** optional instance label *)
  sp_start : int;  (** virtual microseconds *)
  sp_end : int;
  sp_attrs : (string * string) list;  (** in attachment order *)
  sp_costs : (string * int) list;
      (** self cost: per-counter metrics delta net of children, sorted *)
}

type context = { ctx_trace : string; ctx_span : string }

type t

val create : ?capacity:int -> seed:string -> clock:Clock.t -> metrics:Metrics.t -> unit -> t
(** [capacity] bounds the completed-span ring (default 65536, min 1). *)

val with_span :
  t option ->
  actor:string ->
  kind:string ->
  ?name:string ->
  ?attrs:(string * string) list ->
  ?parent:context ->
  (unit -> 'a) -> 'a
(** Run [f] inside a span. [None] is a disabled collector: [f] runs bare,
    zero cost — instrumentation sites never branch themselves. [?parent]
    overrides the ambient parent (remote propagation); otherwise the
    innermost open span is the parent, and a span opened with an empty
    stack roots a fresh trace. Exceptions propagate; the span closes with
    an ["error"] attribute. *)

val context : t option -> context option
(** The innermost open span, in the form the RPC envelope carries. *)

val add_attr : t option -> string -> string -> unit
(** Attach an attribute to the innermost open span (no-op when disabled or
    outside any span). *)

val spans : t -> span list
(** Completed spans, oldest first. Children complete before parents. *)

val clear : t -> unit
val dropped : t -> int

val contains_substring : needle:string -> string -> bool
(** Iterative scan — safe on multi-MB strings (the recursive predecessor
    overflowed the stack at a few hundred KB). *)

(** {2 Aggregation} *)

val cost_total : span list -> (string * int) list
(** Sum of self costs — equals the global metrics diff over the traced
    region when every tick happened inside some span. *)

val max_depth : span list -> int
(** Longest parent chain resolvable within the list. *)

val actors : span list -> string list
(** Distinct actors, in order of first appearance. *)

(** {2 Exporters} *)

val to_chrome_trace : span list -> string
(** Chrome trace-event JSON (["ph":"X"] complete events, microsecond
    ts/dur, one tid per actor) for chrome://tracing / ui.perfetto.dev.
    Attributes and self costs (prefixed ["cost."]) ride in [args]. *)

val to_jsonl : span list -> string
(** One JSON object per line, fixed key order — byte-identical across
    same-seed runs. *)
