(** Simulated network and simulation environment.

    Nodes register request handlers by name; clients call {!rpc}. Every
    exchange is metered (messages, bytes) and advances the virtual clock by
    the configured link latency, so protocol-cost experiments read their
    numbers straight from {!Metrics}. An optional {e tap} models an active
    network adversary able to observe, tamper with, or drop traffic — the
    paper's eavesdropper who must not be able to steal capabilities off the
    wire. An optional {e fault plan} ({!Fault}) models the environment:
    seeded probabilistic drop/duplication/jitter, node crash windows, and
    partitions. Tap and plan compose — the tap runs first.

    The environment bundle (clock, DRBG, metrics, trace) lives here too,
    since every service needs all four. So do two per-net streams that
    must not move with the DRBG: seal nonces ({!fresh_nonce}) and retry
    back-off jitter ({!retry_drbg}). *)

type t

val create : ?seed:string -> ?default_latency_us:int -> unit -> t
(** [default_latency_us] is the one-way per-message latency (default 500). *)

val clock : t -> Clock.t
val drbg : t -> Crypto.Drbg.t

val retry_drbg : t -> Crypto.Drbg.t
(** The DRBG that {!Retry} back-off jitter draws from, seeded
    ["retry:" ^ seed] like the span collector's: a change in how many keys
    or other values a run draws from {!drbg} never moves a virtual retry
    delay. *)

val metrics : t -> Metrics.t
val trace : t -> Trace.t

val spans : t -> Span.t option
(** The span collector, when tracing is enabled. Instrumentation sites pass
    this straight to {!Span.with_span}, which is a no-op on [None]. *)

val enable_tracing : ?capacity:int -> t -> unit
(** Attach a fresh {!Span} collector. Its DRBG is seeded ["span:" ^ seed]
    — separate from the environment DRBG, so tracing never perturbs keys,
    nonces, or fault decisions; two traced runs of one seed produce
    byte-identical span trees. [capacity] bounds the completed-span ring. *)

val now : t -> int
(** Shorthand for [Clock.now (clock t)]. *)

val fresh_key : t -> string
(** 32 fresh DRBG bytes — the standard symmetric key / proxy key source. *)

val fresh_nonce : t -> string
(** A 12-byte AEAD nonce: a 4-byte prefix, the first 4 bytes of a
    domain-separated SHA-256 of the net's seed, then a 64-bit big-endian
    counter that starts at 0 and counts this net's nonces. It draws nothing
    from {!drbg}. Unique per key as long as a key is sealed under in one
    net only, which holds because keys come from {!fresh_key} and never
    cross between nets. *)

val register : t -> name:string -> (string -> string) -> unit
(** Install (or replace) the handler for a node. The handler receives the
    request bytes and returns response bytes. *)

val unregister : t -> name:string -> unit

val set_latency : t -> src:string -> dst:string -> int -> unit
(** Override the one-way latency of a directed link. *)

type tap_action =
  | Deliver  (** pass the message through unchanged *)
  | Replace of string  (** tamper: substitute payload *)
  | Drop  (** lose the message *)

val set_tap : t -> (dir:[ `Request | `Response ] -> src:string -> dst:string -> string -> tap_action) -> unit
val clear_tap : t -> unit

val install_fault_plan : t -> Fault.plan -> unit
(** Install (or replace) the fault plan. Its DRBG is freshly seeded from the
    plan's own seed, so two installs of the same plan behave identically and
    never perturb the environment DRBG. Counters:
    ["fault.dropped"], ["fault.duplicated"], ["fault.jitter_us"],
    ["fault.node_down"], ["fault.partitioned"]. *)

val clear_fault_plan : t -> unit

val set_down : t -> name:string -> unit
(** Mark a node crashed by hand (fail-stop, state kept). Distinct from
    {!unregister}: a down node exists but does not answer — {!rpc} returns
    the transient ["node down"], not ["unknown node ..."]. *)

val set_up : t -> name:string -> unit
val is_down : t -> string -> bool
(** Down by hand or inside a fault-plan crash window at the current time. *)

val transient_error : string -> bool
(** Is this {!rpc} error environmental (dropped/duplicated link, node down,
    partition) — i.e. safe to retry by retransmitting the same bytes —
    rather than a verdict from the service? *)

val rpc : t -> src:string -> dst:string -> string -> (string, string) result
(** One request/response exchange. [Error] covers unknown destination,
    adversarial drops, and injected faults; service-level failures travel
    in-band in the response. Under a fault plan a duplicated request is
    processed by the handler {e twice} (at-least-once delivery) and the
    client reads the later response. *)
