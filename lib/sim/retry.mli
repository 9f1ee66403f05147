(** Client-side resilience: timeouts, bounded retries, capped exponential
    backoff with DRBG jitter.

    In the simulator a lost message surfaces immediately as a transient
    [Error]; a real client only learns about silence by waiting. [run]
    models that: every silent failure charges the caller its timeout on the
    virtual clock, then backs off and retransmits, so chaos benches read
    honest latency numbers that include waiting.

    Determinism: backoff jitter draws from the DRBG handed in, so a whole
    retried workload is reproducible from the environment seed.
    [Secure_rpc.call] hands in {!Net.retry_drbg}, a stream of its own, so
    draws of keys and other values never move a retry delay. *)

type policy = {
  retries : int;  (** retransmissions after the first attempt *)
  timeout_us : int;  (** how long the client waits out a silent failure *)
}

val policy : ?retries:int -> ?timeout_us:int -> unit -> policy
(** Defaults: 4 retries, 10ms timeout. *)

val run :
  clock:Clock.t ->
  drbg:Crypto.Drbg.t ->
  ?metrics:Metrics.t ->
  policy ->
  (unit -> ('a, string) result) ->
  ('a, string) result
(** Run one logical call with at-most-[1 + retries] attempts.
    {!Net.transient_error} decides which errors are environmental; any
    other error returns immediately. Every retryable failure advances the
    clock by [timeout_us] (the wait that detected it), and each
    retransmission additionally waits out the backoff delay: 1ms before
    the first, doubling for each further one, capped at 60ms, plus a
    uniform jitter of up to a quarter of that delay.

    With [metrics]: increments ["rpc.calls"], ["rpc.retries"] (one per
    retransmission), ["rpc.gave_up"] (logical calls that exhausted their
    budget), and observes the logical call's total virtual latency —
    retries, timeouts, and backoff included — into the ["rpc.latency_us"]
    distribution. *)
