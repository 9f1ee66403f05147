(* The back-off before retransmission [attempt]: 1ms doubling per further
   retransmission, its deterministic part capped at 60ms, plus a uniform
   jitter of up to a quarter of it. *)
let base_us = 1_000
let factor = 2.0
let jitter = 0.25
let cap_us = 60_000

let delay_us ~drbg ~attempt =
  let raw = float_of_int base_us *. (factor ** float_of_int (attempt - 1)) in
  let capped = min raw (float_of_int cap_us) in
  let base = int_of_float capped in
  let spread = int_of_float (capped *. jitter) in
  base + if spread > 0 then Crypto.Drbg.uniform_int drbg (spread + 1) else 0

type policy = { retries : int; timeout_us : int }

let policy ?(retries = 4) ?(timeout_us = 10_000) () =
  if retries < 0 then invalid_arg "Retry.policy: negative retries";
  if timeout_us < 0 then invalid_arg "Retry.policy: negative timeout";
  { retries; timeout_us }

let run ~clock ~drbg ?metrics p f =
  let count name = match metrics with Some m -> Metrics.incr m name | None -> () in
  let t0 = Clock.now clock in
  count "rpc.calls";
  let finish result =
    (match metrics with
    | Some m -> Metrics.observe m "rpc.latency_us" (Clock.now clock - t0)
    | None -> ());
    result
  in
  let rec go attempt =
    match f () with
    | Ok _ as ok -> finish ok
    | Error e as error ->
        if not (Net.transient_error e) then finish error
        else if attempt > p.retries then begin
          (* Out of budget: give up immediately. Only attempts that are
             followed by a retransmission wait out their timeout — charging
             the final attempt a full timeout it never waited for skewed
             every latency distribution upward. *)
          count "rpc.gave_up";
          finish error
        end
        else begin
          (* A transient failure is silent on the wire: the client only
             learns about it by waiting out its timeout. *)
          Clock.advance clock p.timeout_us;
          count "rpc.retries";
          Clock.advance clock (delay_us ~drbg ~attempt);
          go (attempt + 1)
        end
  in
  go 1
