let log_src = Logs.Src.create "sim.net" ~doc:"simulated network traffic"

module Log = (val Logs.src_log log_src : Logs.LOG)

type tap_action = Deliver | Replace of string | Drop

type t = {
  seed : string;
  clock : Clock.t;
  drbg : Crypto.Drbg.t;
  retry_drbg : Crypto.Drbg.t;
  nonce_prefix : string;
  mutable nonces : int;
  metrics : Metrics.t;
  trace : Trace.t;
  mutable spans : Span.t option;
  nodes : (string, string -> string) Hashtbl.t;
  latency : (string * string, int) Hashtbl.t;
  mutable tap : (dir:[ `Request | `Response ] -> src:string -> dst:string -> string -> tap_action) option;
  mutable fault : Fault.runtime option;
  down : (string, unit) Hashtbl.t;
}

let create ?(seed = "proxykit") () =
  {
    seed;
    clock = Clock.create ();
    drbg = Crypto.Drbg.create ~seed;
    retry_drbg = Crypto.Drbg.create ~seed:("retry:" ^ seed);
    nonce_prefix = String.sub (Crypto.Sha256.digest ("nonce-prefix:" ^ seed)) 0 4;
    nonces = 0;
    metrics = Metrics.create ();
    trace = Trace.create ();
    spans = None;
    nodes = Hashtbl.create 16;
    latency = Hashtbl.create 16;
    tap = None;
    fault = None;
    down = Hashtbl.create 4;
  }

let clock t = t.clock
let drbg t = t.drbg
let retry_drbg t = t.retry_drbg
let metrics t = t.metrics
let trace t = t.trace
let spans t = t.spans

(* The collector's DRBG is seeded from the net seed (prefixed, like the
   fault plan's), never the shared environment DRBG: enabling tracing does
   not change a single key, nonce, or fault decision of the run. *)
let enable_tracing ?capacity t =
  t.spans <- Some (Span.create ?capacity ~seed:("span:" ^ t.seed) ~clock:t.clock ~metrics:t.metrics ())

let now t = Clock.now t.clock
let fresh_key t = Crypto.Drbg.generate t.drbg 32

(* The net's 4-byte prefix, then a 64-bit big-endian count of the nonces
   it has handed out. Unique per key because every key is drawn inside
   one net and sealed under only there (DESIGN.md §9, "Counted seal
   nonces"). *)
let fresh_nonce t =
  let b = Bytes.create 12 in
  Bytes.blit_string t.nonce_prefix 0 b 0 4;
  Bytes.set_int64_be b 4 (Int64.of_int t.nonces);
  t.nonces <- t.nonces + 1;
  Bytes.unsafe_to_string b

let register t ~name handler = Hashtbl.replace t.nodes name handler
let unregister t ~name = Hashtbl.remove t.nodes name

let set_latency t ~src ~dst us = Hashtbl.replace t.latency (src, dst) us

(* One-way, per message, on every link [set_latency] has not set. *)
let default_latency_us = 500

let link_latency t src dst =
  match Hashtbl.find_opt t.latency (src, dst) with
  | Some us -> us
  | None -> default_latency_us

let set_tap t f = t.tap <- Some f
let clear_tap t = t.tap <- None

let install_fault_plan t plan = t.fault <- Some (Fault.runtime plan)
let clear_fault_plan t = t.fault <- None

let set_down t ~name = Hashtbl.replace t.down name ()
let set_up t ~name = Hashtbl.remove t.down name

let is_down t name =
  Hashtbl.mem t.down name
  || (match t.fault with Some rt -> Fault.node_down rt ~now:(Clock.now t.clock) name | None -> false)

let partitioned t src dst =
  match t.fault with
  | Some rt -> Fault.partitioned rt ~now:(Clock.now t.clock) ~src ~dst
  | None -> false

(* Transport errors a client may safely retry by retransmitting the same
   bytes: the failure is environmental, not a verdict from the service. *)
let err_request_dropped = "request dropped"
let err_response_dropped = "response dropped"
let err_partitioned = "network partitioned"
let err_node_down = "node down"

let transient_error = function
  | e when e = err_request_dropped -> true
  | e when e = err_response_dropped -> true
  | e when e = err_partitioned -> true
  | e when e = err_node_down -> true
  | _ -> false

(* One message over one link: metered, clocked, through the adversary tap
   first (the attacker acts at the sender) and then the fault plan (the
   environment loses, duplicates, or delays what the attacker let through).
   Returns the delivered payload and whether the environment duplicated
   it. *)
let transmit t ~dir ~src ~dst payload =
  Metrics.incr t.metrics "net.messages";
  Metrics.add t.metrics "net.bytes" (String.length payload);
  Clock.advance t.clock (link_latency t src dst);
  let tapped =
    match t.tap with
    | None -> Some payload
    | Some tap -> (
        match tap ~dir ~src ~dst payload with
        | Deliver -> Some payload
        | Replace payload' -> Some payload'
        | Drop ->
            Metrics.incr t.metrics "net.dropped";
            None)
  in
  match tapped with
  | None -> None
  | Some payload' -> (
      match t.fault with
      | None -> Some (payload', false)
      | Some rt ->
          let o = Fault.transit rt in
          if o.Fault.o_jitter_us > 0 then begin
            Metrics.add t.metrics "fault.jitter_us" o.Fault.o_jitter_us;
            Clock.advance t.clock o.Fault.o_jitter_us
          end;
          if o.Fault.o_drop then begin
            Metrics.incr t.metrics "fault.dropped";
            None
          end
          else begin
            if o.Fault.o_duplicate then Metrics.incr t.metrics "fault.duplicated";
            Some (payload', o.Fault.o_duplicate)
          end)

let rpc t ~src ~dst request =
  match Hashtbl.find_opt t.nodes dst with
  | None ->
      Log.debug (fun m -> m "[%d] %s -> %s: unknown node" (Clock.now t.clock) src dst);
      Error (Printf.sprintf "unknown node %s" dst)
  | Some handler ->
      if is_down t dst then begin
        (* The message travels; nothing answers. The caller's timeout (see
           Retry) is what turns this silence into a client-side error. *)
        Metrics.incr t.metrics "net.messages";
        Metrics.add t.metrics "net.bytes" (String.length request);
        Clock.advance t.clock (link_latency t src dst);
        Metrics.incr t.metrics "fault.node_down";
        Log.debug (fun m -> m "[%d] %s -> %s: node down" (Clock.now t.clock) src dst);
        Error err_node_down
      end
      else if partitioned t src dst then begin
        Metrics.incr t.metrics "net.messages";
        Metrics.add t.metrics "net.bytes" (String.length request);
        Clock.advance t.clock (link_latency t src dst);
        Metrics.incr t.metrics "fault.partitioned";
        Log.debug (fun m -> m "[%d] %s -> %s: partitioned" (Clock.now t.clock) src dst);
        Error err_partitioned
      end
      else begin
        Log.debug (fun m ->
            m "[%d] %s -> %s: request (%d bytes)" (Clock.now t.clock) src dst
              (String.length request));
        match transmit t ~dir:`Request ~src ~dst request with
        | None -> Error err_request_dropped
        | Some (request', duplicated) -> (
            let response = handler request' in
            let response =
              if duplicated then begin
                (* At-least-once delivery: the duplicate copy also traverses
                   the link and is processed; the client ends up reading the
                   response to the later copy (the earlier one is modelled
                   as superseded in its buffer). *)
                Metrics.incr t.metrics "net.messages";
                Metrics.add t.metrics "net.bytes" (String.length request');
                Clock.advance t.clock (link_latency t src dst);
                handler request'
              end
              else response
            in
            match transmit t ~dir:`Response ~src:dst ~dst:src response with
            | None -> Error err_response_dropped
            | Some (response', _dup) ->
                (* A duplicated response is absorbed by the client: it was
                   already counted by [transmit]. *)
                Log.debug (fun m ->
                    m "[%d] %s <- %s: response (%d bytes)" (Clock.now t.clock) src dst
                      (String.length response'));
                Ok response')
      end
