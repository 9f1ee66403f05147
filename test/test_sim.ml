(* Simulator substrate: clock, metrics, trace, network with adversary tap. *)

module Clock = Sim.Clock
module Metrics = Sim.Metrics
module Trace = Sim.Trace
module Net = Sim.Net

let test_clock () =
  let c = Clock.create () in
  Alcotest.(check int) "starts at 0" 0 (Clock.now c);
  Clock.advance c 100;
  Clock.advance c 50;
  Alcotest.(check int) "advances" 150 (Clock.now c);
  Alcotest.(check_raises "negative" (Invalid_argument "Clock.advance: negative step")
      (fun () -> Clock.advance c (-1)))

let test_metrics () =
  let m = Metrics.create () in
  Alcotest.(check int) "missing is 0" 0 (Metrics.get m "x");
  Metrics.incr m "x";
  Metrics.add m "x" 4;
  Metrics.add m "y" 10;
  Alcotest.(check int) "x" 5 (Metrics.get m "x");
  Alcotest.(check (list (pair string int))) "sorted list" [ ("x", 5); ("y", 10) ] (Metrics.snapshot m);
  let before = Metrics.snapshot m in
  Metrics.add m "x" 2;
  Metrics.incr m "z";
  Alcotest.(check (list (pair string int))) "diff"
    [ ("x", 2); ("z", 1) ]
    (List.sort compare (Metrics.diff ~before ~after:(Metrics.snapshot m)))

let test_trace () =
  let t = Trace.create () in
  Trace.record t ~time:1 ~actor:"kdc" "issued ticket for alice";
  Trace.record t ~time:2 ~actor:"fileserver" "granted read";
  Alcotest.(check int) "two entries" 2 (List.length (Trace.entries t));
  (match Trace.find t ~actor:"kdc" ~substring:"alice" with
  | Some e -> Alcotest.(check int) "time" 1 e.Trace.time
  | None -> Alcotest.fail "expected to find entry");
  Alcotest.(check bool) "no match" true (Trace.find t ~actor:"kdc" ~substring:"bob" = None)

let echo_net () =
  let net = Net.create ~seed:"test" () in
  Net.register net ~name:"server" (fun req -> "echo:" ^ req);
  net

let test_rpc_basic () =
  let net = echo_net () in
  (match Net.rpc net ~src:"client" ~dst:"server" "hi" with
  | Ok resp -> Alcotest.(check string) "response" "echo:hi" resp
  | Error e -> Alcotest.fail e);
  Alcotest.(check int) "2 messages" 2 (Metrics.get (Net.metrics net) "net.messages");
  Alcotest.(check int) "bytes counted"
    (String.length "hi" + String.length "echo:hi")
    (Metrics.get (Net.metrics net) "net.bytes");
  Alcotest.(check int) "latency applied both ways" 1000 (Net.now net);
  Alcotest.(check bool) "unknown node" true
    (Result.is_error (Net.rpc net ~src:"client" ~dst:"nobody" "hi"))

let test_rpc_latency_override () =
  let net = echo_net () in
  Net.set_latency net ~src:"client" ~dst:"server" 1000;
  Net.set_latency net ~src:"server" ~dst:"client" 3000;
  ignore (Net.rpc net ~src:"client" ~dst:"server" "x");
  Alcotest.(check int) "asymmetric link" 4000 (Net.now net)

let test_tap_drop_and_tamper () =
  let net = echo_net () in
  Net.set_tap net (fun ~dir ~src:_ ~dst:_ _ ->
      match dir with `Request -> Net.Drop | `Response -> Net.Deliver);
  Alcotest.(check bool) "dropped" true (Result.is_error (Net.rpc net ~src:"c" ~dst:"server" "x"));
  Alcotest.(check int) "drop counted" 1 (Metrics.get (Net.metrics net) "net.dropped");
  Net.set_tap net (fun ~dir ~src:_ ~dst:_ payload ->
      match dir with `Request -> Net.Replace ("evil:" ^ payload) | `Response -> Net.Deliver);
  (match Net.rpc net ~src:"c" ~dst:"server" "x" with
  | Ok resp -> Alcotest.(check string) "tampered" "echo:evil:x" resp
  | Error e -> Alcotest.fail e);
  Net.clear_tap net;
  match Net.rpc net ~src:"c" ~dst:"server" "x" with
  | Ok resp -> Alcotest.(check string) "tap cleared" "echo:x" resp
  | Error e -> Alcotest.fail e

let test_tap_eavesdrop () =
  let net = echo_net () in
  let seen = ref [] in
  Net.set_tap net (fun ~dir:_ ~src:_ ~dst:_ payload ->
      seen := payload :: !seen;
      Net.Deliver);
  ignore (Net.rpc net ~src:"c" ~dst:"server" "secret");
  Alcotest.(check (list string)) "observed both directions" [ "echo:secret"; "secret" ] !seen

let test_fresh_material () =
  let net = Net.create ~seed:"a" () in
  let k1 = Net.fresh_key net and k2 = Net.fresh_key net in
  Alcotest.(check int) "key size" 32 (String.length k1);
  Alcotest.(check bool) "keys differ" true (k1 <> k2);
  Alcotest.(check int) "nonce size" 12 (String.length (Net.fresh_nonce net));
  let net' = Net.create ~seed:"a" () in
  Alcotest.(check string) "seeded reproducibility" k1 (Net.fresh_key net')

(* --- seal nonces --- *)

let test_nonce_counter () =
  let net = Net.create ~seed:"nonces" () in
  let nonces = List.init 10_000 (fun _ -> Net.fresh_nonce net) in
  Alcotest.(check bool) "all 12 bytes" true (List.for_all (fun n -> String.length n = 12) nonces);
  let seen = Hashtbl.create 10_000 in
  List.iter (fun n -> Hashtbl.replace seen n ()) nonces;
  Alcotest.(check int) "pairwise distinct" 10_000 (Hashtbl.length seen);
  let prefix n = String.sub n 0 4 and count n = String.sub n 4 8 in
  Alcotest.(check string) "counter starts at 0" "\000\000\000\000\000\000\000\000"
    (count (List.hd nonces));
  Alcotest.(check string) "second nonce counts 1" "\000\000\000\000\000\000\000\001"
    (count (List.nth nonces 1));
  Alcotest.(check bool) "one prefix per net" true
    (List.for_all (fun n -> prefix n = prefix (List.hd nonces)) nonces);
  let again = Net.create ~seed:"nonces" () in
  Alcotest.(check bool) "same seed, same sequence" true
    (List.for_all (fun n -> Net.fresh_nonce again = n) nonces);
  let other = Net.create ~seed:"other nonces" () in
  Alcotest.(check bool) "different seed, different prefix" true
    (prefix (Net.fresh_nonce other) <> prefix (List.hd nonces))

(* Nonces are counted, not drawn: the key drawn after three nonces is the
   one a net that made none draws first. *)
let test_nonce_draws_nothing () =
  let a = Net.create ~seed:"no draw" () and b = Net.create ~seed:"no draw" () in
  for _ = 1 to 3 do
    ignore (Net.fresh_nonce a)
  done;
  Alcotest.(check string) "key unaffected by nonces" (Net.fresh_key b) (Net.fresh_key a)

(* Under drops, duplicates and retries, every nonce on the wire names
   exactly one sealed byte string: a retransmitted request and a cached
   reply are the same bytes, never a second seal under a reused nonce. The
   authenticator and the reply of one exchange carry different nonces. *)
let test_nonce_unique_on_wire () =
  let w = Testkit.create ~seed:"wire nonces" () in
  let net = w.Testkit.net in
  let servers =
    List.map
      (fun name ->
        let svc, key = Testkit.enrol w name in
        Secure_rpc.serve net ~me:svc ~my_key:key (fun _ payload -> Ok payload);
        svc)
      [ "svc-a"; "svc-b" ]
  in
  let creds =
    List.concat_map
      (fun name ->
        let client, _ = Testkit.enrol w name in
        let tgt = Testkit.login w client in
        List.map (fun svc -> Testkit.credentials_for w ~tgt svc) servers)
      [ "alice"; "bob" ]
  in
  let owner = Hashtbl.create 1024 and clashes = ref 0 and same_exchange = ref 0 in
  let record blob =
    let nonce = String.sub blob 0 12 in
    match Hashtbl.find_opt owner nonce with
    | None -> Hashtbl.replace owner nonce blob
    | Some b -> if b <> blob then incr clashes
  in
  let pending_auth = ref None and replies = ref 0 in
  Net.set_tap net (fun ~dir ~src:_ ~dst:_ msg ->
      (match (dir, Wire.decode msg) with
      | `Request, Ok (Wire.L (Wire.S "secure" :: Wire.S ticket :: Wire.S auth :: _)) ->
          record ticket;
          record auth;
          pending_auth := Some (String.sub auth 0 12)
      | `Response, Ok (Wire.L [ Wire.S "sealed"; Wire.S sealed ]) -> (
          record sealed;
          incr replies;
          match !pending_auth with
          | Some a when a = String.sub sealed 0 12 -> incr same_exchange
          | _ -> ())
      | _ -> ());
      Net.Deliver);
  Net.install_fault_plan net
    (Sim.Fault.plan ~seed:"wire nonces"
       [ Sim.Fault.drop 0.2; Sim.Fault.duplicate 0.2 ]);
  let retry = Sim.Retry.policy ~retries:6 () in
  let calls = 240 in
  for i = 1 to calls do
    let c = List.nth creds (i mod List.length creds) in
    ignore (Secure_rpc.call net ~creds:c ~retry (Wire.I i))
  done;
  let m = Net.metrics net in
  Alcotest.(check bool) "retries happened" true (Metrics.get m "rpc.retries" > 0);
  Alcotest.(check bool) "duplicates happened" true (Metrics.get m "fault.duplicated" > 0);
  Alcotest.(check bool) "cached replies served" true (Metrics.get m "rpc.dedup" > 0);
  Alcotest.(check bool) "a sealed reply per call at least" true (!replies >= calls / 2);
  Alcotest.(check int) "each nonce names one byte string" 0 !clashes;
  Alcotest.(check int) "authenticator and reply nonces differ" 0 !same_exchange

(* Retry back-off jitter has its own stream: a net that drew three extra
   keys before a retried call waits exactly as long as one that drew
   none. *)
let test_retry_jitter_stream () =
  let elapsed ~extra_keys =
    let w = Testkit.create ~seed:"jitter stream" () in
    let net = w.Testkit.net in
    let svc, key = Testkit.enrol w "svc" in
    Secure_rpc.serve net ~me:svc ~my_key:key (fun _ payload -> Ok payload);
    let client, _ = Testkit.enrol w "client" in
    let creds = Testkit.credentials_for w ~tgt:(Testkit.login w client) svc in
    for _ = 1 to extra_keys do
      ignore (Net.fresh_key net)
    done;
    let drops = ref 2 in
    Net.set_tap net (fun ~dir ~src:_ ~dst:_ _ ->
        match dir with
        | `Request when !drops > 0 ->
            decr drops;
            Net.Drop
        | _ -> Net.Deliver);
    let t0 = Net.now net in
    (match Secure_rpc.call net ~creds ~retry:(Sim.Retry.policy ()) (Wire.S "x") with
    | Ok _ -> ()
    | Error e -> Alcotest.fail e);
    Alcotest.(check int) "two retransmissions" 2 (Metrics.get (Net.metrics net) "rpc.retries");
    Net.now net - t0
  in
  Alcotest.(check int) "same virtual elapsed time" (elapsed ~extra_keys:0)
    (elapsed ~extra_keys:3)

let test_unregister () =
  let net = echo_net () in
  Net.unregister net ~name:"server";
  Alcotest.(check bool) "gone" true (Result.is_error (Net.rpc net ~src:"c" ~dst:"server" "x"))

let test_metrics_dist () =
  let m = Metrics.create () in
  Alcotest.(check bool) "missing dist" true (Metrics.dist m "lat" = None);
  Metrics.observe m "lat" 10;
  Metrics.observe m "lat" 30;
  Metrics.observe m "lat" 20;
  (match Metrics.dist m "lat" with
  | None -> Alcotest.fail "expected dist"
  | Some d ->
      Alcotest.(check int) "count" 3 d.Metrics.count;
      Alcotest.(check int) "sum" 60 d.Metrics.sum;
      Alcotest.(check int) "max" 30 d.Metrics.max;
      Alcotest.(check (float 0.001)) "mean" 20.0 (Metrics.mean d))

(* Zero-valued counters must survive into snapshots and show up in diffs —
   a counter that disappears between snapshots is a delta, not nothing. *)
let test_metrics_diff_zeros () =
  let m = Metrics.create () in
  Metrics.add m "x" 5;
  Metrics.add m "y" 0;
  Alcotest.(check (list (pair string int))) "snapshot keeps zeros"
    [ ("x", 5); ("y", 0) ] (Metrics.snapshot m);
  let before = Metrics.snapshot m in
  let after = Metrics.create () in
  Metrics.add after "z" 2;
  Alcotest.(check (list (pair string int))) "diff over the union of keys"
    [ ("x", -5); ("z", 2) ]
    (List.sort compare (Metrics.diff ~before ~after:(Metrics.snapshot after)))

(* The hazard at the raw transport: the handler's side effect happens, then
   the response is lost, and the client only sees an error. Resolving this
   is Secure_rpc's job (retry + response cache — see test_chaos). *)
let test_dropped_response_after_handler_ran () =
  let net = Net.create ~seed:"hazard" () in
  let handler_runs = ref 0 in
  Net.register net ~name:"server" (fun req ->
      incr handler_runs;
      "done:" ^ req);
  Net.set_tap net (fun ~dir ~src:_ ~dst:_ _ ->
      match dir with `Response -> Net.Drop | `Request -> Net.Deliver);
  (match Net.rpc net ~src:"c" ~dst:"server" "debit" with
  | Ok _ -> Alcotest.fail "response should have been lost"
  | Error e ->
      Alcotest.(check string) "lost after processing" "response dropped" e;
      Alcotest.(check bool) "retryable" true (Net.transient_error e));
  Alcotest.(check int) "side effect happened anyway" 1 !handler_runs

let test_fault_drop_and_duplicate () =
  let net = Net.create ~seed:"faulty" () in
  let handler_runs = ref 0 in
  Net.register net ~name:"server" (fun req ->
      incr handler_runs;
      req);
  Net.install_fault_plan net
    (Sim.Fault.plan ~seed:"faulty" [ Sim.Fault.drop 1.0 ]);
  (match Net.rpc net ~src:"c" ~dst:"server" "x" with
  | Ok _ -> Alcotest.fail "should drop"
  | Error e -> Alcotest.(check string) "request lost" "request dropped" e);
  Alcotest.(check int) "handler never ran" 0 !handler_runs;
  Alcotest.(check int) "counted" 1 (Metrics.get (Net.metrics net) "fault.dropped");
  (* A certain duplicate: at-least-once delivery runs the handler twice,
     and the duplicated response is absorbed by the client. *)
  Net.install_fault_plan net
    (Sim.Fault.plan ~seed:"faulty" [ Sim.Fault.duplicate 1.0 ]);
  (match Net.rpc net ~src:"c" ~dst:"server" "x" with
  | Ok resp -> Alcotest.(check string) "still answers" "x" resp
  | Error e -> Alcotest.fail e);
  Alcotest.(check int) "handler ran twice" 2 !handler_runs;
  Alcotest.(check int) "request and response duplicates counted" 2
    (Metrics.get (Net.metrics net) "fault.duplicated");
  Net.clear_fault_plan net;
  (match Net.rpc net ~src:"c" ~dst:"server" "x" with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check int) "plan cleared" 3 !handler_runs

(* Two identically seeded plans over identical workloads behave identically,
   and the plan's DRBG is independent of the environment's. *)
let test_fault_determinism () =
  let run () =
    let net = Net.create ~seed:"env" () in
    Net.register net ~name:"server" (fun req -> req);
    Net.install_fault_plan net
      (Sim.Fault.plan ~seed:"storm"
         [ Sim.Fault.drop 0.4; Sim.Fault.duplicate 0.3; Sim.Fault.jitter 700 ]);
    for i = 1 to 20 do
      ignore (Net.rpc net ~src:"c" ~dst:"server" (string_of_int i))
    done;
    (Metrics.snapshot (Net.metrics net), Net.fresh_key net)
  in
  let m1, k1 = run () and m2, k2 = run () in
  Alcotest.(check (list (pair string int))) "same metrics" m1 m2;
  Alcotest.(check string) "environment DRBG untouched by the plan" k1 k2;
  Alcotest.(check bool) "faults fired" true (List.assoc "fault.dropped" m1 > 0)

(* Down is not gone: a crashed node exists but does not answer, and the
   error is transient — unlike an unknown destination. *)
let test_node_down_vs_unregistered () =
  let net = echo_net () in
  Net.set_down net ~name:"server";
  Alcotest.(check bool) "down" true (Net.is_down net "server");
  (match Net.rpc net ~src:"c" ~dst:"server" "x" with
  | Ok _ -> Alcotest.fail "down node answered"
  | Error e ->
      Alcotest.(check string) "node down" "node down" e;
      Alcotest.(check bool) "transient" true (Net.transient_error e));
  Net.set_up net ~name:"server";
  (match Net.rpc net ~src:"c" ~dst:"server" "x" with
  | Ok resp -> Alcotest.(check string) "restarted with state" "echo:x" resp
  | Error e -> Alcotest.fail e);
  Net.unregister net ~name:"server";
  match Net.rpc net ~src:"c" ~dst:"server" "x" with
  | Ok _ -> Alcotest.fail "unknown node answered"
  | Error e ->
      Alcotest.(check string) "unknown" "unknown node server" e;
      Alcotest.(check bool) "not transient" false (Net.transient_error e)

let test_crash_window_and_partition () =
  let net = echo_net () in
  Net.install_fault_plan net
    (Sim.Fault.plan ~seed:"win"
       [ Sim.Fault.crash "server" ~at:1_000 ~until:5_000 ();
         Sim.Fault.partition ~a:[ "c2" ] ~b:[ "server" ] ~at:0 () ]);
  (* Before the window: up. (now = 0) *)
  Alcotest.(check bool) "up before window" false (Net.is_down net "server");
  (match Net.rpc net ~src:"c" ~dst:"server" "x" with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  (* Inside the window. *)
  Clock.advance (Net.clock net) 1_000;
  Alcotest.(check bool) "down inside window" true (Net.is_down net "server");
  (match Net.rpc net ~src:"c" ~dst:"server" "x" with
  | Ok _ -> Alcotest.fail "crashed node answered"
  | Error e -> Alcotest.(check string) "node down" "node down" e);
  (* After: restarted, state intact. *)
  Clock.advance (Net.clock net) 10_000;
  Alcotest.(check bool) "restarts" false (Net.is_down net "server");
  (match Net.rpc net ~src:"c" ~dst:"server" "x" with
  | Ok resp -> Alcotest.(check string) "handler state survives" "echo:x" resp
  | Error e -> Alcotest.fail e);
  (* The partition never heals ([until] = None) and cuts only c2. *)
  (match Net.rpc net ~src:"c2" ~dst:"server" "x" with
  | Ok _ -> Alcotest.fail "partitioned rpc got through"
  | Error e ->
      Alcotest.(check string) "partitioned" "network partitioned" e;
      Alcotest.(check bool) "transient" true (Net.transient_error e));
  match Net.rpc net ~src:"c1" ~dst:"server" "x" with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e

(* --- retry clock accounting --- *)

(* Pinned elapsed-time math for [Sim.Retry.run]: retries=2, timeout=10ms,
   backoff 1ms doubling, each with a jitter of up to a quarter of it that
   [retry_jitter] draws again from the same seed. Only attempts followed by
   a retransmission wait out their timeout; the final give-up returns
   immediately. A regression here means latency distributions are charged
   a timeout nobody waited for. *)
let retry_fixture () =
  let clock = Clock.create () in
  let drbg = Crypto.Drbg.create ~seed:"retry-pin" in
  let m = Metrics.create () in
  let p = Sim.Retry.policy ~retries:2 ~timeout_us:10_000 () in
  (clock, drbg, m, p)

(* The jitter of the two back-offs, up to 250us and then up to 500us. *)
let retry_jitter () =
  let drbg = Crypto.Drbg.create ~seed:"retry-pin" in
  let first = Crypto.Drbg.uniform_int drbg 251 in
  first + Crypto.Drbg.uniform_int drbg 501

let test_retry_gave_up_elapsed () =
  let clock, drbg, m, p = retry_fixture () in
  (match Sim.Retry.run ~clock ~drbg ~metrics:m p (fun () -> Error "request dropped") with
  | Ok () -> Alcotest.fail "all attempts failed but run returned Ok"
  | Error e -> Alcotest.(check string) "last error" "request dropped" e);
  (* attempt 1: +10_000 timeout +1_000 backoff; attempt 2: +10_000 +2_000;
     attempt 3 gives up without waiting — 23_000 and the jitter, not
     33_000. *)
  let elapsed = 23_000 + retry_jitter () in
  Alcotest.(check int) "elapsed excludes the give-up timeout" elapsed (Clock.now clock);
  Alcotest.(check int) "retries counted" 2 (Metrics.get m "rpc.retries");
  Alcotest.(check int) "gave up" 1 (Metrics.get m "rpc.gave_up");
  match Metrics.dist m "rpc.latency_us" with
  | None -> Alcotest.fail "no latency sample"
  | Some d ->
      Alcotest.(check int) "one sample" 1 d.Metrics.count;
      Alcotest.(check int) "latency matches the clock" elapsed d.Metrics.sum

let test_retry_success_elapsed () =
  let clock, drbg, m, p = retry_fixture () in
  let calls = ref 0 in
  (match
     Sim.Retry.run ~clock ~drbg ~metrics:m p (fun () ->
         incr calls;
         if !calls < 3 then Error "request dropped" else Ok ())
   with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (* Two failed attempts wait out timeout+backoff; the succeeding third
     attempt adds nothing. *)
  Alcotest.(check int) "elapsed" (23_000 + retry_jitter ()) (Clock.now clock);
  Alcotest.(check int) "no give-up" 0 (Metrics.get m "rpc.gave_up")

let test_retry_first_try_elapsed () =
  let clock, drbg, m, p = retry_fixture () in
  (match Sim.Retry.run ~clock ~drbg ~metrics:m p (fun () -> Ok ()) with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check int) "no waiting" 0 (Clock.now clock);
  Alcotest.(check int) "no retries" 0 (Metrics.get m "rpc.retries")

let () =
  Alcotest.run "sim"
    [ ("clock", [ ("advance", `Quick, test_clock) ]);
      ( "metrics",
        [ ("counters", `Quick, test_metrics);
          ("distributions", `Quick, test_metrics_dist);
          ("diff with zeros", `Quick, test_metrics_diff_zeros) ] );
      ("trace", [ ("audit log", `Quick, test_trace) ]);
      ( "net",
        [ ("rpc", `Quick, test_rpc_basic);
          ("latency override", `Quick, test_rpc_latency_override);
          ("adversary drop/tamper", `Quick, test_tap_drop_and_tamper);
          ("adversary eavesdrop", `Quick, test_tap_eavesdrop);
          ("fresh material", `Quick, test_fresh_material);
          ("nonces count per net", `Quick, test_nonce_counter);
          ("nonces draw nothing", `Quick, test_nonce_draws_nothing);
          ("nonces unique on the wire", `Quick, test_nonce_unique_on_wire);
          ("unregister", `Quick, test_unregister);
          ("dropped response after handler ran", `Quick, test_dropped_response_after_handler_ran) ] );
      ( "retry",
        [ ("give-up charges no timeout", `Quick, test_retry_gave_up_elapsed);
          ("success after retries", `Quick, test_retry_success_elapsed);
          ("first-try success waits nothing", `Quick, test_retry_first_try_elapsed);
          ("jitter has its own stream", `Quick, test_retry_jitter_stream) ] );
      ( "faults",
        [ ("drop and duplicate", `Quick, test_fault_drop_and_duplicate);
          ("seeded determinism", `Quick, test_fault_determinism);
          ("node down vs unregistered", `Quick, test_node_down_vs_unregistered);
          ("crash window and partition", `Quick, test_crash_window_and_partition) ] ) ]
