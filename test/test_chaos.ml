(* Chaos: the accounting world under deterministic fault injection.

   A seeded fault-plan matrix (drop + duplicate + jitter + drawee crash)
   runs the two-bank marketplace workload; whatever the environment does,
   value must be conserved across every ledger, no check number may clear
   twice, and the whole run must replay bit-for-bit from its seed. Plus
   the targeted version of the core hazard: a response lost after the
   handler ran, resolved by retransmission hitting the server's response
   cache. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- the seeded chaos matrix --- *)

let matrix_configs =
  [
    ("calm", { Chaos.default with seed = "chaos-calm"; drop = 0.05; duplicate = 0.05; crash_drawee = false });
    ("default", { Chaos.default with seed = "chaos-default" });
    ("stormy", { Chaos.default with seed = "chaos-stormy"; drop = 0.25; duplicate = 0.15 });
  ]

let test_matrix () =
  List.iter
    (fun (label, cfg) ->
      let o = Chaos.run cfg in
      (match o.Chaos.conserved with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s: %s" label e);
      check_int (label ^ ": no double redemptions") 0 o.Chaos.double_redemptions;
      check (label ^ ": some operations succeed") true (o.Chaos.succeeded > 0);
      check (label ^ ": faults actually fired") true (o.Chaos.faults_dropped > 0);
      check
        (label ^ ": duplicates absorbed or none injected")
        true
        (o.Chaos.faults_duplicated = 0 || o.Chaos.dedups >= 0);
      check (label ^ ": retries happened") true (o.Chaos.retries_used > 0))
    matrix_configs

(* Same seed, same everything: the digest holds the metrics (retries and
   dedups included) and the audit trail. *)
let test_determinism () =
  let a = Chaos.run Chaos.default and b = Chaos.run Chaos.default in
  check_int "succeeded" a.Chaos.succeeded b.Chaos.succeeded;
  Alcotest.(check (list (pair string int))) "redemptions" a.Chaos.redemptions b.Chaos.redemptions;
  Alcotest.(check string) "digest" a.Chaos.digest b.Chaos.digest

(* And different seeds genuinely explore different schedules: the counters
   differ, not just the DRBG-drawn check numbers that make any two seeds'
   digests differ even when the runs do the same work. *)
let test_seed_sensitivity () =
  let a = Chaos.run Chaos.default
  and b = Chaos.run { Chaos.default with seed = "chaos-other" } in
  check "different seeds, different runs" true (a.Chaos.metrics <> b.Chaos.metrics)

(* --- the core hazard, in isolation ---

   The handler runs, then the response is lost. Without retries the client
   is stuck: retrying naively would normally re-run the handler (double
   debit); not retrying loses the answer. With retries, the retransmission
   carries the SAME authenticator, the server's response cache answers it,
   and the handler still ran exactly once. *)

let test_lost_response_exactly_once () =
  let w = World.create ~seed:"lost-response" () in
  let server, server_key = World.enrol w "counter-server" in
  let client, _ = World.enrol w "client" in
  let handler_runs = ref 0 in
  Secure_rpc.serve w.World.net ~me:server ~my_key:server_key (fun _ctx payload ->
      incr handler_runs;
      Ok payload);
  let tgt = World.login w client in
  let creds = World.credentials_for w ~tgt server in
  (* Lose exactly the first response after the handler has run. *)
  let dropped = ref false in
  Sim.Net.set_tap w.World.net (fun ~dir ~src:_ ~dst:_ _payload ->
      match dir with
      | `Response when not !dropped ->
          dropped := true;
          Sim.Net.Drop
      | _ -> Sim.Net.Deliver);
  (match
     Secure_rpc.call w.World.net ~creds ~retry:(Sim.Retry.policy ~retries:2 ()) (Wire.S "ping")
   with
  | Ok (Wire.S "ping") -> ()
  | Ok _ -> Alcotest.fail "wrong echo"
  | Error e -> Alcotest.failf "call failed: %s" e);
  check "the response really was lost once" true !dropped;
  check_int "handler ran exactly once" 1 !handler_runs;
  check_int "retransmission served from the response cache" 1
    (Sim.Metrics.get (Sim.Net.metrics w.World.net) "rpc.dedup");
  check_int "one logical call under the retry policy" 1
    (Sim.Metrics.get (Sim.Net.metrics w.World.net) "rpc.calls")

(* Without a retry budget the same loss is a hard failure — the hazard the
   cache+retry combination exists to fix. *)
let test_lost_response_without_retries () =
  let w = World.create ~seed:"lost-response-bare" () in
  let server, server_key = World.enrol w "counter-server" in
  let client, _ = World.enrol w "client" in
  let handler_runs = ref 0 in
  Secure_rpc.serve w.World.net ~me:server ~my_key:server_key (fun _ctx payload ->
      incr handler_runs;
      Ok payload);
  let tgt = World.login w client in
  let creds = World.credentials_for w ~tgt server in
  Sim.Net.set_tap w.World.net (fun ~dir ~src:_ ~dst:_ _payload ->
      match dir with `Response -> Sim.Net.Drop | _ -> Sim.Net.Deliver);
  (match Secure_rpc.call w.World.net ~creds (Wire.S "ping") with
  | Ok _ -> Alcotest.fail "should have failed"
  | Error e -> check "transient error" true (Sim.Net.transient_error e));
  check_int "handler ran anyway — the side effect happened" 1 !handler_runs;
  check_int "no retry policy: the call bypasses Sim.Retry" 0
    (Sim.Metrics.get (Sim.Net.metrics w.World.net) "rpc.calls")

(* --- replay cache boundary: an entry is dead at exactly its expiry --- *)

let test_replay_cache_boundary () =
  let rc = Replay_cache.create () in
  (match Replay_cache.record rc ~now:0 ~expires:10 "check-1" with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  check "live strictly before expiry" true (Replay_cache.seen rc ~now:9 "check-1");
  check "dead at exactly expires = now" false (Replay_cache.seen rc ~now:10 "check-1");
  (* And once expired, the number can be recorded again. *)
  (match Replay_cache.record rc ~now:10 ~expires:20 "check-1" with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("re-record after expiry: " ^ e));
  check "live again" true (Replay_cache.seen rc ~now:15 "check-1")

let () =
  Alcotest.run "chaos"
    [
      ( "chaos",
        [
          Alcotest.test_case "seeded fault matrix conserves value" `Quick test_matrix;
          Alcotest.test_case "bit-for-bit determinism" `Quick test_determinism;
          Alcotest.test_case "seed sensitivity" `Quick test_seed_sensitivity;
        ] );
      ( "exactly-once",
        [
          Alcotest.test_case "lost response + retry = exactly once" `Quick
            test_lost_response_exactly_once;
          Alcotest.test_case "lost response without retry is a hard failure" `Quick
            test_lost_response_without_retries;
          Alcotest.test_case "replay cache expiry boundary" `Quick test_replay_cache_boundary;
        ] );
    ]
