(* The open-loop load harness: the population generator's determinism and
   key-pool economy, the driver's byte-identical same-seed replay with the
   batched hot path on and off, the cascade study's exact RSA accounting,
   and RPC pipelining's exactly-once semantics under retransmission. *)

module Population = Load.Population
module Driver = Load.Driver
module Net = Sim.Net

(* --- Zipf popularity --- *)

let test_zipf_deterministic () =
  let z = Population.zipf 100_000 in
  Alcotest.(check int) "size" 100_000 (Population.zipf_size z);
  let draw () =
    let drbg = Crypto.Drbg.create ~seed:"zipf-det" in
    List.init 500 (fun _ -> Population.zipf_sample z drbg)
  in
  let a = draw () and b = draw () in
  Alcotest.(check (list int)) "same seed, same ranks" a b;
  List.iter
    (fun r ->
      if r < 0 || r >= 100_000 then Alcotest.failf "rank %d outside the universe" r)
    a

let test_zipf_head_heavy () =
  let z = Population.zipf 10_000 in
  let drbg = Crypto.Drbg.create ~seed:"zipf-skew" in
  let hits = Hashtbl.create 64 in
  for _ = 1 to 4_000 do
    let r = Population.zipf_sample z drbg in
    Hashtbl.replace hits r (1 + Option.value ~default:0 (Hashtbl.find_opt hits r))
  done;
  let count r = Option.value ~default:0 (Hashtbl.find_opt hits r) in
  (* Rank 0 carries weight 1/1 of a harmonic total ~ln(10^4) ~ 9.8, so
     ~10% of draws; any single cold rank carries ~1/r of that. *)
  Alcotest.(check bool) "rank 0 is hot" true (count 0 > 200);
  Alcotest.(check bool) "rank 0 beats rank 100" true (count 0 > count 100);
  Alcotest.(check bool) "rejects empty universe" true
    (try ignore (Population.zipf 0); false with Invalid_argument _ -> true)

(* --- Pooled RSA keys --- *)

let test_pool_never_aliases_live_keys () =
  let pool = Population.pool ~seed:"pool-alias" () in
  let keys = List.init 5 (fun _ -> Population.acquire pool) in
  List.iteri
    (fun i ki ->
      List.iteri
        (fun j kj -> if i < j && ki == kj then Alcotest.failf "keys %d and %d alias" i j)
        keys)
    keys;
  Alcotest.(check int) "five keygens" 5 (Population.pool_generated pool);
  Alcotest.(check int) "five live" 5 (Population.pool_live pool);
  (* Release one; the next acquire must reuse exactly it, and the reuse
     must not cost a keygen. *)
  let k0 = List.hd keys in
  Population.release pool k0;
  Alcotest.(check int) "one free" 1 (Population.pool_free pool);
  let k0' = Population.acquire pool in
  Alcotest.(check bool) "released key is reused" true (k0 == k0');
  Alcotest.(check int) "reuse costs no keygen" 5 (Population.pool_generated pool)

let test_pool_double_release_raises () =
  let pool = Population.pool ~seed:"pool-double" () in
  let k = Population.acquire pool in
  Population.release pool k;
  Alcotest.(check bool) "double release refused" true
    (try Population.release pool k; false with Invalid_argument _ -> true);
  (* The refusal left the free list intact: one entry, reusable once. *)
  Alcotest.(check int) "still one free" 1 (Population.pool_free pool);
  ignore (Population.acquire pool);
  Alcotest.(check int) "no extra keygen" 1 (Population.pool_generated pool)

(* --- Arrival schedule --- *)

let test_arrivals_match_rate () =
  (* 1000/s for 100ms: exactly 100 arrivals, evenly spaced 1000us apart. *)
  let offs = Population.arrivals [ { Population.rate_per_s = 1000; duration_us = 100_000 } ] in
  Alcotest.(check int) "count = rate * duration" 100 (List.length offs);
  List.iteri (fun i t -> Alcotest.(check int) "evenly spaced" (i * 1000) t) offs;
  (* Phases abut and the combined schedule stays ascending; each phase
     contributes duration/step arrivals (within one slot of rate*duration). *)
  let profile =
    [ { Population.rate_per_s = 200; duration_us = 50_000 };
      { Population.rate_per_s = 800; duration_us = 25_000 } ]
  in
  let offs = Population.arrivals profile in
  Alcotest.(check int) "burst profile count" (10 + 20) (List.length offs);
  let rec ascending = function
    | a :: (b :: _ as rest) -> a < b && ascending rest
    | _ -> true
  in
  Alcotest.(check bool) "strictly ascending" true (ascending offs);
  Alcotest.(check bool) "burst phase starts where the first ends" true
    (List.exists (fun t -> t = 50_000) offs);
  Alcotest.(check bool) "rejects zero rate" true
    (try
       ignore (Population.arrivals [ { Population.rate_per_s = 0; duration_us = 1 } ]);
       false
     with Invalid_argument _ -> true)

(* --- The cascade study: exact RSA accounting --- *)

let test_cascade_exact_rsa_accounting () =
  let c = Driver.cascade_study ~seed:"test-cascade" () in
  (* depth-8 prefix shared by 16 holders, presented 3 times each. *)
  Alcotest.(check int) "uncached: (depth+1)*M*repeats" 432 c.Driver.c_rsa_uncached;
  Alcotest.(check int) "whole-chain memo: (depth+1)*M" 144 c.Driver.c_rsa_whole_chain;
  Alcotest.(check int) "per-signature: depth+M" 24 c.Driver.c_rsa_per_signature

(* --- The driver: small end-to-end runs --- *)

let small cfg_seed ~batched =
  {
    Driver.default with
    Driver.seed = cfg_seed;
    population = 2_000;
    objects = 64;
    shards = 2;
    phases = [ { Population.rate_per_s = 400; duration_us = 100_000 } ];
    pipeline = batched;
    churn_every = 8;
  }

let metric = Driver.metric

let test_driver_deterministic_replay () =
  let cfg = small "driver-det" ~batched:true in
  let o = Driver.run cfg and o2 = Driver.run cfg in
  Alcotest.(check bool) "some arrivals succeed" true (o.Driver.succeeded > 0);
  (* The digest holds metrics, trace and span JSONL. *)
  Alcotest.(check string) "digest replays byte-identical" o.Driver.digest o2.Driver.digest;
  (* The batched hot path engaged. *)
  Alcotest.(check bool) "sweeps coalesced" true (metric o "rpc.batch.calls" > 0);
  Alcotest.(check bool) "replication read-skips" true (metric o "cluster.repl_read_skips" > 0);
  (* Churn exercised the pool economy: some materializations were served
     from the free list, and keygens never exceed materializations. *)
  Alcotest.(check bool) "keys reused" true (o.Driver.keys_reused > 0);
  Alcotest.(check bool) "keygens bounded" true
    (o.Driver.keys_generated <= o.Driver.materializations)

let test_driver_unbatched_path () =
  let cfg = small "driver-unbatched" ~batched:false in
  let o = Driver.run cfg in
  Alcotest.(check bool) "still makes progress" true (o.Driver.succeeded > 0);
  Alcotest.(check int) "no batches" 0 (metric o "rpc.batch.calls");
  Alcotest.(check bool) "sweeps still ran, serially" true (o.Driver.sweeps > 0)

(* --- RPC pipelining: exactly-once under retransmission --- *)

let test_call_batch_exactly_once () =
  let w = World.create ~seed:"batch-rpc" () in
  let echo, echo_key = World.enrol w "echo" in
  let executions = ref 0 in
  Secure_rpc.serve w.World.net ~me:echo ~my_key:echo_key (fun _ctx payload ->
      incr executions;
      Ok (Wire.L [ Wire.S "echoed"; payload ]));
  let alice, _ = World.enrol w "alice" in
  let tgt = World.login w alice in
  let creds = World.credentials_for w ~tgt echo in
  let payloads = List.init 4 (fun i -> Wire.I i) in
  (* Drop the first request on the wire: the client must retransmit the
     same bytes, and the batch handler must still run each item once. *)
  let dropped = ref false in
  Net.set_tap w.World.net (fun ~dir ~src:_ ~dst _payload ->
      if dir = `Request && Principal.to_string echo = dst && not !dropped then begin
        dropped := true;
        Net.Drop
      end
      else Net.Deliver);
  let r =
    Secure_rpc.call_batch w.World.net ~creds
      ~retry:(Sim.Retry.policy ~retries:4 ~timeout_us:10_000 ()) payloads
  in
  Net.clear_tap w.World.net;
  Alcotest.(check bool) "request was dropped once" true !dropped;
  (match r with
  | Error e -> Alcotest.failf "batch failed: %s" e
  | Ok items ->
      Alcotest.(check int) "positional replies" 4 (List.length items);
      List.iteri
        (fun i item ->
          match item with
          | Ok (Wire.L [ Wire.S "echoed"; Wire.I j ]) ->
              Alcotest.(check int) "reply matches payload position" i j
          | Ok _ -> Alcotest.fail "malformed echo"
          | Error e -> Alcotest.failf "item %d failed: %s" i e)
        items);
  Alcotest.(check int) "each item executed exactly once" 4 !executions;
  (* A verbatim replay of the whole exchange is served from the response
     cache: same reply, zero additional handler executions. *)
  let r2 =
    Secure_rpc.call_batch w.World.net ~creds
      ~retry:(Sim.Retry.policy ~retries:4 ~timeout_us:10_000 ()) payloads
  in
  Alcotest.(check bool) "second batch round succeeds" true (Result.is_ok r2);
  Alcotest.(check int) "fresh authenticator, fresh execution" 8 !executions;
  Alcotest.(check int) "one item per payload, both rounds"
    8 (Sim.Metrics.get (Net.metrics w.World.net) "rpc.batch.items")

(* Drop the first reply instead: every item ran and the coalesced reply
   is cached, so the retransmission is answered from the cache, with
   every item's reply and no item run again. *)
let test_call_batch_reply_dropped () =
  let w = World.create ~seed:"batch-rpc-reply" () in
  let echo, echo_key = World.enrol w "echo" in
  let executions = ref 0 in
  let reply = function
    | Wire.I 2 -> Error "item 2 refused"
    | payload -> Ok (Wire.L [ Wire.S "echoed"; payload ])
  in
  Secure_rpc.serve w.World.net ~me:echo ~my_key:echo_key (fun _ctx payload ->
      incr executions;
      reply payload);
  let alice, _ = World.enrol w "alice" in
  let creds = World.credentials_for w ~tgt:(World.login w alice) echo in
  let dropped = ref false in
  Net.set_tap w.World.net (fun ~dir ~src ~dst:_ _payload ->
      if dir = `Response && Principal.to_string echo = src && not !dropped then begin
        dropped := true;
        Net.Drop
      end
      else Net.Deliver);
  let payloads = List.init 4 (fun i -> Wire.I i) in
  let r =
    Secure_rpc.call_batch w.World.net ~creds
      ~retry:(Sim.Retry.policy ~retries:4 ~timeout_us:10_000 ()) payloads
  in
  Net.clear_tap w.World.net;
  Alcotest.(check bool) "reply was dropped once" true !dropped;
  Alcotest.(check bool) "every item's reply, in its place, one a refusal" true
    (r = Ok (List.map reply payloads));
  let metric = Sim.Metrics.get (Net.metrics w.World.net) in
  Alcotest.(check int) "each item executed exactly once" 4 !executions;
  Alcotest.(check (list int)) "one batch handled, one answered from the cache" [ 1; 1 ]
    [ metric "rpc.batch.requests"; metric "rpc.dedup" ]

let test_call_batch_empty_is_free () =
  let w = World.create ~seed:"batch-empty" () in
  let echo, echo_key = World.enrol w "echo" in
  Secure_rpc.serve w.World.net ~me:echo ~my_key:echo_key (fun _ctx _ ->
      Alcotest.fail "handler ran for an empty batch");
  let alice, _ = World.enrol w "alice" in
  let tgt = World.login w alice in
  let creds = World.credentials_for w ~tgt echo in
  let before = Sim.Metrics.get (Net.metrics w.World.net) "net.messages" in
  (match Secure_rpc.call_batch w.World.net ~creds [] with
  | Ok [] -> ()
  | Ok _ -> Alcotest.fail "empty batch returned items"
  | Error e -> Alcotest.failf "empty batch failed: %s" e);
  Alcotest.(check int) "no messages sent"
    before
    (Sim.Metrics.get (Net.metrics w.World.net) "net.messages")

let () =
  Alcotest.run "load"
    [
      ( "population",
        [
          Alcotest.test_case "zipf: same seed, same draw sequence" `Quick test_zipf_deterministic;
          Alcotest.test_case "zipf: head-heavy popularity" `Quick test_zipf_head_heavy;
          Alcotest.test_case "pool: live keys never alias" `Quick test_pool_never_aliases_live_keys;
          Alcotest.test_case "pool: double release refused" `Quick test_pool_double_release_raises;
          Alcotest.test_case "arrivals: rate profile expanded exactly" `Quick
            test_arrivals_match_rate;
        ] );
      ( "cascade study",
        [
          Alcotest.test_case "exact RSA accounting at default shape" `Quick
            test_cascade_exact_rsa_accounting;
        ] );
      ( "driver",
        [
          Alcotest.test_case "same-seed replay is byte-identical" `Slow
            test_driver_deterministic_replay;
          Alcotest.test_case "unbatched path: no link hits, no batches" `Slow
            test_driver_unbatched_path;
        ] );
      ( "pipelining",
        [
          Alcotest.test_case "exactly-once under a dropped request" `Quick
            test_call_batch_exactly_once;
          Alcotest.test_case "exactly-once under a dropped reply" `Quick
            test_call_batch_reply_dropped;
          Alcotest.test_case "empty batch never touches the network" `Quick
            test_call_batch_empty_is_free;
        ] );
    ]
