(* The lane-parallel scheduler: byte-identical runs across domain counts,
   the metrics owner guard, and the eviction/hash-order determinism fixes
   that multi-domain execution depends on. *)

open Cluster

(* --- Sim.Lane: the bare scheduler --- *)

(* A token ring: lane 0 launches a token that hops lane-to-lane for a fixed
   number of hops. Per-lane logs live in an array each lane writes only its
   own cell of — the same isolation discipline the accounting lanes use —
   so the run is deterministic and the logs comparable across schedules. *)
let ring_once ~lanes ~domains ~hops =
  let logs = Array.make lanes [] in
  let step ~epoch ~lane ~inbox =
    List.concat_map
      (fun (src, payload) ->
        logs.(lane) <- Printf.sprintf "e%d from%d %s" epoch src payload :: logs.(lane);
        let k = Scanf.sscanf payload "tok-%d" Fun.id in
        if k >= hops then [] else [ ((lane + 1) mod lanes, Printf.sprintf "tok-%d" (k + 1)) ])
      inbox
    @ if epoch = 0 && lane = 0 then [ (1 mod lanes, "tok-0") ] else []
  in
  let o = Sim.Lane.run ~domains ~lanes ~min_epochs:1 ~step () in
  (o, Array.map List.rev logs)

let test_lane_token_ring () =
  let (o1, logs1) = ring_once ~lanes:3 ~domains:1 ~hops:10 in
  let (o3, logs3) = ring_once ~lanes:3 ~domains:3 ~hops:10 in
  Alcotest.(check int) "all hops delivered" 11 o1.Sim.Lane.delivered;
  Alcotest.(check int) "clean drain" 0 o1.Sim.Lane.stranded;
  Alcotest.(check bool) "outcomes agree" true (o1 = o3);
  Array.iteri
    (fun i l1 ->
      Alcotest.(check (list string)) (Printf.sprintf "lane %d log" i) l1 logs3.(i))
    logs1

let test_lane_rejects_self_message () =
  let step ~epoch:_ ~lane ~inbox:_ = [ (lane, "loop") ] in
  Alcotest.check_raises "self-addressed"
    (Invalid_argument "Lane.run: lane messaged itself") (fun () ->
      ignore (Sim.Lane.run ~domains:1 ~lanes:2 ~min_epochs:1 ~step ()))

(* --- Sim.Metrics: owner guard and canonical merge --- *)

let test_metrics_guard_blocks_foreign_domain () =
  let m = Sim.Metrics.create () in
  Sim.Metrics.guard_here m;
  Sim.Metrics.incr m "local.ok";
  let refused =
    Domain.join
      (Domain.spawn (fun () ->
           try
             Sim.Metrics.incr m "foreign.write";
             false
           with Failure _ -> true))
  in
  Alcotest.(check bool) "cross-domain write refused" true refused;
  Alcotest.(check int) "foreign write did not land" 0 (Sim.Metrics.get m "foreign.write");
  Sim.Metrics.unguard m;
  let allowed =
    Domain.join
      (Domain.spawn (fun () ->
           Sim.Metrics.incr m "foreign.write";
           true))
  in
  Alcotest.(check bool) "unguarded write allowed" true allowed;
  Alcotest.(check int) "unguarded write landed" 1 (Sim.Metrics.get m "foreign.write")

let test_metrics_merge_sum_and_fail () =
  let a = Sim.Metrics.create () and b = Sim.Metrics.create () in
  Sim.Metrics.add a "shared.count" 2;
  Sim.Metrics.add a "only.a" 5;
  Sim.Metrics.add b "shared.count" 3;
  Sim.Metrics.add b "only.b" 7;
  Sim.Metrics.observe b "lat" 40;
  Sim.Metrics.merge_into ~into:a b;
  Alcotest.(check int) "shared summed" 5 (Sim.Metrics.get a "shared.count");
  Alcotest.(check int) "b-only copied" 7 (Sim.Metrics.get a "only.b");
  (match Sim.Metrics.dist a "lat" with
  | Some d -> Alcotest.(check int) "dist cell pooled" 40 d.Sim.Metrics.sum
  | None -> Alcotest.fail "dist cell lost in merge");
  let c = Sim.Metrics.create () in
  Sim.Metrics.add c "shared.count" 1;
  match Sim.Metrics.merge_into ~on_conflict:`Fail ~into:a c with
  | () -> Alcotest.fail "`Fail merge accepted an overlapping counter"
  | exception Failure _ -> ()

(* The snapshot form every determinism gate compares is sorted by name, so
   two tables that reached the same counts through different insertion
   orders (hence different Hashtbl resize histories) render identically. *)
let test_metrics_snapshot_ignores_hash_history () =
  let keys = List.init 150 (Printf.sprintf "k.%03d") in
  let m1 = Sim.Metrics.create () and m2 = Sim.Metrics.create () in
  List.iter (fun k -> Sim.Metrics.incr m1 k) keys;
  List.iter (fun k -> Sim.Metrics.incr m2 k) (List.rev keys);
  Alcotest.(check bool) "snapshots byte-identical" true
    (Sim.Metrics.snapshot m1 = Sim.Metrics.snapshot m2);
  Alcotest.(check bool) "snapshot is sorted" true
    (let names = List.map fst (Sim.Metrics.snapshot m1) in
     names = List.sort String.compare names)

(* --- eviction tie-breaks: insertion order, not hash order --- *)

(* An evicted live entry reads forgotten, not unseen: every entry here
   expires at 100, so the floor the eviction raised covers it. *)
let check_forgotten table key =
  Alcotest.(check bool) "oldest insertion evicted" false (Expiring.mem table key);
  Alcotest.(check bool) "and reads forgotten" true
    (Expiring.lookup table ~now:1 ~expires:100 key = Expiring.Forgotten)

let test_replay_cache_evicts_oldest_on_tie () =
  let evictions = ref 0 in
  let c = Expiring.create ~capacity:3 ~on_evict:(fun () -> incr evictions) () in
  let record id = Expiring.add c ~now:0 ~expires:100 id () in
  record "a";
  record "b";
  record "c";
  record "d" (* all expiries equal: the tie must break toward oldest-inserted *);
  Alcotest.(check int) "one eviction" 1 !evictions;
  check_forgotten c "a";
  List.iter
    (fun id -> Alcotest.(check bool) (id ^ " survives") true (Expiring.find c ~now:1 id = Some ()))
    [ "b"; "c"; "d" ]

let test_seq_tracker_evicts_oldest_on_tie () =
  let t = Expiring.create ~capacity:3 () in
  let set key k = Expiring.add t ~now:0 ~expires:100 key k in
  set "s-a" 1;
  set "s-b" 1;
  set "s-c" 1;
  (* Re-advancing an existing key keeps its original insertion seq: it is
     the same logical sequence, not a fresh one, so it stays oldest. *)
  set "s-a" 2;
  set "s-d" 1;
  check_forgotten t "s-a";
  List.iter
    (fun key ->
      Alcotest.(check (option int)) (key ^ " survives") (Some 1) (Expiring.find t ~now:1 key))
    [ "s-b"; "s-c"; "s-d" ]

let test_rpc_cache_evicts_oldest_on_tie () =
  let c = Secure_rpc.create_cache ~capacity:3 () in
  let seed auth_id = Expiring.add c ~now:0 ~expires:100 auth_id ("r-" ^ auth_id) in
  seed "a";
  seed "b";
  seed "c";
  seed "d";
  check_forgotten c "a";
  List.iter
    (fun id -> Alcotest.(check bool) (id ^ " survives") true (Expiring.mem c id))
    [ "b"; "c"; "d" ]

(* A failed replication ship is re-queued whole, so the standby can be
   seeded with a reply it already holds. Re-seeding must update it in
   place: evicting another live reply would let that client's failed-over
   retransmission execute twice. *)
let test_rpc_cache_reseed_evicts_nothing () =
  let c = Secure_rpc.create_cache ~capacity:2 () in
  let seed auth_id = Expiring.add c ~now:0 ~expires:100 auth_id ("r-" ^ auth_id) in
  seed "a";
  seed "b";
  seed "b";
  List.iter
    (fun id -> Alcotest.(check bool) (id ^ " still cached") true (Expiring.mem c id))
    [ "a"; "b" ]

(* --- the accounting lanes: determinism across domain counts --- *)

let lanes_cfg ~seed ~shards ~flavor =
  {
    Lanes.default with
    Lanes.seed;
    shards;
    domains = 1;
    epochs = 3;
    ops_per_epoch = 2;
    buyers = 2;
    flavor;
  }

let test_seq_gates_hold () =
  let o = Lanes.run { (lanes_cfg ~seed:"lane-test-seq" ~shards:2 ~flavor:Lanes.Seq) with Lanes.domains = 2 } in
  List.iter (fun (name, ok) -> Alcotest.(check bool) ("gate " ^ name) true ok) o.Lanes.gates

let prop_lanes_domains_agnostic =
  let print (s, shards, f) = Printf.sprintf "seed=%d shards=%d flavor=%d" s shards f in
  QCheck.Test.make ~count:4
    ~name:"lanes: domains=1 vs domains=N byte-identical (all flavors)"
    (QCheck.make ~print
       QCheck.Gen.(triple (int_range 0 999) (int_range 2 3) (int_range 0 2)))
    (fun (s, shards, f) ->
      let flavor = match f with 0 -> Lanes.Checks | 1 -> Lanes.Seq | _ -> Lanes.Load in
      let cfg = lanes_cfg ~seed:(Printf.sprintf "prop-%d" s) ~shards ~flavor in
      let a = Lanes.run cfg in
      let b = Lanes.run { cfg with Lanes.domains = shards } in
      if a <> b then
        QCheck.Test.fail_reportf "run diverged across domain counts (%s)"
          (print (s, shards, f));
      if a.Lanes.conserved <> Ok () then
        QCheck.Test.fail_reportf "conservation violated: %s"
          (match a.Lanes.conserved with Error e -> e | Ok () -> "");
      if a.Lanes.double_redemptions <> 0 then
        QCheck.Test.fail_reportf "%d double redemption(s)" a.Lanes.double_redemptions;
      true)

let () =
  Alcotest.run "lanes"
    [ ( "scheduler",
        [ ("token ring drains identically on 1 and 3 domains", `Quick, test_lane_token_ring);
          ("self-addressed message rejected", `Quick, test_lane_rejects_self_message) ] );
      ( "metrics",
        [ ("owner guard blocks foreign-domain writes", `Quick,
           test_metrics_guard_blocks_foreign_domain);
          ("merge sums or refuses overlap", `Quick, test_metrics_merge_sum_and_fail);
          ("snapshot independent of hash history", `Quick,
           test_metrics_snapshot_ignores_hash_history) ] );
      ( "eviction-order",
        [ ("replay cache ties break by insertion", `Quick, test_replay_cache_evicts_oldest_on_tie);
          ("seq tracker ties break by insertion", `Quick, test_seq_tracker_evicts_oldest_on_tie);
          ("rpc response cache ties break by insertion", `Quick,
           test_rpc_cache_evicts_oldest_on_tie);
          ("rpc response cache re-seed evicts nothing", `Quick,
           test_rpc_cache_reseed_evicts_nothing) ] );
      ( "determinism",
        [ ("seq flavor gates hold on 2 domains", `Slow, test_seq_gates_hold) ] );
      ("properties", List.map QCheck_alcotest.to_alcotest [ prop_lanes_domains_agnostic ]) ]
