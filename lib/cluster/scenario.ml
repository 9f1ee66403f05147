(* End-to-end cluster scenario: N replicated shards, consistent-hash
   placement, buyers paying a shop by check across shards, an open-loop
   workload under a seeded fault plan that permanently crashes one shard's
   primary mid-run, and a conservation + exactly-once audit at the end.

   Everything a run needs — accounts, funds, credentials, clearing routes,
   granter warm-ups on *both* replicas of every shard — is provisioned
   before the fault plan goes in, so chaos only ever touches transaction
   traffic: the cluster analogue of the paper's point that proxies let
   verification proceed without talking to distant authorities. *)

type crash_target = No_crash | Shop_primary | Buyer_primary

type config = {
  seed : string;
  shards : int;
  ops : int;
  buyers : int;
  drop : float;
  duplicate : float;
  crash : crash_target;
  crash_after_us : int;
  retries : int;
  timeout_us : int;
}

let default =
  {
    seed = "cluster";
    shards = 4;
    ops = 60;
    buyers = 4;
    drop = 0.05;
    duplicate = 0.05;
    crash = Shop_primary;
    crash_after_us = 30_000;
    retries = 8;
    timeout_us = 10_000;
  }

type outcome = {
  shard_ids : string list;
  attempted : int;
  succeeded : int;
  failed : int;
  conserved : (unit, string) result;
  redemptions : (string * int) list;
  double_redemptions : int;
  failovers : int;
  promotions : int;
  repl_shipped : int;
  repl_failures : int;
  dedups : int;
  retries_used : int;
  gave_up : int;
  messages : int;
  p50_us : int;
  p99_us : int;
  crashed_node : string option;
  gates : Drive.gate list;
  digest : string;
}

let usd = "usd"

type actor = { name : string; principal : Principal.t; rsa : Crypto.Rsa.private_ }

let run cfg =
  if cfg.shards < 1 then invalid_arg "Scenario.run: at least one shard";
  if cfg.buyers < 1 then invalid_arg "Scenario.run: at least one buyer";
  let w = World.create ~seed:cfg.seed () in
  let net = w.World.net in
  let drbg = Sim.Net.drbg net in
  let retry = Sim.Retry.policy ~retries:cfg.retries ~timeout_us:cfg.timeout_us () in
  let repl_retry = Sim.Retry.policy ~retries:12 ~timeout_us:cfg.timeout_us () in
  (* -- shards -- *)
  let shard_ids = List.init cfg.shards (Printf.sprintf "bank-%d") in
  let paid = Drive.tally () in
  let shards =
    List.map
      (fun id ->
        let p, key, rsa = World.enrol_pk w id in
        let s =
          Drive.ok_or id
            (Shard.create net ~me:p ~my_key:key ~kdc:w.World.kdc_name
               ~signing_key:rsa
               ~lookup:(fun q -> Directory.public w.World.dir q)
               ~collect_retry:retry ~repl_retry ~primary_node:(id ^ "-a")
               ~standby_node:(id ^ "-b") ())
        in
        Shard.install s;
        Drive.watch paid (Shard.primary_server s);
        Drive.watch paid (Shard.standby_server s);
        (id, s))
      shard_ids
  in
  let shard id = List.assoc id shards in
  let ring = Ring.create shard_ids in
  let endpoints = Drive.ok_or "warm" (Router.mesh shards) in
  (* -- actors -- *)
  let mk_actor name =
    let principal, _, rsa = World.enrol_pk w name in
    { name; principal; rsa }
  in
  let router_for actor =
    let creds_for logical =
      try
        let tgt = World.login w actor.principal in
        Ok (World.credentials_for w ~tgt logical)
      with Failure e -> Error e
    in
    Router.create net ~ring ~endpoints ~creds_for ~retry ()
  in
  let buyers =
    List.init cfg.buyers (fun i ->
        let a = mk_actor (Printf.sprintf "buyer-%d" i) in
        (a, router_for a))
  in
  let shop = mk_actor "shop" in
  let shop_router = router_for shop in
  (* Accounts open through the routers (so the op replicates and each
     router's shard credentials are cached); funds mint on both replicas. *)
  List.iter
    (fun (b, r) ->
      Drive.ok_or b.name (Router.open_account r ~name:b.name);
      Drive.ok_or b.name
        (Shard.mint (shard (Router.shard_of r b.name)) ~name:b.name ~currency:usd 1_000))
    buyers;
  Drive.ok_or shop.name (Router.open_account shop_router ~name:shop.name);
  let write_check (buyer : actor) amount =
    let buyer_shard = shard (Ring.lookup ring buyer.name) in
    let now = World.now w in
    Check.write ~drbg ~now ~expires:(now + (24 * World.hour)) ~payor:buyer.principal
      ~payor_key:buyer.rsa
      ~account:(Accounting_server.account (Shard.primary_server buyer_shard) buyer.name)
      ~payee:shop.principal ~currency:usd ~amount ()
  in
  (* Warm-up clearing pass from each buyer's shard, so the KDC is quiet
     under chaos. *)
  List.iter
    (fun (b, _) ->
      ignore
        (Drive.ok_or "warm-up deposit"
           (Router.deposit shop_router ~endorser_key:shop.rsa ~check:(write_check b 1)
              ~to_account:shop.name)))
    buyers;
  (* Same-shard buyer pairs, for intra-shard transfers in the mix. *)
  let transfer_pairs =
    let by_shard = Hashtbl.create 8 in
    List.iter
      (fun (b, r) ->
        let sid = Router.shard_of r b.name in
        Hashtbl.replace by_shard sid
          ((b, r) :: Option.value (Hashtbl.find_opt by_shard sid) ~default:[]))
      buyers;
    (* Fold in sorted shard order: hash iteration order depends on table
       resize history, and the pair list feeds the seeded workload mix — a
       hash-order fold here makes op selection build-dependent. *)
    Hashtbl.fold (fun sid bs acc -> (sid, bs) :: acc) by_shard []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
    |> List.filter_map (fun (_, bs) ->
           match bs with
           | (b1, r1) :: (b2, _) :: _ -> Some ((b1, r1), b2)
           | _ -> None)
  in
  (* Both replicas of a shard hold identical ledgers here, so capturing
     the primaries captures the cluster. The closing check reads whichever
     replica is authoritative after the crash. *)
  let before =
    Invariant.capture
      (List.map (fun (_, s) -> Accounting_server.ledger (Shard.primary_server s)) shards)
  in
  (* -- chaos begins -- *)
  let t0 = Sim.Net.now net in
  let crashed_node =
    match cfg.crash with
    | No_crash -> None
    | Shop_primary -> Some (Shard.primary_node (shard (Ring.lookup ring shop.name)))
    | Buyer_primary ->
        let b0, _ = List.hd buyers in
        Some (Shard.primary_node (shard (Ring.lookup ring b0.name)))
  in
  let directives =
    [ Sim.Fault.drop cfg.drop; Sim.Fault.duplicate cfg.duplicate ]
    @
    match crashed_node with
    | None -> []
    | Some node ->
        (* Permanent: the primary never comes back, the standby must carry
           the shard for the rest of the run. *)
        [ Sim.Fault.crash node ~at:(t0 + cfg.crash_after_us) () ]
  in
  Sim.Net.install_fault_plan net (Sim.Fault.plan ~seed:cfg.seed directives);
  let wl = Crypto.Drbg.create ~seed:("workload:" ^ cfg.seed) in
  let succeeded = ref 0 in
  let samples = Array.make cfg.ops 0 in
  for i = 0 to cfg.ops - 1 do
    let started = Sim.Net.now net in
    let outcome =
      let die = Crypto.Drbg.uniform_int wl 10 in
      if die < 6 then begin
        let buyer, _ = List.nth buyers (Crypto.Drbg.uniform_int wl cfg.buyers) in
        let amount = 1 + Crypto.Drbg.uniform_int wl 30 in
        Result.map ignore
          (Router.deposit shop_router ~endorser_key:shop.rsa
             ~check:(write_check buyer amount) ~to_account:shop.name)
      end
      else if die < 8 && transfer_pairs <> [] then begin
        let (b1, r1), b2 =
          List.nth transfer_pairs (Crypto.Drbg.uniform_int wl (List.length transfer_pairs))
        in
        let amount = 1 + Crypto.Drbg.uniform_int wl 20 in
        Router.transfer r1 ~from_:b1.name ~to_:b2.name ~currency:usd ~amount
      end
      else begin
        let buyer, r = List.nth buyers (Crypto.Drbg.uniform_int wl cfg.buyers) in
        Result.map ignore (Router.balance r ~name:buyer.name ~currency:usd)
      end
    in
    samples.(i) <- Sim.Net.now net - started;
    match outcome with Ok () -> incr succeeded | Error _ -> ()
  done;
  Sim.Net.clear_fault_plan net;
  (* -- chaos over: read the invariants against the surviving replicas -- *)
  let conserved =
    Invariant.check before
      (List.map (fun (_, s) -> Accounting_server.ledger (Shard.authoritative s)) shards)
  in
  let double_redemptions = Drive.double_redemptions paid in
  Array.sort compare samples;
  let m = Sim.Net.metrics net in
  {
    shard_ids;
    attempted = cfg.ops;
    succeeded = !succeeded;
    failed = cfg.ops - !succeeded;
    conserved;
    redemptions = Drive.redemptions paid;
    double_redemptions;
    failovers = Sim.Metrics.get m "cluster.failovers";
    promotions = Sim.Metrics.get m "cluster.promotions";
    repl_shipped = Sim.Metrics.get m "cluster.repl_shipped";
    repl_failures = Sim.Metrics.get m "cluster.repl_failures";
    dedups = Sim.Metrics.get m "rpc.dedup";
    retries_used = Sim.Metrics.get m "rpc.retries";
    gave_up = Sim.Metrics.get m "rpc.gave_up";
    messages = Sim.Metrics.get m "net.messages";
    p50_us = Drive.percentile samples 50.;
    p99_us = Drive.percentile samples 99.;
    crashed_node;
    gates = [ Drive.conserved conserved; Drive.redeemed_once double_redemptions ];
    digest = Drive.digest net;
  }

(* A smoke forces a crash (see the CLI), so it also asks for the failover. *)
let entry cfg =
  Drive.entry ~label:"cluster" ~gates:(fun o -> o.gates) ~digest:(fun o -> o.digest)
    ~smoke_gates:(fun o -> [ ("forced crash failed over", o.promotions >= 1 && o.failovers >= 1) ])
    (fun () -> run cfg)
