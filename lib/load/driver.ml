(* Open-loop load driver. Structure mirrors Cluster.Scenario (shards,
   ring, routers), plus a guarded file server for the authorization side
   of the mix and a lazy Zipf population in front of everything. *)

module R = Restriction
module Shard = Cluster.Shard
module Ring = Cluster.Ring
module Router = Cluster.Router

type config = {
  seed : string;
  population : int;
  objects : int;
  shards : int;
  phases : Population.phase list;
  pipeline : bool;
  sweep_width : int;
  churn_every : int;
  retries : int;
  timeout_us : int;
}

let default =
  {
    seed = "load";
    population = 100_000;
    objects = 512;
    shards = 4;
    phases =
      [ { Population.rate_per_s = 150; duration_us = 400_000 };
        { Population.rate_per_s = 800; duration_us = 100_000 };
        { Population.rate_per_s = 150; duration_us = 300_000 } ];
    pipeline = true;
    sweep_width = 6;
    churn_every = 16;
    retries = 4;
    timeout_us = 10_000;
  }

type outcome = {
  arrivals : int;
  succeeded : int;
  failed : int;
  touched : int;
  materializations : int;
  keys_generated : int;
  keys_reused : int;
  retired : int;
  grants : int;
  presents : int;
  debits : int;
  clears : int;
  sweeps : int;
  p50_us : int;
  p99_us : int;
  max_us : int;
  span_count : int;
  metrics : (string * int) list;
  gates : Drive.gate list;
  digest : string;
}

let usd = "usd"

type actor = {
  a_principal : Principal.t;
  a_rsa : Crypto.Rsa.private_;
  a_router : Router.t;
}

let run cfg =
  if cfg.population < 1 then invalid_arg "Driver.run: population must be positive";
  if cfg.objects < 1 || cfg.objects > cfg.population then
    invalid_arg "Driver.run: objects must be in [1, population]";
  if cfg.shards < 1 then invalid_arg "Driver.run: at least one shard";
  if cfg.sweep_width < 1 then invalid_arg "Driver.run: sweep_width must be positive";
  let offs = Population.arrivals cfg.phases in
  let n_arrivals = List.length offs in
  if n_arrivals = 0 then invalid_arg "Driver.run: empty arrival schedule";
  let w = World.create ~seed:cfg.seed () in
  let net = w.World.net in
  Sim.Net.enable_tracing ~capacity:((64 * n_arrivals) + 1024) net;
  let drbg = Sim.Net.drbg net in
  let retry = Sim.Retry.policy ~retries:cfg.retries ~timeout_us:cfg.timeout_us () in
  let repl_retry = Sim.Retry.policy ~retries:8 ~timeout_us:cfg.timeout_us () in
  (* -- the accounting cluster -- *)
  let shard_ids = List.init cfg.shards (Printf.sprintf "bank-%d") in
  let shards =
    List.map
      (fun id ->
        let p, key, rsa = World.enrol_pk w id in
        let s =
          Drive.ok_or id
            (Shard.create net ~me:p ~my_key:key ~kdc:w.World.kdc_name ~signing_key:rsa
               ~lookup:(fun q -> Directory.public w.World.dir q)
               ~collect_retry:retry ~repl_retry ~primary_node:(id ^ "-a")
               ~standby_node:(id ^ "-b") ())
        in
        Shard.install s;
        (id, s))
      shard_ids
  in
  let shard id = List.assoc id shards in
  let ring = Ring.create shard_ids in
  List.iter
    (fun (_, s1) ->
      List.iter
        (fun (_, s2) ->
          if not (Principal.equal (Shard.logical s1) (Shard.logical s2)) then begin
            Shard.set_route s1 ~drawee:(Shard.logical s2)
              ~via:[ Shard.primary_node s2; Shard.standby_node s2 ]
              ~next_hop:(Shard.logical s2) ();
            Drive.ok_or "warm" (Shard.warm s1 ~drawee:(Shard.logical s2))
          end)
        shards)
    shards;
  let endpoints =
    List.map
      (fun (id, s) ->
        ( id,
          {
            Router.ep_logical = Shard.logical s;
            ep_primary = Shard.primary_node s;
            ep_standby = Shard.standby_node s;
          } ))
      shards
  in
  let router_for principal =
    let creds_for logical =
      try
        let tgt = World.login w principal in
        Ok (World.credentials_for w ~tgt logical)
      with Failure e -> Error e
    in
    Router.create net ~ring ~endpoints ~creds_for ~retry ()
  in
  (* -- the guarded file server -- *)
  let fs_name, fs_key = World.enrol w "files" in
  let fs =
    File_server.create net ~me:fs_name ~my_key:fs_key
      ~lookup_pub:(fun q -> Directory.public w.World.dir q)
      ~acl:(Acl.create ()) ()
  in
  File_server.install fs;
  (* The fixed presenter: holders of bearer proxies authenticate as this
     worker; authority comes from the presented chains, not the worker. *)
  let worker, _ = World.enrol w "worker" in
  let worker_creds = World.credentials_for w ~tgt:(World.login w worker) fs_name in
  (* -- the auditor and its sweep accounts (all on one shard, so a sweep
     is one pipelined exchange with that shard) -- *)
  let auditor, _ = World.enrol w "auditor" in
  let auditor_router = router_for auditor in
  let sweep_shard = Ring.lookup ring "audit-0" in
  let sweep_accounts =
    let rec collect j acc n =
      if n >= cfg.sweep_width then List.rev acc
      else
        let name = Printf.sprintf "audit-%d" j in
        if Ring.lookup ring name = sweep_shard then collect (j + 1) (name :: acc) (n + 1)
        else collect (j + 1) acc n
    in
    collect 0 [] 0
  in
  List.iter
    (fun name ->
      Drive.ok_or name (Router.open_account auditor_router ~name);
      Drive.ok_or name (Shard.mint (shard sweep_shard) ~name ~currency:usd 100))
    sweep_accounts;
  let sweep_creds =
    World.credentials_for w ~tgt:(World.login w auditor)
      (Shard.logical (shard sweep_shard))
  in
  (* -- the lazy population -- *)
  let zipf = Population.zipf cfg.population in
  let obj_zipf = Population.zipf cfg.objects in
  let pool = Population.pool ~seed:("pool:" ^ cfg.seed) () in
  let wl = Crypto.Drbg.create ~seed:("workload:" ^ cfg.seed) in
  let actors : (int, actor) Hashtbl.t = Hashtbl.create 256 in
  let provisioned : (int, unit) Hashtbl.t = Hashtbl.create 256 in
  let order = Queue.create () in
  let touched = ref 0 and materializations = ref 0 and retired = ref 0 in
  let name_of idx = Printf.sprintf "p-%06d" idx in
  let obj_of o = Printf.sprintf "obj-%04d" o in
  let materialize idx =
    match Hashtbl.find_opt actors idx with
    | Some a -> a
    | None ->
        let name = name_of idx in
        let principal, _ = World.enrol w name in
        let rsa = Population.acquire pool in
        Directory.add_public w.World.dir principal rsa.Crypto.Rsa.pub;
        let a = { a_principal = principal; a_rsa = rsa; a_router = router_for principal } in
        incr materializations;
        if not (Hashtbl.mem provisioned idx) then begin
          Hashtbl.add provisioned idx ();
          incr touched;
          Drive.ok_or name (Router.open_account a.a_router ~name);
          Drive.ok_or name
            (Shard.mint (shard (Router.shard_of a.a_router name)) ~name ~currency:usd 2_000);
          if idx < cfg.objects then begin
            File_server.put_direct fs ~path:(obj_of idx)
              (Printf.sprintf "contents of %s" (obj_of idx));
            Acl.add (File_server.acl fs) ~target:(obj_of idx)
              { Acl.subject = Acl.Principal_is principal; rights = []; restrictions = [] }
          end
        end;
        Hashtbl.replace actors idx a;
        Queue.add idx order;
        a
  in
  (* Churn: retire the oldest live principal — key back to the pool, actor
     gone. Its published directory entry stays (so proxies it granted keep
     verifying) until a re-materialization replaces it with a fresh key. *)
  let retire () =
    let rec go budget =
      if budget > 0 && (not (Queue.is_empty order)) && Hashtbl.length actors > 8 then
        let idx = Queue.pop order in
        match Hashtbl.find_opt actors idx with
        | None -> go (budget - 1) (* stale entry: already retired, maybe re-queued *)
        | Some a ->
            Hashtbl.remove actors idx;
            Population.release pool a.a_rsa;
            incr retired
    in
    go 32
  in
  (* -- live proxies, at most 3 per object, newest first -- *)
  let proxies : (int, (Proxy.t * int) list) Hashtbl.t = Hashtbl.create 64 in
  let record_proxy o p depth =
    let rec take n = function x :: tl when n > 0 -> x :: take (n - 1) tl | _ -> [] in
    Hashtbl.replace proxies o
      ((p, depth) :: take 2 (Option.value (Hashtbl.find_opt proxies o) ~default:[]))
  in
  let grants = ref 0 and presents = ref 0 and debits = ref 0 in
  let clears = ref 0 and sweeps = ref 0 in
  let do_grant () =
    incr grants;
    let o = Population.zipf_sample obj_zipf wl in
    let owner = materialize o in
    let now = World.now w in
    let expires = now + World.hour in
    let extend =
      match Hashtbl.find_opt proxies o with
      | Some ((p, depth) :: _) when depth < 6 && Crypto.Drbg.uniform_int wl 2 = 0 ->
          Some (p, depth)
      | _ -> None
    in
    match extend with
    | Some (p, depth) ->
        (* Cascade: re-delegate the newest chain one link deeper; its
           shared prefix re-presents as verify-cache hits. *)
        Result.map
          (fun p' -> record_proxy o p' (depth + 1))
          (Proxy.restrict_pk ~drbg ~now ~expires ~restrictions:[] p)
    | None ->
        let p =
          Proxy.grant_pk ~drbg ~now ~expires ~grantor:owner.a_principal
            ~grantor_key:owner.a_rsa
            ~restrictions:[ R.Authorized [ { R.target = obj_of o; ops = [ "read" ] } ] ]
            ()
        in
        record_proxy o p 1;
        Ok ()
  in
  let do_present () =
    let o = Population.zipf_sample obj_zipf wl in
    match Hashtbl.find_opt proxies o with
    | Some ((p, _) :: _) ->
        incr presents;
        let presented =
          File_server.attach net ~proxy:p ~server:fs_name ~operation:"read"
            ~path:(obj_of o)
        in
        Result.map ignore
          (File_server.read net ~creds:worker_creds ~retry ~proxies:[ presented ]
             ~path:(obj_of o) ())
    | _ -> do_grant ()
  in
  let do_debit () =
    incr debits;
    let i = Population.zipf_sample zipf wl in
    let j = Population.zipf_sample zipf wl in
    let a = materialize i in
    let an = name_of i in
    if i <> j && Router.shard_of a.a_router an = Router.shard_of a.a_router (name_of j)
    then begin
      ignore (materialize j);
      let amount = 1 + Crypto.Drbg.uniform_int wl 20 in
      Router.transfer a.a_router ~from_:an ~to_:(name_of j) ~currency:usd ~amount
    end
    else Result.map ignore (Router.balance a.a_router ~name:an ~currency:usd)
  in
  let do_clear () =
    let i = Population.zipf_sample zipf wl in
    let j0 = Population.zipf_sample zipf wl in
    let payor = materialize i in
    let pn = name_of i in
    let payor_shard = Router.shard_of payor.a_router pn in
    (* Walk forward from j0 to the first principal on a different shard:
       clearing is the cross-shard path by construction. *)
    let rec pick j steps =
      if steps >= cfg.population then None
      else
        let j = j mod cfg.population in
        if j <> i && Ring.lookup ring (name_of j) <> payor_shard then Some j
        else pick (j + 1) (steps + 1)
    in
    match pick j0 0 with
    | None ->
        (* single-shard cluster: nothing to clear across; count as a debit *)
        decr debits;
        do_debit ()
    | Some j ->
        incr clears;
        let payee = materialize j in
        let now = World.now w in
        let amount = 1 + Crypto.Drbg.uniform_int wl 10 in
        let check =
          Check.write ~drbg ~now ~expires:(now + (24 * World.hour))
            ~payor:payor.a_principal ~payor_key:payor.a_rsa
            ~account:
              (Accounting_server.account (Shard.primary_server (shard payor_shard)) pn)
            ~payee:payee.a_principal ~currency:usd ~amount ()
        in
        Result.map ignore
          (Router.deposit payee.a_router ~endorser_key:payee.a_rsa ~check
             ~to_account:(name_of j))
  in
  let do_sweep () =
    incr sweeps;
    if cfg.pipeline then begin
      let payloads =
        List.map (fun n -> Wire.L [ Wire.S "balance"; Wire.S n; Wire.S usd ]) sweep_accounts
      in
      let sh = shard sweep_shard in
      match
        Secure_rpc.call_batch net ~creds:sweep_creds ~retry
          ~via:[ Shard.primary_node sh; Shard.standby_node sh ] payloads
      with
      | Ok items ->
          if List.for_all Result.is_ok items then Ok ()
          else Error "sweep: a balance query failed"
      | Error e -> Error e
    end
    else
      List.fold_left
        (fun acc n ->
          Result.bind acc (fun () ->
              Result.map ignore (Router.balance auditor_router ~name:n ~currency:usd)))
        (Ok ()) sweep_accounts
  in
  (* -- the open loop -- *)
  let clock = Sim.Net.clock net in
  let t0 = Sim.Net.now net in
  let samples = Array.make n_arrivals 0 in
  let succeeded = ref 0 in
  List.iteri
    (fun k off ->
      let target = t0 + off in
      let nowv = Sim.Net.now net in
      if nowv < target then Sim.Clock.advance clock (target - nowv);
      if cfg.churn_every > 0 && k > 0 && k mod cfg.churn_every = 0 then retire ();
      let outcome =
        let die = Crypto.Drbg.uniform_int wl 10 in
        if die < 3 then do_present ()
        else if die < 5 then do_grant ()
        else if die < 8 then do_debit ()
        else if die < 9 then do_clear ()
        else do_sweep ()
      in
      samples.(k) <- Sim.Net.now net - target;
      match outcome with Ok () -> incr succeeded | Error _ -> ())
    offs;
  Array.sort compare samples;
  let spans = match Sim.Net.spans net with Some c -> Sim.Span.spans c | None -> [] in
  {
    arrivals = n_arrivals;
    succeeded = !succeeded;
    failed = n_arrivals - !succeeded;
    touched = !touched;
    materializations = !materializations;
    keys_generated = Population.pool_generated pool;
    keys_reused = !materializations - Population.pool_generated pool;
    retired = !retired;
    grants = !grants;
    presents = !presents;
    debits = !debits;
    clears = !clears;
    sweeps = !sweeps;
    p50_us = Drive.percentile samples 50.;
    p99_us = Drive.percentile samples 99.;
    max_us = samples.(n_arrivals - 1);
    span_count = List.length spans;
    metrics = Sim.Metrics.snapshot (Sim.Net.metrics net);
    gates = [ ("arrivals succeed", !succeeded > 0) ];
    digest = Drive.digest net;
  }

let metric o k = Option.value (List.assoc_opt k o.metrics) ~default:0

(* What a smoke asks besides progress: every op class ran, churn recycled
   keys, and the batched hot path engaged — and the unbatched path, run
   twice, stays off it and replays byte for byte. *)
let smoke_gates cfg o =
  let off = { cfg with pipeline = false } in
  [ ("every op class exercised", o.grants > 0 && o.presents > 0 && o.debits > 0 && o.sweeps > 0);
    ("population churned and keys reused", o.retired > 0 && o.keys_reused > 0);
    ("keygens bounded by materializations", o.keys_generated <= o.materializations);
    ( "sweeps coalesced",
      metric o "rpc.batch.calls" > 0 && metric o "rpc.batch.items" >= cfg.sweep_width );
    ("replication read-skips", metric o "cluster.repl_read_skips" > 0);
    ("spans captured", o.span_count > 0);
    ( "same-seed rerun byte-identical (unbatched)",
      let a = run off in
      metric a "rpc.batch.calls" = 0
      && String.equal a.digest (run off).digest ) ]

let entry cfg =
  Drive.entry ~label:"load" ~gates:(fun o -> o.gates) ~digest:(fun o -> o.digest)
    ~smoke_gates:(smoke_gates cfg) (fun () -> run cfg)

(* ------------------------------------------------------------------ *)
(* The cascade study                                                   *)
(* ------------------------------------------------------------------ *)

type cascade = {
  c_depth : int;
  c_holders : int;
  c_repeats : int;
  c_rsa_uncached : int;
  c_rsa_whole_chain : int;
  c_rsa_per_signature : int;
  c_sig_hits : int;
  c_sig_misses : int;
}

let cascade_study ?(depth = 8) ?(holders = 16) ?(repeats = 3) ~seed () =
  if depth < 1 || holders < 1 || repeats < 1 then
    invalid_arg "Driver.cascade_study: depth/holders/repeats must be positive";
  let drbg = Crypto.Drbg.create ~seed in
  let grantor = Principal.make ~realm:"load" "cascade-root" in
  let kp = Crypto.Rsa.generate drbg ~bits:512 in
  let lookup q = if Principal.equal q grantor then Some kp.Crypto.Rsa.pub else None in
  let expires = 1_000_000_000 in
  let base =
    Proxy.grant_pk ~drbg ~now:0 ~expires ~grantor ~grantor_key:kp
      ~restrictions:[ R.Authorized [ { R.target = "report"; ops = [ "read" ] } ] ]
      ()
  in
  let rec extend p n =
    if n = 0 then p
    else
      match Proxy.restrict_pk ~drbg ~now:0 ~expires ~restrictions:[] p with
      | Ok p' -> extend p' (n - 1)
      | Error e -> failwith ("Driver.cascade_study: " ^ e)
  in
  let shared = extend base (depth - 1) in
  let chains =
    Array.init holders (fun _ ->
        match (extend shared 1).Proxy.flavor with
        | Proxy.Public_key certs -> certs
        | _ -> assert false)
  in
  let count tbl name = Option.value (Hashtbl.find_opt tbl name) ~default:0 in
  let with_counts f =
    let tbl = Hashtbl.create 8 in
    let tally name = Hashtbl.replace tbl name (1 + count tbl name) in
    f tally;
    tbl
  in
  let verify ?cache tally certs =
    match Verifier.verify_pk ~lookup ~tally ?cache ~now:1 certs with
    | Ok _ -> ()
    | Error e -> failwith ("Driver.cascade_study: verify failed: " ^ e)
  in
  let each f = for _ = 1 to repeats do Array.iter f chains done in
  let uncached = with_counts (fun t -> each (verify t)) in
  let whole =
    (* Whole-presentation memoization: the naive cache that never shares
       a prefix — every distinct holder pays the full chain once. *)
    with_counts (fun t ->
        let memo = Hashtbl.create 64 in
        each (fun certs ->
            let key =
              String.concat "|"
                (List.map (fun c -> c.Proxy_cert.pk_body.Proxy_cert.serial) certs)
            in
            if not (Hashtbl.mem memo key) then begin
              verify t certs;
              Hashtbl.replace memo key ()
            end))
  in
  let per_sig =
    with_counts (fun t ->
        let cache = Verify_cache.create () in
        each (verify ~cache t))
  in
  {
    c_depth = depth;
    c_holders = holders;
    c_repeats = repeats;
    c_rsa_uncached = count uncached "crypto.rsa_verify";
    c_rsa_whole_chain = count whole "crypto.rsa_verify";
    c_rsa_per_signature = count per_sig "crypto.rsa_verify";
    c_sig_hits = count per_sig "verify_cache.hits";
    c_sig_misses = count per_sig "verify_cache.misses";
  }
