type config = {
  seed : string;
  ops : int;
  drop : float;
  duplicate : float;
  jitter_us : int;
  crash_drawee : bool;
  retries : int;
  timeout_us : int;
}

let default =
  {
    seed = "chaos";
    ops = 40;
    drop = 0.15;
    duplicate = 0.10;
    jitter_us = 2_000;
    crash_drawee = true;
    retries = 8;
    timeout_us = 10_000;
  }

type outcome = {
  attempted : int;
  succeeded : int;
  failed : int;
  conserved : (unit, string) result;
  redemptions : (string * int) list;
  double_redemptions : int;
  retries_used : int;
  gave_up : int;
  dedups : int;
  faults_dropped : int;
  faults_duplicated : int;
  latency : Sim.Metrics.dist option;
  metrics : (string * int) list;
  gates : Drive.gate list;
  digest : string;
}

let usd = "usd"

type actor = { name : string; principal : Principal.t; rsa : Crypto.Rsa.private_ }

let run cfg =
  let w = World.create ~seed:cfg.seed () in
  let net = w.World.net in
  let drbg = Sim.Net.drbg net in
  let mk_actor name =
    let principal, _ = World.enrol w name in
    let rsa = Crypto.Rsa.generate drbg ~bits:512 in
    Directory.add_public w.World.dir principal rsa.Crypto.Rsa.pub;
    { name; principal; rsa }
  in
  let retry = Sim.Retry.policy ~retries:cfg.retries ~timeout_us:cfg.timeout_us () in
  let paid = Drive.tally () in
  let mk_bank name =
    let p, key = World.enrol w name in
    let rsa = Crypto.Rsa.generate drbg ~bits:512 in
    Directory.add_public w.World.dir p rsa.Crypto.Rsa.pub;
    let b =
      Drive.ok_or name
        (Accounting_server.create net ~me:p ~my_key:key ~kdc:w.World.kdc_name
           ~signing_key:rsa
           ~lookup:(fun q -> Directory.public w.World.dir q)
           ~collect_retry:retry ())
    in
    Accounting_server.install b;
    Drive.watch paid b;
    (p, b)
  in
  let bank_a_name, bank_a = mk_bank "first-bank" in
  let bank_b_name, bank_b = mk_bank "shore-bank" in
  let buyers = List.map mk_actor [ "alice"; "bob" ] in
  let shop = mk_actor "shop" in
  let creds_for actor bank =
    let tgt = World.login w actor.principal in
    World.credentials_for w ~tgt bank
  in
  (* Everything below happens before the fault plan goes in: accounts,
     funds, and — the point of proxies — every credential the run will
     need, so chaos only ever hits transaction traffic. *)
  let buyer_creds =
    List.map
      (fun b ->
        let creds = creds_for b bank_a_name in
        Drive.ok_or b.name (Accounting_server.open_account net ~creds ~name:b.name);
        Drive.ok_or b.name
          (Ledger.mint (Accounting_server.ledger bank_a) ~name:b.name ~currency:usd 1_000);
        (b, creds))
      buyers
  in
  let shop_creds = creds_for shop bank_b_name in
  Drive.ok_or shop.name (Accounting_server.open_account net ~creds:shop_creds ~name:shop.name);
  let write_check (buyer : actor) amount =
    let now = World.now w in
    Check.write ~drbg ~now ~expires:(now + (24 * World.hour)) ~payor:buyer.principal
      ~payor_key:buyer.rsa
      ~account:(Accounting_server.account bank_a buyer.name)
      ~payee:shop.principal ~currency:usd ~amount ()
  in
  (* Warm-up clearing pass: populates shore-bank's credential cache for the
     inter-bank hop, so no KDC exchange happens under chaos. *)
  let alice = List.hd buyers in
  ignore
    (Drive.ok_or "warm-up deposit"
       (Accounting_server.deposit net ~creds:shop_creds ~endorser_key:shop.rsa
          ~check:(write_check alice 1) ~to_account:shop.name));
  let ledgers = [ Accounting_server.ledger bank_a; Accounting_server.ledger bank_b ] in
  let before = Invariant.capture ledgers in
  (* -- chaos begins -- *)
  let t0 = Sim.Net.now net in
  let directives =
    [
      Sim.Fault.drop cfg.drop;
      Sim.Fault.duplicate cfg.duplicate;
      Sim.Fault.jitter cfg.jitter_us;
    ]
    @
    if cfg.crash_drawee then
      [
        Sim.Fault.crash
          (Principal.to_string bank_a_name)
          ~at:(t0 + 20_000) ~until:(t0 + 80_000) ();
      ]
    else []
  in
  Sim.Net.install_fault_plan net (Sim.Fault.plan ~seed:cfg.seed directives);
  let wl = Crypto.Drbg.create ~seed:("workload:" ^ cfg.seed) in
  let succeeded = ref 0 in
  for _ = 1 to cfg.ops do
    let outcome =
      if Crypto.Drbg.uniform_int wl 10 < 7 then begin
        let buyer, _ = List.nth buyer_creds (Crypto.Drbg.uniform_int wl 2) in
        let amount = 1 + Crypto.Drbg.uniform_int wl 30 in
        Result.map ignore
          (Accounting_server.deposit ~retry net ~creds:shop_creds ~endorser_key:shop.rsa
             ~check:(write_check buyer amount) ~to_account:shop.name)
      end
      else begin
        let i = Crypto.Drbg.uniform_int wl 2 in
        let from_, creds = List.nth buyer_creds i in
        let to_, _ = List.nth buyer_creds (1 - i) in
        let amount = 1 + Crypto.Drbg.uniform_int wl 20 in
        Accounting_server.transfer ~retry net ~creds ~from_:from_.name ~to_:to_.name
          ~currency:usd ~amount
      end
    in
    match outcome with Ok () -> incr succeeded | Error _ -> ()
  done;
  Sim.Net.clear_fault_plan net;
  (* -- chaos over: read the invariants -- *)
  let conserved = Invariant.check before ledgers in
  let double_redemptions = Drive.double_redemptions paid in
  let m = Sim.Net.metrics net in
  {
    attempted = cfg.ops;
    succeeded = !succeeded;
    failed = cfg.ops - !succeeded;
    conserved;
    redemptions = Drive.redemptions paid;
    double_redemptions;
    retries_used = Sim.Metrics.get m "rpc.retries";
    gave_up = Sim.Metrics.get m "rpc.gave_up";
    dedups = Sim.Metrics.get m "rpc.dedup";
    faults_dropped = Sim.Metrics.get m "fault.dropped";
    faults_duplicated = Sim.Metrics.get m "fault.duplicated";
    latency = Sim.Metrics.dist m "rpc.latency_us";
    metrics = Sim.Metrics.snapshot m;
    gates = [ Drive.conserved conserved; Drive.redeemed_once double_redemptions ];
    digest = Drive.digest net;
  }

let entry cfg =
  Drive.entry ~label:"chaos" ~gates:(fun o -> o.gates) ~digest:(fun o -> o.digest) (fun () ->
      run cfg)
