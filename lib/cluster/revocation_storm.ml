(* The revocation-storm scenario: a grantor revokes its whole output while
   one subscriber is partitioned away from the revocation authority.

   The run crosses every revocation path the system has:
   - a fresh server (synced after the bulletin) denies revoked chains
     immediately, and the epoch jump retires its whole verify-cache
     generation (the "invalidation storm" — one bump, every dependent
     cached chain gone);
   - a partitioned server serves normally inside its staleness bound (the
     degradation window: a revoked proxy is still honoured there), then
     fails closed for everything proxy-shaped once past the bound while
     still answering direct-ACL requests;
   - short-TTL proxies from a healthy grantor keep working through online
     refresh, while the revoked grantor's refresher refuses a new lease;
   - accept-once state survives the churn: a voucher spent before the storm
     still bounces as a replay after the heal;
   - a replicated bank shard receives the bulletin on both replicas (the
     standby accepts it un-promoted) and bounces the revoked grantor's
     check without breaking conservation.

   Everything is driven by the seeded virtual clock and DRBG: the same
   config must produce byte-identical metrics and trace. *)

type config = {
  seed : string;
  grants : int;  (** distinct proxies the doomed grantor issues (storm width) *)
  staleness_bound_us : int;
  lifetime_us : int;  (** short-TTL lifetime for the healthy grantor's proxies *)
}

let minute = 60_000_000

let default =
  {
    seed = "revocation-storm";
    grants = 6;
    staleness_bound_us = 10 * minute;
    lifetime_us = 15 * minute;
  }

type outcome = {
  warm_reads : int;  (** proxy reads served before the storm (both servers) *)
  revocations : int;  (** entries the authority accepted *)
  final_epoch : int;
  fresh_denials : int;  (** revoked chains denied at the synced server *)
  stale_window_served : int;
      (** revoked chains still served at the partitioned server inside its bound *)
  stale_denials : int;  (** fail-closed denials once past the bound *)
  direct_reads_while_stale : int;  (** direct-ACL reads the stale server still answered *)
  refresh_ok : bool;  (** healthy grantor's short-TTL proxy re-leased *)
  refresh_refused_revoked : bool;  (** revoked grantor's refresher said no *)
  replay_refused : bool;  (** pre-storm accept-once id still bounces after heal *)
  healed_denials : int;  (** revoked chains denied at the healed server *)
  healed_serves : bool;  (** refreshed healthy chain served at the healed server *)
  invalidations : int;  (** cached verifications retired ("verify_cache.invalidations") *)
  generation_bumps : int;
  bulletin_on_standby : bool;  (** the shard standby accepted the push un-promoted *)
  check_cleared : bool;  (** pre-storm check cleared *)
  check_bounced : bool;  (** post-bulletin check from the revoked grantor bounced *)
  conserved : (unit, string) result;
  metrics : (string * int) list;
  gates : Drive.gate list;
  digest : string;
}

let usd = "usd"

let run cfg =
  let w = World.create ~seed:cfg.seed () in
  let net = w.World.net in
  let drbg = Sim.Net.drbg net in
  let lookup p = Directory.public w.World.dir p in
  let advance us = Sim.Clock.advance (Sim.Net.clock net) us in
  (* --- principals --- *)
  let ra_p, ra_key, ra_rsa = World.enrol_pk w "bulletin-board" in
  let gina, gina_key, gina_rsa = World.enrol_pk w "gina" in
  let hugh, hugh_key, hugh_rsa = World.enrol_pk w "hugh" in
  let carol, _, carol_rsa = World.enrol_pk w "carol" in
  let dave, _ = World.enrol w "dave" in
  let subscriber () =
    Revocation.create ~issuer:ra_p ~issuer_pub:ra_rsa.Crypto.Rsa.pub
      ~staleness_bound_us:cfg.staleness_bound_us ~now:(World.now w) ()
  in
  (* --- the revocation authority --- *)
  let authority =
    Revocation_authority.create net ~me:ra_p ~my_key:ra_key ~signing_key:ra_rsa ~lookup ()
  in
  Revocation_authority.install authority;
  (* --- two file servers guarding the same ACL --- *)
  let mk_fs name =
    let p, key = World.enrol w name in
    let acl = Acl.create () in
    Acl.add acl ~target:"*"
      { Acl.subject = Acl.Principal_is gina; rights = [ "read" ]; restrictions = [] };
    Acl.add acl ~target:"*"
      { Acl.subject = Acl.Principal_is hugh; rights = [ "read" ]; restrictions = [] };
    Acl.add acl ~target:"/public/motd"
      { Acl.subject = Acl.Principal_is dave; rights = [ "read" ]; restrictions = [] };
    let fs =
      File_server.create net ~me:p ~my_key:key ~lookup_pub:lookup ~revocation:(subscriber ())
        ~acl ()
    in
    File_server.install fs;
    for i = 1 to cfg.grants do
      File_server.put_direct fs ~path:(Printf.sprintf "/g/doc-%d" i)
        (Printf.sprintf "gina's doc %d" i)
    done;
    File_server.put_direct fs ~path:"/h/report" "hugh's report";
    File_server.put_direct fs ~path:"/public/motd" "welcome";
    (p, fs)
  in
  let fresh_p, fresh_fs = mk_fs "archive" in
  let stale_p, stale_fs = mk_fs "backup" in
  (* --- refresh services for both grantors --- *)
  let mk_refresher me my_key signing_key =
    let r =
      Refresher.create net ~me ~my_key ~signing_key ~lookup ~revocation:(subscriber ())
        ~lifetime_us:cfg.lifetime_us ()
    in
    Refresher.install r;
    r
  in
  let hugh_refresher = mk_refresher hugh hugh_key hugh_rsa in
  let gina_refresher = mk_refresher gina gina_key gina_rsa in
  (* --- the bank shard --- *)
  let bank, bank_key, bank_rsa = World.enrol_pk w "coast-bank" in
  let shard =
    Drive.ok_or "shard"
      (Shard.create net ~me:bank ~my_key:bank_key ~kdc:w.World.kdc_name ~signing_key:bank_rsa
         ~lookup ~revocation_authority:(ra_p, ra_rsa.Crypto.Rsa.pub)
         ~staleness_bound_us:cfg.staleness_bound_us ~primary_node:"coast-bank-1"
         ~standby_node:"coast-bank-2" ())
  in
  Shard.install shard;
  let via = [ Shard.primary_node shard; Shard.standby_node shard ] in
  (* --- credentials (all minted before any fault goes in) --- *)
  let creds_of who service =
    let tgt = World.login w who in
    World.credentials_for w ~tgt service
  in
  let carol_fresh = creds_of carol fresh_p in
  let carol_stale = creds_of carol stale_p in
  let carol_hugh = creds_of carol hugh in
  let carol_gina = creds_of carol gina in
  let carol_bank = creds_of carol bank in
  let gina_auth = creds_of gina ra_p in
  let gina_bank = creds_of gina bank in
  let hugh_auth = creds_of hugh ra_p in
  let fresh_auth = creds_of fresh_p ra_p in
  let stale_auth = creds_of stale_p ra_p in
  (* --- bank accounts and a pre-storm check --- *)
  Drive.ok_or "gina account"
    (Accounting_server.open_account ~via net ~creds:gina_bank ~name:"gina");
  Drive.ok_or "carol account"
    (Accounting_server.open_account ~via net ~creds:carol_bank ~name:"carol");
  Drive.ok_or "mint" (Shard.mint shard ~name:"gina" ~currency:usd 1_000);
  let write_check amount =
    let now = World.now w in
    Check.write ~drbg ~now ~expires:(now + (24 * World.hour)) ~payor:gina ~payor_key:gina_rsa
      ~account:(Accounting_server.account (Shard.primary_server shard) "gina")
      ~payee:carol ~currency:usd ~amount ()
  in
  let check_before = write_check 100 in
  let check_after = write_check 75 in
  let deposit check =
    Accounting_server.deposit ~via net ~creds:carol_bank ~endorser_key:carol_rsa ~check
      ~to_account:"carol"
  in
  let conservation_before =
    Invariant.capture [ Accounting_server.ledger (Shard.primary_server shard) ]
  in
  let check_cleared = deposit check_before = Ok 100 in
  (* --- proxies --- *)
  let grant_gina i =
    Proxy.grant_pk ~drbg ~now:(World.now w)
      ~expires:(World.now w + (4 * World.hour))
      ~grantor:gina ~grantor_key:gina_rsa
      ~restrictions:
        [ Restriction.Authorized
            [ { Restriction.target = Printf.sprintf "/g/doc-%d" i; ops = [ "read" ] } ] ]
      ()
  in
  let gina_proxies = List.init cfg.grants (fun i -> grant_gina (i + 1)) in
  let hugh_proxy =
    ref
      (Proxy.grant_pk ~drbg ~now:(World.now w)
         ~expires:(World.now w + cfg.lifetime_us)
         ~grantor:hugh ~grantor_key:hugh_rsa
         ~restrictions:
           [ Restriction.Authorized [ { Restriction.target = "/h/report"; ops = [ "read" ] } ] ]
         ())
  in
  let voucher =
    Proxy.grant_pk ~drbg ~now:(World.now w)
      ~expires:(World.now w + (4 * World.hour))
      ~grantor:hugh ~grantor_key:hugh_rsa
      ~restrictions:
        [ Restriction.Authorized [ { Restriction.target = "/h/report"; ops = [ "read" ] } ];
          Restriction.Accept_once "voucher-1" ]
      ()
  in
  let read_with server creds fs_proxy path =
    let presented = File_server.attach net ~proxy:fs_proxy ~server ~operation:"read" ~path in
    File_server.read net ~creds ~proxies:[ presented ] ~path ()
  in
  (* --- initial bulletin sync: both servers start fresh at epoch 1 --- *)
  let sync_fs creds fs =
    Revocation_authority.sync net ~creds (File_server.guard fs)
  in
  ignore (Drive.ok_or "initial sync archive" (sync_fs fresh_auth fresh_fs));
  ignore (Drive.ok_or "initial sync backup" (sync_fs stale_auth stale_fs));
  (* --- warm phase: everything is served everywhere, twice (the second
     pass runs on the verify cache, so the storm has hits to retire) --- *)
  let warm_reads = ref 0 in
  for _pass = 1 to 2 do
    List.iteri
      (fun i p ->
        let path = Printf.sprintf "/g/doc-%d" (i + 1) in
        if Result.is_ok (read_with fresh_p carol_fresh p path) then incr warm_reads;
        if Result.is_ok (read_with stale_p carol_stale p path) then incr warm_reads)
      gina_proxies;
    if Result.is_ok (read_with fresh_p carol_fresh !hugh_proxy "/h/report") then
      incr warm_reads;
    if Result.is_ok (read_with stale_p carol_stale !hugh_proxy "/h/report") then
      incr warm_reads
  done;
  (* Spend the accept-once voucher at the soon-to-be-stale server. *)
  if Result.is_ok (read_with stale_p carol_stale voucher "/h/report") then incr warm_reads;
  (* --- a short-TTL lease ages; carol refreshes it online --- *)
  advance (7 * minute);
  let refresh_ok =
    match Refresher.refresh net ~creds:carol_hugh !hugh_proxy with
    | Ok p ->
        hugh_proxy := p;
        true
    | Error _ -> false
  in
  (* --- the storm: partition one subscriber, then revoke everything --- *)
  let t0 = Sim.Net.now net in
  Sim.Net.install_fault_plan net
    (Sim.Fault.plan ~seed:cfg.seed
       [
         Sim.Fault.partition
           ~a:[ Principal.to_string stale_p ]
           ~b:[ Principal.to_string ra_p ]
           ~at:t0
           ~until:(t0 + cfg.staleness_bound_us + (3 * minute))
           ();
       ]);
  List.iter
    (fun (p : Proxy.t) ->
      match p.Proxy.flavor with
      | Proxy.Public_key (head :: _) ->
          ignore
            (Drive.ok_or "revoke-cert"
               (Revocation_authority.revoke_cert net ~creds:gina_auth head))
      | _ -> failwith "Revocation_storm.run: expected a public-key proxy")
    gina_proxies;
  ignore
    (Drive.ok_or "revoke-grantor" (Revocation_authority.revoke_grantor net ~creds:gina_auth));
  (* The connected server syncs and the epoch jump retires its cache. *)
  ignore (Drive.ok_or "storm sync archive" (sync_fs fresh_auth fresh_fs));
  let fresh_denials = ref 0 in
  List.iteri
    (fun i p ->
      match read_with fresh_p carol_fresh p (Printf.sprintf "/g/doc-%d" (i + 1)) with
      | Error _ -> incr fresh_denials
      | Ok _ -> ())
    gina_proxies;
  (* The partitioned server cannot sync — and inside its bound it still
     honours the revoked chains: that window is the price of degradation. *)
  let stale_sync_failed = Result.is_error (sync_fs stale_auth stale_fs) in
  let stale_window_served = ref 0 in
  List.iteri
    (fun i p ->
      match read_with stale_p carol_stale p (Printf.sprintf "/g/doc-%d" (i + 1)) with
      | Ok _ -> incr stale_window_served
      | Error _ -> ())
    gina_proxies;
  (* --- past the bound: fail closed for proxies, serve direct ACLs --- *)
  advance (cfg.staleness_bound_us + minute);
  let stale_denials = ref 0 in
  List.iteri
    (fun i p ->
      match read_with stale_p carol_stale p (Printf.sprintf "/g/doc-%d" (i + 1)) with
      | Error _ -> incr stale_denials
      | Ok _ -> ())
    gina_proxies;
  (match read_with stale_p carol_stale !hugh_proxy "/h/report" with
  | Error _ -> incr stale_denials
  | Ok _ -> ());
  let direct_reads_while_stale = ref 0 in
  let dave_stale = creds_of dave stale_p in
  (match File_server.read net ~creds:dave_stale ~path:"/public/motd" () with
  | Ok _ -> incr direct_reads_while_stale
  | Error _ -> ());
  (* --- refresh under the storm: the healthy grantor re-leases, the
     revoked grantor refuses. Heartbeats keep the refreshers fresh. --- *)
  ignore (Revocation_authority.publish authority);
  let sync_refresher creds r =
    let b = Drive.ok_or "refresher fetch" (Revocation_authority.fetch net ~creds) in
    ignore
      (Drive.ok_or "refresher apply" (Revocation.apply (Option.get (Refresher.revocation r)) b))
  in
  sync_refresher hugh_auth hugh_refresher;
  sync_refresher gina_auth gina_refresher;
  let refresh_ok =
    refresh_ok
    &&
    match Refresher.refresh net ~creds:carol_hugh !hugh_proxy with
    | Ok p ->
        hugh_proxy := p;
        true
    | Error _ -> false
  in
  let refresh_refused_revoked =
    Result.is_error (Refresher.refresh net ~creds:carol_gina (List.hd gina_proxies))
  in
  (* --- heal: the partition lifts, the laggard syncs and recovers --- *)
  advance (5 * minute);
  ignore (Revocation_authority.publish authority);
  ignore (Drive.ok_or "heal sync backup" (sync_fs stale_auth stale_fs));
  let healed_denials = ref 0 in
  List.iteri
    (fun i p ->
      match read_with stale_p carol_stale p (Printf.sprintf "/g/doc-%d" (i + 1)) with
      | Error _ -> incr healed_denials
      | Ok _ -> ())
    gina_proxies;
  let healed_serves = Result.is_ok (read_with stale_p carol_stale !hugh_proxy "/h/report") in
  let replay_refused = Result.is_error (read_with stale_p carol_stale voucher "/h/report") in
  (* --- the bulletin reaches both bank replicas; the revoked grantor's
     check bounces; money is conserved --- *)
  let final_bulletin = Revocation_authority.bulletin authority in
  let push node =
    Accounting_server.push_bulletin ~via:[ node ] net ~creds:carol_bank final_bulletin
  in
  let on_primary = push (Shard.primary_node shard) in
  let on_standby = push (Shard.standby_node shard) in
  let bulletin_on_standby = on_primary = Ok true && on_standby = Ok true in
  let check_bounced = Result.is_error (deposit check_after) in
  let conserved =
    Invariant.check conservation_before
      [ Accounting_server.ledger (Shard.primary_server shard) ]
  in
  Sim.Net.clear_fault_plan net;
  ignore stale_sync_failed;
  let m = Sim.Net.metrics net in
  let generation_bumps = Sim.Metrics.get m "verify_cache.generation_bumps" in
  {
    warm_reads = !warm_reads;
    revocations = Sim.Metrics.get m "revocation.revocations";
    final_epoch = Revocation_authority.epoch authority;
    fresh_denials = !fresh_denials;
    stale_window_served = !stale_window_served;
    stale_denials = !stale_denials;
    direct_reads_while_stale = !direct_reads_while_stale;
    refresh_ok;
    refresh_refused_revoked;
    replay_refused;
    healed_denials = !healed_denials;
    healed_serves;
    invalidations = Sim.Metrics.get m "verify_cache.invalidations";
    generation_bumps;
    bulletin_on_standby;
    check_cleared;
    check_bounced;
    conserved;
    metrics = Sim.Metrics.snapshot m;
    gates =
      [ ("fresh servers deny every revoked chain", !fresh_denials = cfg.grants);
        ("stale server fails closed", !stale_denials > 0);
        ("direct ACL still served while stale", !direct_reads_while_stale > 0);
        ("short-TTL refresh succeeds", refresh_ok);
        ("revoked grantor's refresh refused", refresh_refused_revoked);
        ("replay refused after heal", replay_refused);
        ("healed server denies every revoked chain", !healed_denials = cfg.grants);
        ("healed server serves the refreshed chain", healed_serves);
        ("bulletin on both bank replicas", bulletin_on_standby);
        ("pre-storm check cleared", check_cleared);
        ("post-storm check bounced", check_bounced);
        ("verify cache generation bumped", generation_bumps > 0);
        Drive.conserved conserved ];
    digest = Drive.digest net;
  }

let entry cfg =
  Drive.entry ~label:"revoke" ~gates:(fun o -> o.gates) ~digest:(fun o -> o.digest) (fun () ->
      run cfg)
