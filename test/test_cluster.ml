(* The sharded accounting cluster: consistent-hash placement, replay-log
   replication between a shard's primary and standby, and exactly-once
   semantics across a forced failover. *)

open Cluster

let usd = "usd"

let ok_or ctx = function
  | Ok v -> v
  | Error e -> failwith (Printf.sprintf "%s: %s" ctx e)

(* --- ring --- *)

let test_ring_lookup () =
  let ids = [ "s0"; "s1"; "s2"; "s3" ] in
  let ring = Ring.create ids in
  let keys = List.init 200 (Printf.sprintf "key-%d") in
  List.iter
    (fun k -> Alcotest.(check bool) "owner is a shard" true (List.mem (Ring.lookup ring k) ids))
    keys;
  (* Placement is a pure function of the shard set: an independently built
     ring (even from a shuffled, duplicated id list) agrees on every key. *)
  let ring' = Ring.create [ "s3"; "s1"; "s0"; "s2"; "s1" ] in
  List.iter
    (fun k -> Alcotest.(check string) k (Ring.lookup ring k) (Ring.lookup ring' k))
    keys;
  (* vnodes spread the keys: every shard owns some. *)
  List.iter
    (fun (s, n) -> Alcotest.(check bool) (s ^ " owns keys") true (n > 0))
    (Ring.spread ring keys)

let test_ring_stability () =
  (* Adding a shard only moves keys *to* the new shard; nothing reshuffles
     between the survivors. *)
  let before = Ring.create [ "s0"; "s1"; "s2" ] in
  let after = Ring.create [ "s0"; "s1"; "s2"; "s3" ] in
  List.iter
    (fun i ->
      let k = Printf.sprintf "key-%d" i in
      let b = Ring.lookup before k and a = Ring.lookup after k in
      if a <> b then Alcotest.(check string) (k ^ " moved only to the new shard") "s3" a)
    (List.init 300 Fun.id)

let test_ring_empty_rejected () =
  Alcotest.check_raises "empty" (Invalid_argument "Ring.create: no shards") (fun () ->
      ignore (Ring.create []))

(* --- a small hand-built cluster world --- *)

type actor = { name : string; principal : Principal.t; rsa : Crypto.Rsa.private_ }

type cw = {
  w : World.t;
  net : Sim.Net.t;
  ring : Ring.t;
  shards : (string * Shard.t) list;
  endpoints : (string * Router.endpoint) list;
}

let mk_cluster ?revocation_authority ~seed ids =
  let w = World.create ~seed () in
  let net = w.World.net in
  let retry = Sim.Retry.policy ~retries:8 ~timeout_us:10_000 () in
  let shards =
    List.map
      (fun id ->
        let p, key, rsa = World.enrol_pk w id in
        let s =
          ok_or id
            (Shard.create net ~me:p ~my_key:key ~kdc:w.World.kdc_name ~signing_key:rsa
               ~lookup:(fun q -> Directory.public w.World.dir q)
               ~collect_retry:retry ~repl_retry:retry ?revocation_authority
               ~primary_node:(id ^ "-a") ~standby_node:(id ^ "-b") ())
        in
        Shard.install s;
        (id, s))
      ids
  in
  let endpoints = ok_or "warm" (Router.mesh shards) in
  { w; net; ring = Ring.create ids; shards; endpoints }

let mk_actor cw name =
  let principal, _, rsa = World.enrol_pk cw.w name in
  { name; principal; rsa }

let mk_router cw actor =
  let creds_for logical =
    try
      let tgt = World.login cw.w actor.principal in
      Ok (World.credentials_for cw.w ~tgt logical)
    with Failure e -> Error e
  in
  Router.create cw.net ~ring:cw.ring ~endpoints:cw.endpoints ~creds_for
    ~retry:(Sim.Retry.policy ~retries:8 ~timeout_us:10_000 ()) ()

let write_check cw (buyer : actor) ~payee ~amount =
  let _, shard = List.find (fun (id, _) -> id = Ring.lookup cw.ring buyer.name) cw.shards in
  let now = World.now cw.w in
  Check.write ~drbg:(Sim.Net.drbg cw.net) ~now ~expires:(now + (24 * World.hour))
    ~payor:buyer.principal ~payor_key:buyer.rsa
    ~account:(Accounting_server.account (Shard.primary_server shard) buyer.name)
    ~payee ~currency:usd ~amount ()

(* Balances and holds must agree between a shard's replicas, account by
   account, currency by currency. *)
let check_replicas_agree (id, s) =
  let p = Accounting_server.ledger (Shard.primary_server s) in
  let st = Accounting_server.ledger (Shard.standby_server s) in
  Alcotest.(check (list string))
    (id ^ ": same accounts") (Ledger.accounts p) (Ledger.accounts st);
  List.iter
    (fun name ->
      List.iter
        (fun currency ->
          Alcotest.(check int)
            (Printf.sprintf "%s/%s/%s available" id name currency)
            (Ledger.balance p ~name ~currency)
            (Ledger.balance st ~name ~currency);
          Alcotest.(check int)
            (Printf.sprintf "%s/%s/%s held" id name currency)
            (Ledger.held p ~name ~currency)
            (Ledger.held st ~name ~currency))
        (Ledger.currencies p))
    (Ledger.accounts p)

(* --- replication --- *)

let test_replication_mirrors_state () =
  let cw = mk_cluster ~seed:"repl-sync" [ "bank-0"; "bank-1" ] in
  let alice = mk_actor cw "alice" and bob = mk_actor cw "bob" and shop = mk_actor cw "shop" in
  let r_alice = mk_router cw alice and r_bob = mk_router cw bob and r_shop = mk_router cw shop in
  List.iter
    (fun (a, r) -> ok_or a.name (Router.open_account r ~name:a.name))
    [ (alice, r_alice); (bob, r_bob); (shop, r_shop) ];
  List.iter
    (fun a ->
      let _, s = List.find (fun (id, _) -> id = Ring.lookup cw.ring a.name) cw.shards in
      ok_or a.name (Shard.mint s ~name:a.name ~currency:usd 500))
    [ alice; bob ];
  (* Local transfers, cross-shard check clearing, and a balance read — all
     through primaries; the standbys must mirror every effect, including
     the redeemed check number. *)
  (match Router.transfer r_alice ~from_:alice.name ~to_:bob.name ~currency:usd ~amount:40 with
  | Ok () -> Alcotest.(check string) "same shard" (Ring.lookup cw.ring alice.name)
               (Ring.lookup cw.ring bob.name)
  | Error _ -> ());
  let paid =
    ok_or "deposit"
      (Router.deposit r_shop ~endorser_key:shop.rsa
         ~check:(write_check cw alice ~payee:shop.principal ~amount:120)
         ~to_account:shop.name)
  in
  Alcotest.(check int) "cleared face value" 120 paid;
  ignore (ok_or "balance" (Router.balance r_shop ~name:shop.name ~currency:usd));
  List.iter check_replicas_agree cw.shards;
  Alcotest.(check bool) "replication happened" true
    (Sim.Metrics.get (Sim.Net.metrics cw.net) "cluster.repl_applied" > 0)

(* The RSA work of one cross-shard deposit, as perfbench's bank makes
   them: the payor signs the check; the payee endorses it to its bank,
   which endorses it on to the drawee; the drawee verifies the three
   signatures. No key is made. Pinned for the second deposit as well as
   the first, so a sign or verify added to every deposit shows here. *)
let test_deposit_rsa_budget () =
  let cw = mk_cluster ~seed:"deposit budget" [ "bank-0"; "bank-1" ] in
  let actors = List.map (mk_actor cw) [ "alice"; "bob"; "carol"; "dave" ] in
  let payor = List.hd actors in
  let shard_of a = Ring.lookup cw.ring a.name in
  let payee = List.find (fun a -> shard_of a <> shard_of payor) actors in
  let r_payor = mk_router cw payor and r_payee = mk_router cw payee in
  ok_or "payor" (Router.open_account r_payor ~name:payor.name);
  ok_or "payee" (Router.open_account r_payee ~name:payee.name);
  ok_or "mint"
    (Shard.mint (List.assoc (shard_of payor) cw.shards) ~name:payor.name ~currency:usd 1_000);
  let rsa (c : Crypto.Cost.t) = (c.rsa_sign, c.rsa_verify, c.rsa_keygen) in
  let counts = Alcotest.(triple int int int) in
  List.iter
    (fun amount ->
      let before = Crypto.Cost.read () in
      let check = write_check cw payor ~payee:payee.principal ~amount in
      let written = Crypto.Cost.read () in
      Alcotest.(check int) "deposited" amount
        (ok_or "deposit"
           (Router.deposit r_payee ~endorser_key:payee.rsa ~check ~to_account:payee.name));
      let after = Crypto.Cost.read () in
      Alcotest.check counts "the check: one sign" (1, 0, 0)
        (rsa (Crypto.Cost.diff ~before ~after:written));
      Alcotest.check counts "the deposit: two endorsements signed, three signatures verified"
        (2, 3, 0)
        (rsa (Crypto.Cost.diff ~before:written ~after)))
    [ 25; 40 ]

(* A tap rewrites the credit in the primary's first replication ship
   from 10 usd into 1,000,010 usd. The authenticator covers the shipped
   payload, so the standby refuses the ship; the primary keeps the
   changes and the next ship carries them, and then the replicas agree. *)
let test_rewritten_ship_refused () =
  let cw = mk_cluster ~seed:"repl-tamper" [ "bank-0" ] in
  let alice = mk_actor cw "alice" and bob = mk_actor cw "bob" in
  let r_alice = mk_router cw alice and r_bob = mk_router cw bob in
  ok_or "alice" (Router.open_account r_alice ~name:alice.name);
  ok_or "bob" (Router.open_account r_bob ~name:bob.name);
  let _, shard = List.hd cw.shards in
  ok_or "mint" (Shard.mint shard ~name:alice.name ~currency:usd 1_000);
  ok_or "mint" (Shard.mint shard ~name:bob.name ~currency:usd 1_000);
  let rec inflate = function
    | Wire.L [ Wire.S "credit"; Wire.S name; Wire.S cur; Wire.I 10 ] when name = bob.name ->
        Wire.L [ Wire.S "credit"; Wire.S name; Wire.S cur; Wire.I 1_000_010 ]
    | Wire.L items -> Wire.L (List.map inflate items)
    | v -> v
  in
  let rewrites = ref 0 in
  Sim.Net.set_tap cw.net (fun ~dir ~src:_ ~dst payload ->
      match dir with
      | `Request when dst = Shard.standby_node shard && !rewrites = 0 ->
          incr rewrites;
          Sim.Net.Replace (Testkit.rewrite_request inflate payload)
      | _ -> Sim.Net.Deliver);
  ok_or "transfer" (Router.transfer r_alice ~from_:alice.name ~to_:bob.name ~currency:usd
      ~amount:10);
  Sim.Net.clear_tap cw.net;
  let bob_on server = Ledger.balance (Accounting_server.ledger server) ~name:bob.name
      ~currency:usd in
  Alcotest.(check int) "one ship rewritten" 1 !rewrites;
  Alcotest.(check int) "the primary credited 10" 1_010 (bob_on (Shard.primary_server shard));
  Alcotest.(check int) "the standby applied nothing" 1_000 (bob_on (Shard.standby_server shard));
  ok_or "transfer" (Router.transfer r_bob ~from_:bob.name ~to_:alice.name ~currency:usd ~amount:1);
  check_replicas_agree (List.hd cw.shards);
  Alcotest.(check int) "the standby agrees after the next ship" 1_009
    (bob_on (Shard.standby_server shard))

(* Every response from the standby is dropped during a transfer of 10:
   the standby applied the ship, but the primary never hears so, puts the
   transfer's changes and reply back and ships them again with the next
   transfer, under a new authenticator. Each batch carries the journal
   position of its first entry and the standby applies only what is past
   its own position, so the transfer applies once there too and its reply
   is seeded once: after the primary crashes, the promoted standby reads
   the primary's figures. *)
let test_lost_ack_applies_once () =
  let cw = mk_cluster ~seed:"repl-lost-ack" [ "bank-0" ] in
  let alice = mk_actor cw "alice" and bob = mk_actor cw "bob" in
  let r_alice = mk_router cw alice and r_bob = mk_router cw bob in
  ok_or "alice" (Router.open_account r_alice ~name:alice.name);
  ok_or "bob" (Router.open_account r_bob ~name:bob.name);
  let _, shard = List.hd cw.shards in
  ok_or "mint" (Shard.mint shard ~name:alice.name ~currency:usd 1_000);
  let standby = Shard.standby_node shard in
  Sim.Net.set_tap cw.net (fun ~dir ~src ~dst:_ _ ->
      if dir = `Response && src = standby then Sim.Net.Drop else Sim.Net.Deliver);
  let transfer amount =
    ok_or "transfer"
      (Router.transfer r_alice ~from_:alice.name ~to_:bob.name ~currency:usd ~amount)
  in
  transfer 10;
  Sim.Net.clear_tap cw.net;
  Alcotest.(check bool) "the ship failed" true
    (Sim.Metrics.get (Sim.Net.metrics cw.net) "cluster.repl_failures" > 0);
  transfer 1;
  Alcotest.(check int) "one reply seeded per request that changed state" 4
    (Sim.Metrics.get (Sim.Net.metrics cw.net) "cluster.repl_replies_seeded");
  let primary = Accounting_server.ledger (Shard.primary_server shard) in
  Alcotest.(check (pair int int)) "the primary's balances" (989, 11)
    ( Ledger.balance primary ~name:alice.name ~currency:usd,
      Ledger.balance primary ~name:bob.name ~currency:usd );
  check_replicas_agree (List.hd cw.shards);
  Sim.Net.set_down cw.net ~name:(Shard.primary_node shard);
  match Router.balance r_alice ~name:alice.name ~currency:usd with
  | Ok (available, _) ->
      Alcotest.(check bool) "the standby answered" true (Shard.promoted shard);
      Alcotest.(check int) "the promoted standby reads the primary's figure" 989 available
  | Error e -> Alcotest.fail e

(* A standby's response cache keeps the replies it was seeded with, one
   per request that changed state, and the answer to the latest batch
   only: N transfers add N entries, not 2N. A retransmission of the
   latest batch (its answer lost once) is still answered from the cache,
   and applies nothing again. *)
let test_standby_keeps_latest_batch () =
  let cw = mk_cluster ~seed:"standby batch answer" [ "bank-0" ] in
  let alice = mk_actor cw "alice" and bob = mk_actor cw "bob" in
  let r_alice = mk_router cw alice and r_bob = mk_router cw bob in
  ok_or "alice" (Router.open_account r_alice ~name:alice.name);
  ok_or "bob" (Router.open_account r_bob ~name:bob.name);
  let _, shard = List.hd cw.shards in
  ok_or "mint" (Shard.mint shard ~name:alice.name ~currency:usd 1_000);
  let metric name = Sim.Metrics.get (Sim.Net.metrics cw.net) name in
  let cache = Shard.standby_cache shard in
  let transfer () =
    ok_or "transfer" (Router.transfer r_alice ~from_:alice.name ~to_:bob.name ~currency:usd
        ~amount:1)
  in
  let size = Expiring.size cache in
  let n = 6 in
  for _ = 1 to n do
    transfer ()
  done;
  Alcotest.(check int) "N transfers add N entries" n (Expiring.size cache - size);
  Alcotest.(check int) "the seeded replies and one batch answer"
    (metric "cluster.repl_replies_seeded" + 1) (Expiring.size cache);
  let standby = Shard.standby_node shard in
  let lost = ref false in
  Sim.Net.set_tap cw.net (fun ~dir ~src ~dst:_ _ ->
      if dir = `Response && src = standby && not !lost then begin
        lost := true;
        Sim.Net.Drop
      end
      else Sim.Net.Deliver);
  let dedup = metric "rpc.dedup" and applied = metric "cluster.repl_applied" in
  transfer ();
  Sim.Net.clear_tap cw.net;
  Alcotest.(check bool) "an answer was lost" true !lost;
  Alcotest.(check (pair int int)) "the retransmission: answered from the cache, applied once"
    (1, 1)
    (metric "rpc.dedup" - dedup, metric "cluster.repl_applied" - applied);
  Alcotest.(check int) "still one batch answer" (metric "cluster.repl_replies_seeded" + 1)
    (Expiring.size cache);
  check_replicas_agree (List.hd cw.shards)

(* --- failover --- *)

(* The sharpest exactly-once case: the primary executes a deposit, ships it
   to the standby, and dies before the client sees the reply. The client's
   retransmission fails over and must be answered from the standby's seeded
   response cache — same sealed bytes, no second execution. *)
let test_failover_exactly_once () =
  let cw = mk_cluster ~seed:"failover" [ "bank-0" ] in
  let alice = mk_actor cw "alice" and shop = mk_actor cw "shop" in
  let r_alice = mk_router cw alice and r_shop = mk_router cw shop in
  ok_or "alice" (Router.open_account r_alice ~name:alice.name);
  ok_or "shop" (Router.open_account r_shop ~name:shop.name);
  let _, shard = List.hd cw.shards in
  ok_or "mint" (Shard.mint shard ~name:alice.name ~currency:usd 1_000);
  (* One ledger per replica holds the same money (the standby is a mirror,
     not extra funds), so conservation is judged over a single copy. *)
  let before = Invariant.capture [ Accounting_server.ledger (Shard.primary_server shard) ] in
  let check = write_check cw alice ~payee:shop.principal ~amount:100 in
  let primary = Shard.primary_node shard in
  let shop_name = Principal.to_string shop.principal in
  (* Kill the primary at the worst instant: its reply to the shop is on the
     wire (the handler ran, replication shipped) when it goes down. *)
  let killed = ref false in
  Sim.Net.set_tap cw.net (fun ~dir ~src ~dst _ ->
      if dir = `Response && src = primary && dst = shop_name && not !killed then begin
        killed := true;
        Sim.Net.set_down cw.net ~name:primary;
        Sim.Net.Drop
      end
      else Sim.Net.Deliver);
  let paid =
    ok_or "deposit across failover"
      (Router.deposit r_shop ~endorser_key:shop.rsa ~check ~to_account:shop.name)
  in
  Sim.Net.clear_tap cw.net;
  Alcotest.(check bool) "the kill fired" true !killed;
  Alcotest.(check int) "credited once, full face value" 100 paid;
  let m = Sim.Net.metrics cw.net in
  Alcotest.(check bool) "failed over" true (Sim.Metrics.get m "cluster.failovers" >= 1);
  Alcotest.(check bool) "standby cache answered the retransmission" true
    (Sim.Metrics.get m "rpc.dedup" >= 1);
  (* The standby is now authoritative; the money moved exactly once. *)
  let auth = Accounting_server.ledger (Shard.authoritative shard) in
  Alcotest.(check int) "alice debited once" 900 (Ledger.balance auth ~name:alice.name
    ~currency:usd);
  Alcotest.(check int) "shop credited once" 100 (Ledger.balance auth ~name:shop.name ~currency:usd);
  (match Invariant.check before [ auth ] with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("conservation across failover: " ^ e));
  (* Redeeming the same check again at the promoted standby must bounce:
     the accept-once record was replicated too. *)
  (match Router.deposit r_shop ~endorser_key:shop.rsa ~check ~to_account:shop.name with
  | Ok _ -> Alcotest.fail "same check paid twice after failover"
  | Error _ -> ());
  Alcotest.(check int) "still exactly once" 900
    (Ledger.balance auth ~name:alice.name ~currency:usd);
  (* Fresh work lands on the promoted standby. *)
  let paid2 =
    ok_or "post-failover deposit"
      (Router.deposit r_shop ~endorser_key:shop.rsa
         ~check:(write_check cw alice ~payee:shop.principal ~amount:50)
         ~to_account:shop.name)
  in
  Alcotest.(check int) "fresh deposit clears on the standby" 50 paid2;
  Alcotest.(check bool) "promoted" true (Shard.promoted shard)

(* A one-shard cluster where alice (1000 usd) and shop hold accounts. *)
let one_shard_bank ?revocation_authority ~seed () =
  let cw = mk_cluster ?revocation_authority ~seed [ "bank-0" ] in
  let alice = mk_actor cw "alice" and shop = mk_actor cw "shop" in
  ok_or "alice" (Router.open_account (mk_router cw alice) ~name:alice.name);
  let r_shop = mk_router cw shop in
  ok_or "shop" (Router.open_account r_shop ~name:shop.name);
  let _, shard = List.hd cw.shards in
  ok_or "mint" (Shard.mint shard ~name:alice.name ~currency:usd 1_000);
  (cw, shard, alice, shop, r_shop)

let alice_balance shard (alice : actor) =
  Ledger.balance
    (Accounting_server.ledger (Shard.authoritative shard))
    ~name:alice.name ~currency:usd

(* A second redemption observer on the primary — a scenario's redemption
   counter — must not displace the one the shard journals accept-once
   records through: the standby must still bounce a check the dead
   primary already paid. *)
let test_counting_observer_keeps_replication () =
  let cw, shard, alice, shop, r_shop = one_shard_bank ~seed:"observer" () in
  let counted = ref 0 in
  Accounting_server.add_redemption_observer (Shard.primary_server shard) (fun _ -> incr counted);
  let check = write_check cw alice ~payee:shop.principal ~amount:100 in
  let deposit () = Router.deposit r_shop ~endorser_key:shop.rsa ~check ~to_account:shop.name in
  Alcotest.(check int) "paid on the primary" 100 (ok_or "deposit" (deposit ()));
  Alcotest.(check int) "the counter saw it" 1 !counted;
  Sim.Net.set_down cw.net ~name:(Shard.primary_node shard);
  (match deposit () with
  | Ok _ -> Alcotest.fail "the promoted standby paid the same check again"
  | Error _ -> ());
  Alcotest.(check int) "alice debited once" 900 (alice_balance shard alice)

(* [holder] draws on a presented proxy over [payor_account] into its own
   account, down the shard's replica list like any client call. *)
let proxy_draw cw shard (holder : actor) =
  let creds =
    World.credentials_for cw.w ~tgt:(World.login cw.w holder.principal) (Shard.logical shard)
  in
  fun ~proxy ~payor_account ~amount ->
    Accounting_server.proxy_debit
      ~retry:(Sim.Retry.policy ~retries:8 ~timeout_us:10_000 ())
      ~via:[ Shard.primary_node shard; Shard.standby_node shard ]
      cw.net ~creds ~proxy ~payor_account ~to_account:holder.name ~currency:usd ~amount

let expect_refused ~needle what = function
  | Ok _ -> Alcotest.fail (what ^ " was granted")
  | Error e ->
      if not (Sim.Span.contains_substring ~needle e) then
        Alcotest.failf "%s refused for the wrong reason: %s" what e

(* A grant's running total is replicated state: the promoted standby goes
   on counting where the primary stopped. *)
let test_failover_keeps_grant_total () =
  let cw, shard, alice, shop, _ = one_shard_bank ~seed:"grant-total" () in
  let now = World.now cw.w in
  let authority =
    Standing.grant ~drbg:(Sim.Net.drbg cw.net) ~now ~expires:(now + (24 * World.hour))
      ~owner:alice.principal ~owner_key:alice.rsa
      ~account:(Accounting_server.account (Shard.primary_server shard) alice.name)
      ~holder:shop.principal ~currency:usd ~limit:100 ()
  in
  let draw =
    proxy_draw cw shard shop ~proxy:authority.Standing.authority ~payor_account:alice.name
  in
  Alcotest.(check int) "first draw at the primary" 60 (ok_or "draw" (draw ~amount:60));
  Sim.Net.set_down cw.net ~name:(Shard.primary_node shard);
  expect_refused ~needle:"quota: 120 usd exceeds limit 100" "a second 60 at the standby"
    (draw ~amount:60);
  Alcotest.(check bool) "promoted" true (Shard.promoted shard);
  Alcotest.(check int) "alice drawn once" 940 (alice_balance shard alice)

(* An accept-once identifier consumed by a presented-proxy draw on the
   primary stays consumed at the promoted standby. *)
let test_failover_keeps_accept_once () =
  let cw, shard, alice, shop, _ = one_shard_bank ~seed:"accept-once" () in
  let now = World.now cw.w in
  let voucher =
    Proxy.grant_keyless ~drbg:(Sim.Net.drbg cw.net) ~now ~expires:(now + (24 * World.hour))
      ~grantor:alice.principal ~grantor_key:alice.rsa
      ~restrictions:
        [ Restriction.Grantee ([ shop.principal ], 1);
          Restriction.Accept_once "voucher-1";
          Restriction.Quota (usd, 30);
          Restriction.Issued_for [ Shard.logical shard ];
          Restriction.Authorized [ { Restriction.target = alice.name; ops = [ "debit" ] } ] ]
      ()
  in
  let draw = proxy_draw cw shard shop ~proxy:voucher ~payor_account:alice.name in
  Alcotest.(check int) "drawn at the primary" 30 (ok_or "draw" (draw ~amount:30));
  Sim.Net.set_down cw.net ~name:(Shard.primary_node shard);
  expect_refused ~needle:"accept-once" "the voucher again at the standby" (draw ~amount:30);
  Alcotest.(check int) "alice drawn once" 970 (alice_balance shard alice)

(* A mirrored accept-once record carries the primary's grantor tag, so a
   grantor-epoch bulletin sheds it on both replicas alike. *)
let test_bulletin_sheds_on_both_replicas () =
  let ra_p = Principal.make ~realm:"ATHENA" "revoker" in
  let ra_rsa = Crypto.Rsa.generate (Crypto.Drbg.create ~seed:"revoker") ~bits:512 in
  let cw, shard, alice, shop, r_shop =
    one_shard_bank ~revocation_authority:(ra_p, ra_rsa.Crypto.Rsa.pub) ~seed:"shed" ()
  in
  let check = write_check cw alice ~payee:shop.principal ~amount:100 in
  Alcotest.(check int) "paid" 100
    (ok_or "deposit"
       (Router.deposit r_shop ~endorser_key:shop.rsa ~check ~to_account:shop.name));
  let seen server =
    Option.is_some
      (Expiring.find
         (Guard.accepted (Accounting_server.guard server))
         ~now:(World.now cw.w) check.Check.number)
  in
  let replicas =
    [ ("primary", Shard.primary_server shard); ("standby", Shard.standby_server shard) ]
  in
  List.iter
    (fun (r, s) -> Alcotest.(check bool) (r ^ " recorded the check") true (seen s))
    replicas;
  let now = World.now cw.w in
  let bulletin =
    Revocation.sign ~key:ra_rsa ~issuer:ra_p ~epoch:1 ~issued_at:now
      [ Revocation.By_grantor_epoch { grantor = alice.principal; not_before = now + 1 } ]
  in
  Alcotest.(check bool) "bulletin applied" true
    (ok_or "bulletin" (Shard.apply_bulletin shard bulletin));
  List.iter (fun (r, s) -> Alcotest.(check bool) (r ^ " shed the record") false (seen s)) replicas

(* The standby seeds each replicated reply under its client's tag, so
   when capacity pressure evicts a seeded reply, that client's
   retransmission after a failover reads forgotten and is refused: the
   transfer it carries does not run a second time. *)
let test_failover_evicted_seed_refused () =
  let cw, shard, alice, shop, r_shop = one_shard_bank ~seed:"evicted seed" () in
  let primary = Shard.primary_node shard in
  let captured = ref None in
  Sim.Net.set_tap cw.net (fun ~dir ~src ~dst payload ->
      if dir = `Request && src = Principal.to_string alice.principal && dst = primary then
        captured := Some payload;
      Sim.Net.Deliver);
  ok_or "transfer"
    (Router.transfer (mk_router cw alice) ~from_:alice.name ~to_:shop.name ~currency:usd
       ~amount:10);
  Sim.Net.clear_tap cw.net;
  (* Each replicated request seeds one reply and caches its replication
     exchange at the standby, so 4096 of them push alice's seed out of its
     default 4096 entries. *)
  for i = 1 to 4096 do
    ok_or "open" (Router.open_account r_shop ~name:(Printf.sprintf "flood-%d" i))
  done;
  Sim.Net.set_down cw.net ~name:primary;
  let raw = Option.get !captured in
  (match Sim.Net.rpc cw.net ~src:"alice" ~dst:(Shard.standby_node shard) raw with
  | Ok reply ->
      Alcotest.(check bool) "the retransmission reads forgotten" true
        (match Wire.decode reply with
        | Ok (Wire.L [ Wire.S "err"; Wire.S e ]) ->
            String.starts_with ~prefix:"authenticator forgotten" e
        | _ -> false)
  | Error e -> Alcotest.fail e);
  Alcotest.(check int) "alice debited once" 990 (alice_balance shard alice)

(* Mallory steers her authenticator's tag onto that of alice's transfer,
   whose reply the standby holds, and sends her request straight to the
   standby while the primary is up. The standby keys the seeded reply by
   alice's ticket as well as its tag, so mallory's request misses it and
   meets the promotion gate: she is refused, under her own session key,
   while alice's own retransmission still gets her sealed reply. *)
let test_standby_steered_tag_refused () =
  let cw, shard, alice, shop, _ = one_shard_bank ~seed:"standby steer" () in
  let mallory = mk_actor cw "mallory" in
  let primary = Shard.primary_node shard in
  let alice_node = Principal.to_string alice.principal in
  let request = ref None and reply = ref None in
  Sim.Net.set_tap cw.net (fun ~dir ~src ~dst payload ->
      (match dir with
      | `Request when src = alice_node && dst = primary -> request := Some payload
      | `Response when src = primary && dst = alice_node -> reply := Some payload
      | _ -> ());
      Sim.Net.Deliver);
  ok_or "transfer"
    (Router.transfer (mk_router cw alice) ~from_:alice.name ~to_:shop.name ~currency:usd
       ~amount:10);
  Sim.Net.clear_tap cw.net;
  let standby = Shard.standby_node shard in
  Alcotest.(check bool) "alice's retransmission gets her sealed reply at the standby" true
    (Result.to_option (Sim.Net.rpc cw.net ~src:alice_node ~dst:standby (Option.get !request))
    = !reply);
  let creds =
    World.credentials_for cw.w ~tgt:(World.login cw.w mallory.principal) (Shard.logical shard)
  in
  let forged =
    Testkit.steered_request cw.net ~creds ~timestamp:(World.now cw.w)
      ~payload:(fun free -> Wire.L [ Wire.S "open-account"; Wire.S free ])
      (Testkit.auth_tag (Option.get !request))
  in
  (match Sim.Net.rpc cw.net ~src:"mallory" ~dst:standby forged with
  | Error e -> Alcotest.fail e
  | Ok answer -> (
      if Some answer = !reply then Alcotest.fail "the standby answered with alice's sealed reply";
      match Wire.decode answer with
      | Ok (Wire.L [ Wire.S "sealed"; Wire.S box ]) ->
          Alcotest.(check (result string string)) "refused under mallory's session"
            (Ok (Wire.encode (Wire.L [ Wire.S "err"; Wire.S "standby: not primary" ])))
            (Result.map_error
               (fun _ -> "does not open under mallory's key")
               (Crypto.Aead.open_prepared creds.Ticket.cred_session ~ad:"secure-rpc-resp" box))
      | _ -> Alcotest.fail "malformed answer"));
  Alcotest.(check bool) "the standby is not promoted" false (Shard.promoted shard);
  Alcotest.(check int) "alice debited once" 990 (alice_balance shard alice)

(* --- the full scenario --- *)

let test_scenario_conservation_and_determinism () =
  let cfg =
    { Scenario.default with seed = "scenario-test"; shards = 2; ops = 30; buyers = 3 }
  in
  let o = Scenario.run cfg in
  (match o.Scenario.conserved with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("conservation: " ^ e));
  Alcotest.(check int) "no double redemption" 0 o.Scenario.double_redemptions;
  Alcotest.(check int) "the crashed shard promoted its standby" 1 o.Scenario.promotions;
  Alcotest.(check bool) "clients failed over" true (o.Scenario.failovers >= 1);
  Alcotest.(check bool) "replication shipped" true (o.Scenario.repl_shipped > 0);
  Alcotest.(check bool) "goodput positive" true (o.Scenario.succeeded > 0);
  Alcotest.(check string) "digest identical on rerun" o.Scenario.digest
    (Scenario.run cfg).Scenario.digest

(* --- random ledger op sequences (the bugfix sweep's property) --- *)

let accounts = [ "a"; "b"; "c" ]
let currencies = [ "usd"; "pages" ]

(* (op kind, account, other account, currency, amount) *)
let gen_op =
  QCheck.Gen.(
    map
      (fun (kind, acct, acct2, cur, amount) -> (kind, acct, acct2, cur, amount))
      (tup5 (int_range 0 4) (oneofl accounts) (oneofl accounts) (oneofl currencies)
         (int_range 1 1_000)))

(* [flow] accumulates net money created: +mint, -debit, -take_hold (the
   two ops that move value out of this ledger, e.g. to a clearing peer). *)
let apply_op l flow (kind, acct, acct2, cur, amount) =
  match kind with
  | 0 -> if Ledger.mint l ~name:acct
    ~currency:cur amount = Ok () then flow := (cur, amount) :: !flow
  | 1 ->
      if Ledger.debit l ~name:acct ~currency:cur amount = Ok () then
        flow := (cur, -amount) :: !flow
  | 2 -> ignore (Ledger.transfer l ~from_:acct ~to_:acct2 ~currency:cur amount)
  | 3 -> ignore (Ledger.hold l ~name:acct ~id:(Printf.sprintf "h-%s-%d" acct amount)
    ~currency:cur amount)
  | _ -> (
      match Ledger.take_hold l ~name:acct ~id:(Printf.sprintf "h-%s-%d" acct amount) with
      | Ok (cur', taken) -> flow := (cur', -taken) :: !flow
      | Error _ -> ())

let prop_ledger_invariants =
  QCheck.Test.make ~name:"random op sequences: conservation, no negatives, journal replays"
    ~count:60
    (QCheck.make QCheck.Gen.(list_size (int_range 1 60) gen_op))
    (fun ops ->
      let l = Ledger.create () in
      let journal = ref [] in
      Ledger.set_journal l (Some (fun op -> journal := op :: !journal));
      let owner = Principal.make ~realm:"x" "owner" in
      List.iter (fun name -> ignore (Ledger.open_account l ~owner ~name)) accounts;
      let flow = ref [] in
      List.iter (apply_op l flow) ops;
      (* 1. No account ever shows a negative available balance. *)
      List.iter
        (fun name ->
          List.iter
            (fun currency ->
              if Ledger.balance l ~name ~currency < 0 then
                QCheck.Test.fail_reportf "negative balance on %s/%s" name currency)
            currencies)
        accounts;
      (* 2. Per-currency conservation: the total equals the net of the
         ops that create or remove money (mint, debit, take_hold);
         transfers and holds only move it around. *)
      List.iter
        (fun currency ->
          let expected =
            List.fold_left (fun acc (c, a) -> if c = currency then acc + a else acc) 0 !flow
          in
          if Ledger.total l ~currency <> expected then
            QCheck.Test.fail_reportf "%s: total %d <> net flow %d" currency
              (Ledger.total l ~currency) expected)
        currencies;
      (* 3. Replaying the journal rebuilds the exact state — the property
         replication relies on. *)
      let l2 = Ledger.create () in
      List.iter
        (fun op ->
          let c = Accounting_server.Ledger op in
          if Accounting_server.change_of_wire (Accounting_server.change_to_wire c) <> Ok c then
            QCheck.Test.fail_report "op round-trip";
          match Ledger.apply l2 op with
          | Ok _ -> ()
          | Error e -> QCheck.Test.fail_reportf "journal replay refused: %s" e)
        (List.rev !journal);
      List.iter
        (fun name ->
          List.iter
            (fun currency ->
              if
                Ledger.balance l ~name ~currency <> Ledger.balance l2 ~name ~currency
                || Ledger.held l ~name ~currency <> Ledger.held l2 ~name ~currency
              then QCheck.Test.fail_reportf "replica diverged on %s/%s" name currency)
            currencies)
        accounts;
      true)

(* The same op mix pushed through a live one-shard cluster: every effect
   the primary applies must reach the standby through real replication. *)
let test_random_ops_through_shard () =
  let cw = mk_cluster ~seed:"random-ops" [ "bank-0" ] in
  let alice = mk_actor cw "alice" and bob = mk_actor cw "bob" and shop = mk_actor cw "shop" in
  let r_alice = mk_router cw alice and r_bob = mk_router cw bob and r_shop = mk_router cw shop in
  List.iter
    (fun (a, r) -> ok_or a.name (Router.open_account r ~name:a.name))
    [ (alice, r_alice); (bob, r_bob); (shop, r_shop) ];
  let _, shard = List.hd cw.shards in
  ok_or "mint" (Shard.mint shard ~name:alice.name ~currency:usd 2_000);
  ok_or "mint" (Shard.mint shard ~name:bob.name ~currency:usd 2_000);
  let wl = Crypto.Drbg.create ~seed:"random-ops-workload" in
  for _ = 1 to 40 do
    match Crypto.Drbg.uniform_int wl 4 with
    | 0 ->
        ignore
          (Router.transfer r_alice ~from_:alice.name ~to_:bob.name ~currency:usd
             ~amount:(1 + Crypto.Drbg.uniform_int wl 50))
    | 1 ->
        ignore
          (Router.transfer r_bob ~from_:bob.name ~to_:alice.name ~currency:usd
             ~amount:(1 + Crypto.Drbg.uniform_int wl 50))
    | 2 ->
        ignore
          (Router.deposit r_shop ~endorser_key:shop.rsa
             ~check:
               (write_check cw
                  (if Crypto.Drbg.uniform_int wl 2 = 0 then alice else bob)
                  ~payee:shop.principal ~amount:(1 + Crypto.Drbg.uniform_int wl 40))
             ~to_account:shop.name)
    | _ -> ignore (Router.balance r_alice ~name:alice.name ~currency:usd)
  done;
  List.iter check_replicas_agree cw.shards

(* Secure_rpc counts each replica move once, so a scenario's own
   [on_failover] must not count it again: the seq scenario fails over three
   times at its default config. *)
let test_seq_failovers_counted_once () =
  let o = Seq_scenario.run Seq_scenario.default in
  let line =
    List.find_opt
      (fun l -> String.starts_with ~prefix:"cluster.failovers=" l)
      (String.split_on_char '\n' o.Seq_scenario.digest)
  in
  Alcotest.(check (option string)) "failovers in the digest" (Some "cluster.failovers=3") line

let () =
  Alcotest.run "cluster"
    [ ( "ring",
        [ ("lookup is total and agreed", `Quick, test_ring_lookup);
          ("adding a shard moves keys only to it", `Quick, test_ring_stability);
          ("empty shard set rejected", `Quick, test_ring_empty_rejected) ] );
      ( "replication",
        [ ("standby mirrors the primary", `Slow, test_replication_mirrors_state);
          ("random op mix through one shard", `Slow, test_random_ops_through_shard);
          ("a rewritten ship is refused", `Slow, test_rewritten_ship_refused);
          ("a re-shipped batch applies once", `Slow, test_lost_ack_applies_once);
          ("a standby keeps the latest batch's answer", `Slow, test_standby_keeps_latest_batch) ] );
      ("deposit", [ ("a cross-shard deposit's RSA work", `Quick, test_deposit_rsa_budget) ]);
      ( "failover",
        [ ("exactly-once across a mid-reply crash", `Slow, test_failover_exactly_once);
          ("a counting observer keeps replication", `Quick,
           test_counting_observer_keeps_replication);
          ("a grant's running total survives", `Quick, test_failover_keeps_grant_total);
          ("an accept-once draw survives", `Quick, test_failover_keeps_accept_once);
          ("a bulletin sheds on both replicas", `Quick, test_bulletin_sheds_on_both_replicas);
          ("seq counts each failover once", `Quick, test_seq_failovers_counted_once);
          ("an evicted seed is refused, not re-run", `Slow, test_failover_evicted_seed_refused);
          ("a steered tag at the standby is refused", `Quick, test_standby_steered_tag_refused) ] );
      ( "scenario",
        [ ("conservation + determinism under crash", `Slow,
           test_scenario_conservation_and_determinism) ] );
      ("properties", List.map QCheck_alcotest.to_alcotest [ prop_ledger_invariants ]) ]
