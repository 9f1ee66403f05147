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

let mk_cluster ~seed ids =
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
               ~collect_retry:retry ~repl_retry:retry ~primary_node:(id ^ "-a")
               ~standby_node:(id ^ "-b") ())
        in
        Shard.install s;
        (id, s))
      ids
  in
  List.iter
    (fun (_, s1) ->
      List.iter
        (fun (_, s2) ->
          if not (Principal.equal (Shard.logical s1) (Shard.logical s2)) then begin
            Shard.set_route s1 ~drawee:(Shard.logical s2)
              ~via:[ Shard.primary_node s2; Shard.standby_node s2 ]
              ~next_hop:(Shard.logical s2) ();
            ok_or "warm" (Shard.warm s1 ~drawee:(Shard.logical s2))
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
  { w; net; ring = Ring.create ids; shards; endpoints }

let mk_actor cw name =
  let principal, _ = World.enrol cw.w name in
  let rsa = Crypto.Rsa.generate (Sim.Net.drbg cw.net) ~bits:512 in
  Directory.add_public cw.w.World.dir principal rsa.Crypto.Rsa.pub;
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
  Alcotest.(check int) "alice debited once" 900 (Ledger.balance auth ~name:alice.name ~currency:usd);
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

(* A second redemption observer on the primary — a scenario's redemption
   counter — must not displace the one the shard journals accept-once
   records through: the standby must still bounce a check the dead
   primary already paid. *)
let test_counting_observer_keeps_replication () =
  let cw = mk_cluster ~seed:"observer" [ "bank-0" ] in
  let alice = mk_actor cw "alice" and shop = mk_actor cw "shop" in
  let r_alice = mk_router cw alice and r_shop = mk_router cw shop in
  ok_or "alice" (Router.open_account r_alice ~name:alice.name);
  ok_or "shop" (Router.open_account r_shop ~name:shop.name);
  let _, shard = List.hd cw.shards in
  ok_or "mint" (Shard.mint shard ~name:alice.name ~currency:usd 1_000);
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
  Alcotest.(check int) "alice debited once" 900
    (Ledger.balance
       (Accounting_server.ledger (Shard.authoritative shard))
       ~name:alice.name ~currency:usd)

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
      (tup5 (int_range 0 5) (oneofl accounts) (oneofl accounts) (oneofl currencies)
         (int_range 1 1_000)))

(* [flow] accumulates net money created: +mint, -debit, -take_hold (the
   two ops that move value out of this ledger, e.g. to a clearing peer). *)
let apply_op l flow (kind, acct, acct2, cur, amount) =
  match kind with
  | 0 -> if Ledger.mint l ~name:acct ~currency:cur amount = Ok () then flow := (cur, amount) :: !flow
  | 1 ->
      if Ledger.debit l ~name:acct ~currency:cur amount = Ok () then
        flow := (cur, -amount) :: !flow
  | 2 -> ignore (Ledger.transfer l ~from_:acct ~to_:acct2 ~currency:cur amount)
  | 3 -> ignore (Ledger.hold l ~name:acct ~id:(Printf.sprintf "h-%s-%d" acct amount) ~currency:cur amount)
  | 4 -> ignore (Ledger.release_hold l ~name:acct ~id:(Printf.sprintf "h-%s-%d" acct amount))
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
          match Ledger.apply l2 (ok_or "op round-trip" (Ledger.op_of_wire (Ledger.op_to_wire op))) with
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
          ("random op mix through one shard", `Slow, test_random_ops_through_shard) ] );
      ( "failover",
        [ ("exactly-once across a mid-reply crash", `Slow, test_failover_exactly_once);
          ("a counting observer keeps replication", `Quick,
           test_counting_observer_keeps_replication);
          ("seq counts each failover once", `Quick, test_seq_failovers_counted_once) ] );
      ( "scenario",
        [ ("conservation + determinism under crash", `Slow,
           test_scenario_conservation_and_determinism) ] );
      ("properties", List.map QCheck_alcotest.to_alcotest [ prop_ledger_invariants ]) ]
