(* The distributed accounting service: ledgers, check clearing across
   servers (Fig. 5), certified and cashier's checks, and the attacks the
   restrictions must stop. *)

module W = Testkit

let usd = "usd"

(* --- ledger unit tests --- *)

let carol_p = Principal.make ~realm:"x" "carol"

let test_ledger_basics () =
  let l = Ledger.create () in
  Alcotest.(check bool) "open" true (Ledger.open_account l ~owner:carol_p ~name:"a" = Ok ());
  Alcotest.(check bool) "duplicate refused" true
    (Result.is_error (Ledger.open_account l ~owner:carol_p ~name:"a"));
  Alcotest.(check bool) "mint" true (Ledger.mint l ~name:"a" ~currency:usd 100 = Ok ());
  Alcotest.(check int) "balance" 100 (Ledger.balance l ~name:"a" ~currency:usd);
  Alcotest.(check int) "other currency zero" 0 (Ledger.balance l ~name:"a" ~currency:"pages");
  Alcotest.(check bool) "debit" true (Ledger.debit l ~name:"a" ~currency:usd 30 = Ok ());
  Alcotest.(check bool) "overdraft refused" true
    (Result.is_error (Ledger.debit l ~name:"a" ~currency:usd 71));
  Alcotest.(check bool) "negative refused" true
    (Result.is_error (Ledger.credit l ~name:"a" ~currency:usd (-5)));
  Alcotest.(check bool) "unknown account" true
    (Result.is_error (Ledger.debit l ~name:"zz" ~currency:usd 1))

let test_ledger_transfer_and_total () =
  let l = Ledger.create () in
  ignore (Ledger.open_account l ~owner:carol_p ~name:"a");
  ignore (Ledger.open_account l ~owner:carol_p ~name:"b");
  ignore (Ledger.mint l ~name:"a" ~currency:usd 100);
  Alcotest.(check bool) "transfer" true (Ledger.transfer l ~from_:"a" ~to_:"b" ~currency:usd 40 = Ok ());
  Alcotest.(check int) "a" 60 (Ledger.balance l ~name:"a" ~currency:usd);
  Alcotest.(check int) "b" 40 (Ledger.balance l ~name:"b" ~currency:usd);
  Alcotest.(check int) "total conserved" 100 (Ledger.total l ~currency:usd);
  Alcotest.(check bool) "transfer to unknown refused" true
    (Result.is_error (Ledger.transfer l ~from_:"a" ~to_:"zz" ~currency:usd 1))

let test_ledger_holds () =
  let l = Ledger.create () in
  ignore (Ledger.open_account l ~owner:carol_p ~name:"a");
  ignore (Ledger.mint l ~name:"a" ~currency:usd 100);
  Alcotest.(check bool) "hold" true (Ledger.hold l ~name:"a" ~id:"ck1" ~currency:usd 30 = Ok ());
  Alcotest.(check int) "available drops" 70 (Ledger.balance l ~name:"a" ~currency:usd);
  Alcotest.(check int) "held" 30 (Ledger.held l ~name:"a" ~currency:usd);
  Alcotest.(check int) "total unchanged" 100 (Ledger.total l ~currency:usd);
  Alcotest.(check bool) "duplicate hold refused" true
    (Result.is_error (Ledger.hold l ~name:"a" ~id:"ck1" ~currency:usd 10));
  Alcotest.(check bool) "hold beyond funds refused" true
    (Result.is_error (Ledger.hold l ~name:"a" ~id:"ck2" ~currency:usd 80));
  (match Ledger.take_hold l ~name:"a" ~id:"ck1" with
  | Ok (c, amt) ->
      Alcotest.(check string) "currency" usd c;
      Alcotest.(check int) "amount" 30 amt
  | Error e -> Alcotest.fail e);
  Alcotest.(check int) "held gone" 0 (Ledger.held l ~name:"a" ~currency:usd);
  ignore (Ledger.hold l ~name:"a" ~id:"ck3" ~currency:usd 20);
  Alcotest.(check bool) "release" true (Ledger.release_hold l ~name:"a" ~id:"ck3" = Ok ());
  Alcotest.(check int) "released back" 70 (Ledger.balance l ~name:"a" ~currency:usd)

(* Regression: balances are native ints and addition used to wrap. A credit
   that would overflow must be refused with the balance intact, compound
   operations must compensate their earlier steps, and read-side sums
   (held, total) saturate at max_int instead of going negative. *)
let test_ledger_overflow () =
  let l = Ledger.create () in
  ignore (Ledger.open_account l ~owner:carol_p ~name:"a");
  ignore (Ledger.open_account l ~owner:carol_p ~name:"b");
  Alcotest.(check bool) "mint max_int" true (Ledger.mint l ~name:"a" ~currency:usd max_int = Ok ());
  (match Ledger.credit l ~name:"a" ~currency:usd 1 with
  | Ok () -> Alcotest.fail "credit past max_int accepted (balance would wrap)"
  | Error e -> Alcotest.(check string) "overflow named" "balance overflow" e);
  Alcotest.(check int) "balance intact after refusal" max_int
    (Ledger.balance l ~name:"a" ~currency:usd);
  (* transfer into a full account: the already-performed debit is undone *)
  ignore (Ledger.mint l ~name:"b" ~currency:usd 10);
  Alcotest.(check bool) "transfer into full account refused" true
    (Result.is_error (Ledger.transfer l ~from_:"b" ~to_:"a" ~currency:usd 5));
  Alcotest.(check int) "debit compensated" 10 (Ledger.balance l ~name:"b" ~currency:usd);
  Alcotest.(check int) "target untouched" max_int (Ledger.balance l ~name:"a" ~currency:usd)

let test_ledger_held_saturates () =
  let l = Ledger.create () in
  ignore (Ledger.open_account l ~owner:carol_p ~name:"a");
  ignore (Ledger.mint l ~name:"a" ~currency:usd max_int);
  Alcotest.(check bool) "hold h1" true (Ledger.hold l ~name:"a" ~id:"h1" ~currency:usd max_int = Ok ());
  ignore (Ledger.mint l ~name:"a" ~currency:usd max_int);
  Alcotest.(check bool) "hold h2" true (Ledger.hold l ~name:"a" ~id:"h2" ~currency:usd max_int = Ok ());
  (* 2 * max_int wraps negative as native addition; the fold saturates *)
  Alcotest.(check int) "held saturates" max_int (Ledger.held l ~name:"a" ~currency:usd);
  Alcotest.(check int) "total saturates" max_int (Ledger.total l ~currency:usd)

let test_ledger_release_hold_compensates () =
  let l = Ledger.create () in
  ignore (Ledger.open_account l ~owner:carol_p ~name:"a");
  ignore (Ledger.mint l ~name:"a" ~currency:usd 10);
  Alcotest.(check bool) "hold" true (Ledger.hold l ~name:"a" ~id:"h" ~currency:usd 10 = Ok ());
  ignore (Ledger.mint l ~name:"a" ~currency:usd max_int);
  (* releasing the hold would credit past max_int: the hold must be
     restored, not silently dropped with the money *)
  Alcotest.(check bool) "release refused" true
    (Result.is_error (Ledger.release_hold l ~name:"a" ~id:"h"));
  Alcotest.(check int) "hold restored" 10 (Ledger.held l ~name:"a" ~currency:usd);
  Alcotest.(check int) "balance untouched" max_int (Ledger.balance l ~name:"a" ~currency:usd)

(* --- two-bank world --- *)

type bank_world = {
  w : W.world;
  carol : Principal.t;  (* payor C, banks at bank2 *)
  carol_rsa : Crypto.Rsa.private_;
  shop : Principal.t;  (* payee S, banks at bank1 *)
  shop_rsa : Crypto.Rsa.private_;
  bank1 : Accounting_server.t;
  bank1_name : Principal.t;
  bank2 : Accounting_server.t;
  bank2_name : Principal.t;
  lookup : Principal.t -> Crypto.Rsa.public option;
}

let bank_world ?(seed = "accounting tests") () =
  let w = W.create ~seed () in
  let drbg = Sim.Net.drbg w.W.net in
  let carol, _ = W.enrol w "carol" in
  let shop, _ = W.enrol w "shop" in
  let b1, b1key = W.enrol w "bank1" in
  let b2, b2key = W.enrol w "bank2" in
  let carol_rsa = Crypto.Rsa.generate drbg ~bits:512 in
  let shop_rsa = Crypto.Rsa.generate drbg ~bits:512 in
  let b1_rsa = Crypto.Rsa.generate drbg ~bits:512 in
  let b2_rsa = Crypto.Rsa.generate drbg ~bits:512 in
  Directory.add_public w.W.dir carol carol_rsa.Crypto.Rsa.pub;
  Directory.add_public w.W.dir shop shop_rsa.Crypto.Rsa.pub;
  Directory.add_public w.W.dir b1 b1_rsa.Crypto.Rsa.pub;
  Directory.add_public w.W.dir b2 b2_rsa.Crypto.Rsa.pub;
  let lookup p = Directory.public w.W.dir p in
  let bank1 =
    Result.get_ok
      (Accounting_server.create w.W.net ~me:b1 ~my_key:b1key ~kdc:w.W.kdc_name
         ~signing_key:b1_rsa ~lookup ())
  in
  let bank2 =
    Result.get_ok
      (Accounting_server.create w.W.net ~me:b2 ~my_key:b2key ~kdc:w.W.kdc_name
         ~signing_key:b2_rsa ~lookup ())
  in
  Accounting_server.install bank1;
  Accounting_server.install bank2;
  (* Open and fund the accounts. *)
  let tgt_c = W.login w carol in
  let creds_c2 = W.credentials_for w ~tgt:tgt_c b2 in
  (match Accounting_server.open_account w.W.net ~creds:creds_c2 ~name:"carol-checking" with
  | Ok () -> ()
  | Error e -> failwith e);
  ignore (Ledger.mint (Accounting_server.ledger bank2) ~name:"carol-checking" ~currency:usd 1000);
  let tgt_s = W.login w shop in
  let creds_s1 = W.credentials_for w ~tgt:tgt_s b1 in
  (match Accounting_server.open_account w.W.net ~creds:creds_s1 ~name:"shop-till" with
  | Ok () -> ()
  | Error e -> failwith e);
  {
    w; carol; carol_rsa; shop; shop_rsa;
    bank1; bank1_name = b1; bank2; bank2_name = b2; lookup;
  }

let creds_for bw who bank =
  let tgt = W.login bw.w who in
  W.credentials_for bw.w ~tgt bank

let write_check bw ?(amount = 100) ?(currency = usd)
    ?(account = Accounting_server.account bw.bank2 "carol-checking") () =
  let now = W.now bw.w in
  Check.write ~drbg:(Sim.Net.drbg bw.w.W.net) ~now ~expires:(now + (24 * W.hour))
    ~payor:bw.carol ~payor_key:bw.carol_rsa ~account ~payee:bw.shop ~currency ~amount ()

(* Carol also banks at bank1, the shop's bank, with 500 usd in
   "carol-local". *)
let open_carol_local bw =
  let creds_c1 = creds_for bw bw.carol bw.bank1_name in
  (match Accounting_server.open_account bw.w.W.net ~creds:creds_c1 ~name:"carol-local" with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  ignore (Ledger.mint (Accounting_server.ledger bw.bank1) ~name:"carol-local" ~currency:usd 500);
  Accounting_server.account bw.bank1 "carol-local"

let carol_local bw =
  Ledger.balance (Accounting_server.ledger bw.bank1) ~name:"carol-local" ~currency:usd

let balances bw =
  ( Ledger.balance (Accounting_server.ledger bw.bank2) ~name:"carol-checking" ~currency:usd,
    Ledger.balance (Accounting_server.ledger bw.bank1) ~name:"shop-till" ~currency:usd )

let grand_total bw =
  Ledger.total (Accounting_server.ledger bw.bank1) ~currency:usd
  + Ledger.total (Accounting_server.ledger bw.bank2) ~currency:usd

let test_rpc_accounts () =
  let bw = bank_world () in
  let creds = creds_for bw bw.carol bw.bank2_name in
  (match Accounting_server.balance bw.w.W.net ~creds ~name:"carol-checking" ~currency:usd with
  | Ok (available, held) ->
      Alcotest.(check int) "available" 1000 available;
      Alcotest.(check int) "held" 0 held
  | Error e -> Alcotest.fail e);
  (* Only the owner can read a balance. *)
  let creds_shop = creds_for bw bw.shop bw.bank2_name in
  (match
     Accounting_server.balance bw.w.W.net ~creds:creds_shop ~name:"carol-checking" ~currency:usd
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "non-owner read a balance");
  (* Local transfer. *)
  (match Accounting_server.open_account bw.w.W.net ~creds ~name:"carol-savings" with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (match
     Accounting_server.transfer bw.w.W.net ~creds ~from_:"carol-checking" ~to_:"carol-savings"
       ~currency:usd ~amount:250
   with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check int) "moved" 250
    (Ledger.balance (Accounting_server.ledger bw.bank2) ~name:"carol-savings" ~currency:usd)

let test_cross_bank_check () =
  let bw = bank_world () in
  let total0 = grand_total bw in
  let check = write_check bw ~amount:100 () in
  let creds = creds_for bw bw.shop bw.bank1_name in
  (match
     Accounting_server.deposit bw.w.W.net ~creds ~endorser_key:bw.shop_rsa ~check
       ~to_account:"shop-till"
   with
  | Ok amount -> Alcotest.(check int) "cleared amount" 100 amount
  | Error e -> Alcotest.fail e);
  let carol_b, shop_b = balances bw in
  Alcotest.(check int) "payor debited" 900 carol_b;
  Alcotest.(check int) "payee credited" 100 shop_b;
  Alcotest.(check int) "conservation" total0 (grand_total bw);
  (* The audit trail mentions the payment at the drawee. *)
  Alcotest.(check bool) "drawee traced payment" true
    (Sim.Trace.find (Sim.Net.trace bw.w.W.net)
       ~actor:(Principal.to_string bw.bank2_name) ~substring:check.Check.number
    <> None)

let test_same_bank_check () =
  (* Carol also banks at bank1: check clears without any inter-server
     message. *)
  let bw = bank_world () in
  let account = open_carol_local bw in
  let check = write_check bw ~amount:50 ~account () in
  let collects_before = Sim.Metrics.get (Sim.Net.metrics bw.w.W.net) "accounting.collects" in
  let creds = creds_for bw bw.shop bw.bank1_name in
  (match
     Accounting_server.deposit bw.w.W.net ~creds ~endorser_key:bw.shop_rsa ~check
       ~to_account:"shop-till"
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check int) "no inter-server collect" collects_before
    (Sim.Metrics.get (Sim.Net.metrics bw.w.W.net) "accounting.collects");
  Alcotest.(check int) "paid locally" 450 (carol_local bw)

let test_intermediary_chain () =
  (* Route bank1 -> bank3 -> bank2: one extra endorsement and collect hop
     (Fig. 5 with a longer pipeline). *)
  let bw = bank_world () in
  let b3, b3key = W.enrol bw.w "bank3" in
  let b3_rsa = Crypto.Rsa.generate (Sim.Net.drbg bw.w.W.net) ~bits:512 in
  Directory.add_public bw.w.W.dir b3 b3_rsa.Crypto.Rsa.pub;
  let bank3 =
    Result.get_ok
      (Accounting_server.create bw.w.W.net ~me:b3 ~my_key:b3key ~kdc:bw.w.W.kdc_name
         ~signing_key:b3_rsa ~lookup:bw.lookup ())
  in
  Accounting_server.install bank3;
  Accounting_server.set_route bw.bank1 ~drawee:bw.bank2_name ~next_hop:b3 ();
  let check = write_check bw ~amount:75 () in
  let creds = creds_for bw bw.shop bw.bank1_name in
  (match
     Accounting_server.deposit bw.w.W.net ~creds ~endorser_key:bw.shop_rsa ~check
       ~to_account:"shop-till"
   with
  | Ok amount -> Alcotest.(check int) "cleared through intermediary" 75 amount
  | Error e -> Alcotest.fail e);
  Alcotest.(check int) "two collect hops" 2
    (Sim.Metrics.get (Sim.Net.metrics bw.w.W.net) "accounting.collects");
  let carol_b, shop_b = balances bw in
  Alcotest.(check int) "payor debited" 925 carol_b;
  Alcotest.(check int) "payee credited" 75 shop_b

let test_double_deposit_rejected () =
  let bw = bank_world () in
  let check = write_check bw ~amount:60 () in
  let creds = creds_for bw bw.shop bw.bank1_name in
  (match
     Accounting_server.deposit bw.w.W.net ~creds ~endorser_key:bw.shop_rsa ~check
       ~to_account:"shop-till"
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  (match
     Accounting_server.deposit bw.w.W.net ~creds ~endorser_key:bw.shop_rsa ~check
       ~to_account:"shop-till"
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "same check number deposited twice");
  let carol_b, shop_b = balances bw in
  Alcotest.(check int) "debited once" 940 carol_b;
  Alcotest.(check int) "credited once" 60 shop_b

(* --- guarantee records: a paid check or a spent step stays spent --- *)

(* Section 7.7 keeps a check number "until the expiration time on the
   check", not the chain it was deposited on: the depositor writes that
   chain's last link, and a 1 s endorsement must not let the number lapse
   while the check still clears under a longer one. *)
let test_lapsed_endorsement_pays_once () =
  let bw = bank_world () in
  let account = open_carol_local bw in
  let check = write_check bw ~amount:50 ~account () in
  let creds = creds_for bw bw.shop bw.bank1_name in
  let now = W.now bw.w in
  let endorsed =
    Result.get_ok
      (Check.endorse ~drbg:(Sim.Net.drbg bw.w.W.net) ~now ~expires:(now + 1_000_000)
         ~endorser:bw.shop ~endorser_key:bw.shop_rsa ~next:bw.bank1_name check)
  in
  (match
     Secure_rpc.call bw.w.W.net ~creds
       (Accounting_server.request_to_wire
          (Accounting_server.Deposit { check = endorsed; to_account = "shop-till" }))
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check int) "paid under the short endorsement" 450 (carol_local bw);
  Sim.Clock.advance (Sim.Net.clock bw.w.W.net) 2_000_000;
  (match
     Accounting_server.deposit bw.w.W.net ~creds ~endorser_key:bw.shop_rsa ~check
       ~to_account:"shop-till"
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "a paid check was paid again under a fresh endorsement");
  Alcotest.(check int) "debited once" 450 (carol_local bw)

(* A full accept-once table evicts the record that expires first. Pushing
   a paid check's number out with 2^17 longer-lived records must not make
   the check payable again: the drawee cannot prove the number unused, so
   it refuses. *)
let test_flood_pays_once () =
  let bw = bank_world () in
  let check = write_check bw ~amount:60 () in
  let creds = creds_for bw bw.shop bw.bank1_name in
  let deposit () =
    Accounting_server.deposit bw.w.W.net ~creds ~endorser_key:bw.shop_rsa ~check
      ~to_account:"shop-till"
  in
  (match deposit () with Ok _ -> () | Error e -> Alcotest.fail e);
  let guard = Accounting_server.guard bw.bank2 in
  let now = W.now bw.w in
  for i = 1 to 1 lsl 17 do
    Guard.apply_change guard ~now
      (Guard.Accept_once { id = Printf.sprintf "flood-%d" i; expires = max_int; tag = "flood" })
  done;
  Alcotest.(check int) "the paid number was evicted" 1
    (Sim.Metrics.get (Sim.Net.metrics bw.w.W.net) "replay_cache.evictions");
  (match deposit () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "an evicted check number was paid again");
  let carol_b, shop_b = balances bw in
  Alcotest.(check int) "debited once" 940 carol_b;
  Alcotest.(check int) "credited once" 60 shop_b

(* Sequence progress is kept until the grant's head certificate expires,
   so a short derived link cannot take the progress it earned with it:
   once the link lapses, the grant itself finds [open -> debit] spent. *)
let test_lapsed_link_reruns_no_sequence () =
  let bw = bank_world () in
  ignore (open_carol_local bw);
  let net = bw.w.W.net and drbg = Sim.Net.drbg bw.w.W.net in
  let fs_p, fs_key = W.enrol bw.w "files" in
  let acl = Acl.create () in
  Acl.add acl ~target:"/contract"
    { Acl.subject = Acl.Principal_is bw.carol; rights = [ "open" ]; restrictions = [] };
  let fs = File_server.create net ~me:fs_p ~my_key:fs_key ~lookup_pub:bw.lookup ~acl () in
  File_server.install fs;
  File_server.put_direct fs ~path:"/contract" "terms";
  let fs_bank = creds_for bw fs_p bw.bank1_name in
  Guard.set_seq_forward (File_server.guard fs)
    (Some
       (fun ~server:_ ~key ~progress ~expires ~tag ->
         Result.get_ok
           (Accounting_server.seq_advance net ~creds:fs_bank ~key ~progress ~expires ~tag)));
  let now = W.now bw.w in
  let steps =
    [ { Restriction.step_op = "open"; step_server = Some fs_p; step_target = Some "/contract" };
      { Restriction.step_op = "debit";
        step_server = Some bw.bank1_name;
        step_target = Some "carol-local" } ]
  in
  let grant =
    Proxy.grant_pk ~drbg ~now ~expires:(now + (24 * W.hour)) ~grantor:bw.carol
      ~grantor_key:bw.carol_rsa
      ~restrictions:
        [ Restriction.Grantee ([ bw.shop ], 1); Restriction.Sequence steps;
          Restriction.Quota (usd, 1_000) ]
      ()
  in
  let link =
    Result.get_ok
      (Proxy.restrict_pk ~drbg ~now ~expires:(now + 1_000_000)
         ~restrictions:[ Restriction.Quota (usd, 100) ] grant)
  in
  let shop_fs = creds_for bw bw.shop fs_p and shop_bank = creds_for bw bw.shop bw.bank1_name in
  let open_ proxy = File_server.open_ net ~creds:shop_fs ~proxies:[ proxy ] ~path:"/contract" () in
  let debit proxy =
    Accounting_server.proxy_debit net ~creds:shop_bank ~proxy ~payor_account:"carol-local"
      ~to_account:"shop-till" ~currency:usd ~amount:100
  in
  Alcotest.(check bool) "open under the link" true (Result.is_ok (open_ link));
  Alcotest.(check bool) "debit under the link" true (Result.is_ok (debit link));
  Sim.Clock.advance (Sim.Net.clock net) 2_000_000;
  Alcotest.(check bool) "the grant cannot open again" true (Result.is_error (open_ grant));
  Alcotest.(check bool) "nor debit again" true (Result.is_error (debit grant));
  Alcotest.(check int) "debited once" 400 (carol_local bw)

let test_bounced_check () =
  let bw = bank_world () in
  let check = write_check bw ~amount:5000 () in
  let creds = creds_for bw bw.shop bw.bank1_name in
  (match
     Accounting_server.deposit bw.w.W.net ~creds ~endorser_key:bw.shop_rsa ~check
       ~to_account:"shop-till"
   with
  | Error e -> Alcotest.(check bool) "mentions funds or bounce" true (e <> "")
  | Ok _ -> Alcotest.fail "overdraft check cleared");
  let carol_b, shop_b = balances bw in
  Alcotest.(check int) "payor untouched" 1000 carol_b;
  Alcotest.(check int) "payee uncredited" 0 shop_b

let test_forged_check () =
  (* Eve forges a check "from carol" signed with her own key. *)
  let bw = bank_world () in
  let eve, _ = W.enrol bw.w "eve" in
  let eve_rsa = Crypto.Rsa.generate (Sim.Net.drbg bw.w.W.net) ~bits:512 in
  Directory.add_public bw.w.W.dir eve eve_rsa.Crypto.Rsa.pub;
  let now = W.now bw.w in
  let forged =
    Check.write ~drbg:(Sim.Net.drbg bw.w.W.net) ~now ~expires:(now + W.hour) ~payor:bw.carol
      ~payor_key:eve_rsa ~account:(Accounting_server.account bw.bank2 "carol-checking")
      ~payee:bw.shop ~currency:usd ~amount:10 ()
  in
  let creds = creds_for bw bw.shop bw.bank1_name in
  match
    Accounting_server.deposit bw.w.W.net ~creds ~endorser_key:bw.shop_rsa ~check:forged
      ~to_account:"shop-till"
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "forged signature cleared"

let test_tampered_amount () =
  (* The quota restriction in the signed certificate caps the transfer: a
     tampered face value larger than the signed quota is refused. *)
  let bw = bank_world () in
  let check = write_check bw ~amount:10 () in
  let inflated = { check with Check.amount = 900 } in
  let creds = creds_for bw bw.shop bw.bank1_name in
  match
    Accounting_server.deposit bw.w.W.net ~creds ~endorser_key:bw.shop_rsa ~check:inflated
      ~to_account:"shop-till"
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "inflated check cleared"

(* A check has one shape: a field appended to it, to its payee or to the
   account it is drawn on is refused, not dropped. *)
let test_check_trailing_field () =
  let bw = bank_world () in
  let v = Check.to_wire (write_check bw ()) in
  Alcotest.(check bool) "unmodified decodes" true (Result.is_ok (Check.of_wire v));
  let extra = function Wire.L items -> Wire.L (items @ [ Wire.S "extra" ]) | w -> w in
  let at i f = function
    | Wire.L items -> Wire.L (List.mapi (fun j w -> if j = i then f w else w) items)
    | w -> w
  in
  List.iter
    (fun (where, w) ->
      Alcotest.(check bool) (where ^ " extended") false (Wire.equal v w);
      Alcotest.(check bool) (where ^ " refused") true (Result.is_error (Check.of_wire w)))
    [ ("check", extra v); ("payee", at 3 extra v); ("drawn-on account", at 4 extra v) ]

let test_rewritten_currency () =
  (* The wrapper's fields travel beside the signed chain, and a Quota
     bounds only its own currency: a 60 usd check rewritten to 900 eur must
     not clear in eur. *)
  let bw = bank_world () in
  let eur_balance bank name =
    Ledger.balance (Accounting_server.ledger bank) ~name ~currency:"eur"
  in
  ignore
    (Ledger.mint (Accounting_server.ledger bw.bank2) ~name:"carol-checking" ~currency:"eur"
       1000);
  let check = write_check bw ~amount:60 () in
  let rewritten = { check with Check.currency = "eur"; amount = 900 } in
  let creds = creds_for bw bw.shop bw.bank1_name in
  (match
     Accounting_server.deposit bw.w.W.net ~creds ~endorser_key:bw.shop_rsa ~check:rewritten
       ~to_account:"shop-till"
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "a usd check cleared in eur");
  Alcotest.(check int) "carol's eur untouched" 1000 (eur_balance bw.bank2 "carol-checking");
  Alcotest.(check int) "shop got no eur" 0 (eur_balance bw.bank1 "shop-till");
  Alcotest.(check (pair int int)) "usd untouched" (1000, 0) (balances bw)

let test_stolen_check () =
  (* Eve intercepts a check payable to shop and tries to deposit it into her
     own account at bank1. *)
  let bw = bank_world () in
  let eve, _ = W.enrol bw.w "eve" in
  let eve_rsa = Crypto.Rsa.generate (Sim.Net.drbg bw.w.W.net) ~bits:512 in
  Directory.add_public bw.w.W.dir eve eve_rsa.Crypto.Rsa.pub;
  let tgt_e = W.login bw.w eve in
  let creds_e = W.credentials_for bw.w ~tgt:tgt_e bw.bank1_name in
  (match Accounting_server.open_account bw.w.W.net ~creds:creds_e ~name:"eve-stash" with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let check = write_check bw ~amount:40 () in
  match
    Accounting_server.deposit bw.w.W.net ~creds:creds_e ~endorser_key:eve_rsa ~check
      ~to_account:"eve-stash"
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "eve cashed a check payable to shop"

let test_expired_check () =
  let bw = bank_world () in
  let now = W.now bw.w in
  let check =
    Check.write ~drbg:(Sim.Net.drbg bw.w.W.net) ~now ~expires:(now + W.hour) ~payor:bw.carol
      ~payor_key:bw.carol_rsa ~account:(Accounting_server.account bw.bank2 "carol-checking")
      ~payee:bw.shop ~currency:usd ~amount:10 ()
  in
  Sim.Clock.advance (Sim.Net.clock bw.w.W.net) (2 * W.hour);
  let creds = creds_for bw bw.shop bw.bank1_name in
  match
    Accounting_server.deposit bw.w.W.net ~creds ~endorser_key:bw.shop_rsa ~check
      ~to_account:"shop-till"
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expired check cleared"

let test_certified_check () =
  let bw = bank_world () in
  let check = write_check bw ~amount:200 () in
  let creds_c = creds_for bw bw.carol bw.bank2_name in
  let cert_proxy =
    match Accounting_server.certify bw.w.W.net ~creds:creds_c ~check with
    | Ok p -> p
    | Error e -> Alcotest.fail e
  in
  (* The hold is visible and the available balance dropped. *)
  (match Accounting_server.balance bw.w.W.net ~creds:creds_c ~name:"carol-checking" ~currency:usd with
  | Ok (available, held) ->
      Alcotest.(check int) "available" 800 available;
      Alcotest.(check int) "held" 200 held
  | Error e -> Alcotest.fail e);
  (* The end-server (shop) verifies the certification offline. *)
  (match
     Accounting_server.verify_certification ~lookup:bw.lookup ~now:(W.now bw.w)
       ~server:bw.bank2_name ~check_number:check.Check.number cert_proxy
   with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (* A certification for a different check number does not verify. *)
  (match
     Accounting_server.verify_certification ~lookup:bw.lookup ~now:(W.now bw.w)
       ~server:bw.bank2_name ~check_number:"some-other-check" cert_proxy
   with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "certification proxy verified for the wrong check");
  (* Certifying twice, or beyond available funds, fails. *)
  (match Accounting_server.certify bw.w.W.net ~creds:creds_c ~check with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "double certification");
  let big = write_check bw ~amount:5000 () in
  (match Accounting_server.certify bw.w.W.net ~creds:creds_c ~check:big with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "certified beyond funds");
  (* The certified check clears from the hold. *)
  let creds_s = creds_for bw bw.shop bw.bank1_name in
  (match
     Accounting_server.deposit bw.w.W.net ~creds:creds_s ~endorser_key:bw.shop_rsa ~check
       ~to_account:"shop-till"
   with
  | Ok amount -> Alcotest.(check int) "cleared" 200 amount
  | Error e -> Alcotest.fail e);
  match Accounting_server.balance bw.w.W.net ~creds:creds_c ~name:"carol-checking" ~currency:usd with
  | Ok (available, held) ->
      Alcotest.(check int) "available after" 800 available;
      Alcotest.(check int) "hold consumed" 0 held
  | Error e -> Alcotest.fail e

let test_cashier_check () =
  let bw = bank_world () in
  let creds_c = creds_for bw bw.carol bw.bank2_name in
  let check =
    match
      Accounting_server.cashier_check bw.w.W.net ~creds:creds_c ~from_account:"carol-checking"
        ~payee:bw.shop ~currency:usd ~amount:300
    with
    | Ok c -> c
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check bool) "drawn by the bank on escrow" true
    (Principal.equal check.Check.drawn_on.Principal.Account.server bw.bank2_name);
  (* Carol already paid. *)
  let carol_b, _ = balances bw in
  Alcotest.(check int) "prepaid" 700 carol_b;
  (* Shop deposits at its own bank; clears against bank2's escrow. *)
  let creds_s = creds_for bw bw.shop bw.bank1_name in
  (match
     Accounting_server.deposit bw.w.W.net ~creds:creds_s ~endorser_key:bw.shop_rsa ~check
       ~to_account:"shop-till"
   with
  | Ok amount -> Alcotest.(check int) "cleared" 300 amount
  | Error e -> Alcotest.fail e);
  Alcotest.(check int) "escrow emptied" 0
    (Ledger.balance (Accounting_server.ledger bw.bank2) ~name:Accounting_server.escrow_account
       ~currency:usd);
  Alcotest.(check int) "conservation" 1000 (grand_total bw)

(* Conservation under a random mix of operations. *)
let prop_conservation =
  QCheck.Test.make ~name:"conservation across random check traffic" ~count:5
    (QCheck.list_of_size (QCheck.Gen.int_range 1 6) (QCheck.int_range 1 120))
    (fun amounts ->
      let bw = bank_world ~seed:("conservation" ^ string_of_int (List.length amounts)) () in
      let total0 = grand_total bw in
      let creds_s = creds_for bw bw.shop bw.bank1_name in
      List.iter
        (fun amount ->
          let check = write_check bw ~amount () in
          (* Some of these may bounce once funds run out; either way the
             total must be conserved. *)
          ignore
            (Accounting_server.deposit bw.w.W.net ~creds:creds_s ~endorser_key:bw.shop_rsa
               ~check ~to_account:"shop-till"))
        amounts;
      grand_total bw = total0)

let () =
  Alcotest.run "accounting"
    [ ( "ledger",
        [ ("basics", `Quick, test_ledger_basics);
          ("transfer and total", `Quick, test_ledger_transfer_and_total);
          ("holds", `Quick, test_ledger_holds);
          ("overflow refused", `Quick, test_ledger_overflow);
          ("held sum saturates", `Quick, test_ledger_held_saturates);
          ("release-hold compensates", `Quick, test_ledger_release_hold_compensates) ] );
      ( "rpc",
        [ ("accounts, balances, transfers", `Slow, test_rpc_accounts) ] );
      ( "checks",
        [ ("cross-bank clearing (Fig 5)", `Slow, test_cross_bank_check);
          ("same-bank clearing", `Slow, test_same_bank_check);
          ("intermediary chain", `Slow, test_intermediary_chain);
          ("double deposit rejected", `Slow, test_double_deposit_rejected);
          ("bounced check", `Slow, test_bounced_check);
          ("forged check", `Slow, test_forged_check);
          ("tampered amount", `Slow, test_tampered_amount);
          ("trailing field refused", `Slow, test_check_trailing_field);
          ("rewritten currency", `Slow, test_rewritten_currency);
          ("stolen check", `Slow, test_stolen_check);
          ("expired check", `Slow, test_expired_check) ] );
      ( "guarantee records",
        [ ("lapsed endorsement pays once", `Slow, test_lapsed_endorsement_pays_once);
          ("flooded accept-once table pays once", `Slow, test_flood_pays_once);
          ("lapsed link re-runs no sequence", `Slow, test_lapsed_link_reruns_no_sequence) ] );
      ( "certified+cashier",
        [ ("certified check", `Slow, test_certified_check);
          ("cashier's check", `Slow, test_cashier_check) ] );
      ("properties", List.map QCheck_alcotest.to_alcotest [ prop_conservation ]) ]
