(* Resource quotas via standing debit authorities (Section 4): cumulative
   enforcement, release on free, isolation between users, and conservation
   of the resource currency. *)

module W = Testkit

let blocks = Disk_server.blocks_currency

type qw = {
  w : W.world;
  alice : Principal.t;
  alice_rsa : Crypto.Rsa.private_;
  bob : Principal.t;
  bob_rsa : Crypto.Rsa.private_;
  bank : Accounting_server.t;
  bank_name : Principal.t;
  disk : Disk_server.t;
  disk_name : Principal.t;
}

let quota_world ?(seed = "quota tests") () =
  let w = W.create ~seed () in
  let drbg = Sim.Net.drbg w.W.net in
  let alice, _ = W.enrol w "alice" in
  let bob, _ = W.enrol w "bob" in
  let bank_p, bank_key = W.enrol w "bank" in
  let disk_p, disk_key = W.enrol w "disk" in
  let alice_rsa = Crypto.Rsa.generate drbg ~bits:512 in
  let bob_rsa = Crypto.Rsa.generate drbg ~bits:512 in
  let bank_rsa = Crypto.Rsa.generate drbg ~bits:512 in
  Directory.add_public w.W.dir alice alice_rsa.Crypto.Rsa.pub;
  Directory.add_public w.W.dir bob bob_rsa.Crypto.Rsa.pub;
  Directory.add_public w.W.dir bank_p bank_rsa.Crypto.Rsa.pub;
  let bank =
    Result.get_ok
      (Accounting_server.create w.W.net ~me:bank_p ~my_key:bank_key ~kdc:w.W.kdc_name
         ~signing_key:bank_rsa
         ~lookup:(fun p -> Directory.public w.W.dir p)
         ())
  in
  Accounting_server.install bank;
  (* Accounts: alice and bob each provisioned with block quota; the disk
     server's escrow. *)
  let open_funded who blocks_amount =
    let tgt = W.login w who in
    let creds = W.credentials_for w ~tgt bank_p in
    let name = who.Principal.name in
    Result.get_ok (Accounting_server.open_account w.W.net ~creds ~name);
    if blocks_amount > 0 then
      Result.get_ok (Ledger.mint (Accounting_server.ledger bank) ~name ~currency:blocks blocks_amount)
  in
  open_funded alice 10;
  open_funded bob 4;
  open_funded disk_p 0;
  let disk =
    Result.get_ok
      (Disk_server.create w.W.net ~me:disk_p ~my_key:disk_key ~kdc:w.W.kdc_name ~bank:bank_p
         ~escrow_account:"disk")
  in
  Disk_server.install disk;
  { w; alice; alice_rsa; bob; bob_rsa; bank; bank_name = bank_p; disk; disk_name = disk_p }

let attach qw who who_rsa limit =
  let now = W.now qw.w in
  let authority =
    Standing.grant ~drbg:(Sim.Net.drbg qw.w.W.net) ~now ~expires:(now + (24 * W.hour))
      ~owner:who ~owner_key:who_rsa
      ~account:(Accounting_server.account qw.bank who.Principal.name)
      ~holder:qw.disk_name ~currency:blocks ~limit ()
  in
  let tgt = W.login qw.w who in
  let creds = W.credentials_for qw.w ~tgt qw.disk_name in
  (match Disk_server.attach qw.w.W.net ~creds ~authority with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  creds

let balance qw name = Ledger.balance (Accounting_server.ledger qw.bank) ~name ~currency:blocks

let test_write_charges_blocks () =
  let qw = quota_world () in
  let creds = attach qw qw.alice qw.alice_rsa 10 in
  (match Disk_server.write_file qw.w.W.net ~creds ~path:"a.txt" (String.make 1000 'x') with
  | Ok blocks_charged -> Alcotest.(check int) "two blocks" 2 blocks_charged
  | Error e -> Alcotest.fail e);
  Alcotest.(check int) "alice quota drawn" 8 (balance qw "alice");
  Alcotest.(check int) "escrow holds them" 2 (balance qw "disk");
  (match Disk_server.read_file qw.w.W.net ~creds ~path:"a.txt" with
  | Ok c -> Alcotest.(check int) "content stored" 1000 (String.length c)
  | Error e -> Alcotest.fail e);
  match Disk_server.usage qw.w.W.net ~creds with
  | Ok n -> Alcotest.(check int) "usage" 2 n
  | Error e -> Alcotest.fail e

let test_quota_exhaustion () =
  let qw = quota_world () in
  let creds = attach qw qw.alice qw.alice_rsa 3 in
  (* The authority caps cumulative draw at 3 blocks even though the account
     holds 10. *)
  (match Disk_server.write_file qw.w.W.net ~creds ~path:"one" (String.make 600 'a') with
  | Ok n -> Alcotest.(check int) "2 blocks" 2 n
  | Error e -> Alcotest.fail e);
  (match Disk_server.write_file qw.w.W.net ~creds ~path:"two" (String.make 600 'b') with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "exceeded the authority's cumulative quota");
  (* A one-block file still fits. *)
  (match Disk_server.write_file qw.w.W.net ~creds ~path:"small" "hi" with
  | Ok n -> Alcotest.(check int) "1 block" 1 n
  | Error e -> Alcotest.fail e);
  Alcotest.(check int) "7 left in account" 7 (balance qw "alice")

let test_delete_releases () =
  let qw = quota_world () in
  let creds = attach qw qw.alice qw.alice_rsa 4 in
  ignore (Result.get_ok (Disk_server.write_file qw.w.W.net ~creds ~path:"f" (String.make 1500 'z')));
  Alcotest.(check int) "3 drawn" 7 (balance qw "alice");
  (match Disk_server.delete_file qw.w.W.net ~creds ~path:"f" with
  | Ok n -> Alcotest.(check int) "3 released" 3 n
  | Error e -> Alcotest.fail e);
  Alcotest.(check int) "all back" 10 (balance qw "alice");
  Alcotest.(check int) "escrow empty" 0 (balance qw "disk");
  (* Released quota is usable again. *)
  match Disk_server.write_file qw.w.W.net ~creds ~path:"g" (String.make 1900 'q') with
  | Ok n -> Alcotest.(check int) "4 blocks fit again" 4 n
  | Error e -> Alcotest.fail e

let test_overwrite_releases_first () =
  let qw = quota_world () in
  let creds = attach qw qw.alice qw.alice_rsa 5 in
  ignore (Result.get_ok (Disk_server.write_file qw.w.W.net ~creds ~path:"f" (String.make 2000 'x')));
  (* Overwriting with a smaller file should end up charging only the new
     size. *)
  (match Disk_server.write_file qw.w.W.net ~creds ~path:"f" "tiny" with
  | Ok n -> Alcotest.(check int) "1 block now" 1 n
  | Error e -> Alcotest.fail e);
  Alcotest.(check int) "account reflects 1 block" 9 (balance qw "alice")

let test_user_isolation () =
  let qw = quota_world () in
  let creds_a = attach qw qw.alice qw.alice_rsa 10 in
  let creds_b = attach qw qw.bob qw.bob_rsa 4 in
  ignore (Result.get_ok (Disk_server.write_file qw.w.W.net ~creds:creds_a ~path:"alice.txt" "aa"));
  ignore (Result.get_ok (Disk_server.write_file qw.w.W.net ~creds:creds_b ~path:"bob.txt" "bb"));
  (* Bob cannot read or delete alice's file. *)
  (match Disk_server.read_file qw.w.W.net ~creds:creds_b ~path:"alice.txt" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bob read alice's file");
  (match Disk_server.delete_file qw.w.W.net ~creds:creds_b ~path:"alice.txt" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bob deleted alice's file");
  (* Charges land on the right accounts. *)
  Alcotest.(check int) "alice" 9 (balance qw "alice");
  Alcotest.(check int) "bob" 3 (balance qw "bob")

let test_forged_authority_rejected () =
  let qw = quota_world () in
  (* Bob forges an authority against alice's account, signed with his own
     key. *)
  let now = W.now qw.w in
  let forged =
    Standing.grant ~drbg:(Sim.Net.drbg qw.w.W.net) ~now ~expires:(now + W.hour) ~owner:qw.alice
      ~owner_key:qw.bob_rsa
      ~account:(Accounting_server.account qw.bank "alice")
      ~holder:qw.disk_name ~currency:blocks ~limit:10 ()
  in
  let tgt = W.login qw.w qw.bob in
  let creds = W.credentials_for qw.w ~tgt qw.disk_name in
  (match Disk_server.attach qw.w.W.net ~creds ~authority:forged with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (* Attachment is local; the accounting server rejects the draw. *)
  match Disk_server.write_file qw.w.W.net ~creds ~path:"steal" "data" with
  | Error _ -> Alcotest.(check int) "alice untouched" 10 (balance qw "alice")
  | Ok _ -> Alcotest.fail "forged authority drew from alice"

let test_conservation () =
  let qw = quota_world () in
  let creds = attach qw qw.alice qw.alice_rsa 10 in
  let total () =
    balance qw "alice" + balance qw "bob" + balance qw "disk"
  in
  let t0 = total () in
  ignore (Disk_server.write_file qw.w.W.net ~creds ~path:"a" (String.make 700 'a'));
  ignore (Disk_server.write_file qw.w.W.net ~creds ~path:"b" (String.make 5000 'b'));
  ignore (Disk_server.delete_file qw.w.W.net ~creds ~path:"a");
  ignore (Disk_server.write_file qw.w.W.net ~creds ~path:"c" "ccc");
  Alcotest.(check int) "blocks conserved" t0 (total ())

(* The accounting server draws on a presented proxy with one verb and one
   decision, keeping the running total per grant. The disk server stands
   in as the holder and draws at the bank directly. *)

let holder_bank_creds qw =
  W.credentials_for qw.w ~tgt:(W.login qw.w qw.disk_name) qw.bank_name

let grant_to_disk qw limit =
  let now = W.now qw.w in
  Standing.grant ~drbg:(Sim.Net.drbg qw.w.W.net) ~now ~expires:(now + (24 * W.hour))
    ~owner:qw.alice ~owner_key:qw.alice_rsa
    ~account:(Accounting_server.account qw.bank "alice")
    ~holder:qw.disk_name ~currency:blocks ~limit ()

let draw qw creds authority amount =
  Accounting_server.standing_debit qw.w.W.net ~creds ~authority ~to_account:"disk" ~amount

let test_redelegation_shares_limit () =
  let qw = quota_world () in
  let authority = grant_to_disk qw 3 in
  let creds = holder_bank_creds qw in
  let disk_rsa = Crypto.Rsa.generate (Sim.Net.drbg qw.w.W.net) ~bits:512 in
  Directory.add_public qw.w.W.dir qw.disk_name disk_rsa.Crypto.Rsa.pub;
  (* Before each draw the holder re-delegates the authority to itself: a
     fresh chain, but the same grant. *)
  let redelegated () =
    let now = W.now qw.w in
    match
      Proxy.delegate_keyless ~drbg:(Sim.Net.drbg qw.w.W.net) ~now ~expires:(now + W.hour)
        ~intermediate:qw.disk_name ~intermediate_key:disk_rsa
        ~restrictions:[ Restriction.Grantee ([ qw.disk_name ], 1) ]
        authority.Standing.authority
    with
    | Ok proxy -> { authority with Standing.authority = proxy }
    | Error e -> Alcotest.fail e
  in
  (match draw qw creds (redelegated ()) 3 with
  | Ok total -> Alcotest.(check int) "the grant's running total" 3 total
  | Error e -> Alcotest.fail e);
  List.iter
    (fun label ->
      match draw qw creds (redelegated ()) 3 with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%s: a re-delegated chain drew past the grant's limit" label)
    [ "second draw"; "third draw" ];
  Alcotest.(check int) "alice paid the limit once" 7 (balance qw "alice");
  Alcotest.(check int) "escrow holds the limit" 3 (balance qw "disk")

let test_proxy_transfer_is_gone () =
  let qw = quota_world () in
  let authority = grant_to_disk qw 3 in
  let creds = holder_bank_creds qw in
  let presented = Guard.present ~creds authority.Standing.authority in
  (match
     Secure_rpc.call qw.w.W.net ~creds
       (Wire.L
          [ Wire.S "proxy-transfer"; Guard.presented_to_wire presented; Wire.S "alice";
            Wire.S "disk"; Wire.S blocks; Wire.I 2 ])
   with
  | Error e ->
      Alcotest.(check string) "unknown verb" "accounting: unknown operation \"proxy-transfer\"" e
  | Ok _ -> Alcotest.fail "proxy-transfer was answered");
  Alcotest.(check int) "alice untouched" 10 (balance qw "alice");
  Alcotest.(check int) "escrow untouched" 0 (balance qw "disk")

let test_one_decision_per_draw () =
  let qw = quota_world () in
  let authority = grant_to_disk qw 3 in
  let creds = holder_bank_creds qw in
  let m = Sim.Net.metrics qw.w.W.net in
  List.iter
    (fun amount ->
      let before = Sim.Metrics.get m "guard.decisions" in
      (match draw qw creds authority amount with
      | Ok _ -> ()
      | Error e -> Alcotest.fail e);
      Alcotest.(check int) "one guard decision" 1 (Sim.Metrics.get m "guard.decisions" - before))
    [ 1; 2 ]

let test_refused_draw_grants_nothing () =
  let qw = quota_world () in
  Sim.Net.enable_tracing qw.w.W.net;
  let authority = grant_to_disk qw 3 in
  let creds = holder_bank_creds qw in
  (* The bank's granted debit decisions, as its decide spans record them. *)
  let granted () =
    List.length
      (List.filter
         (fun (s : Sim.Span.span) ->
           s.Sim.Span.sp_kind = "guard.decide"
           && s.Sim.Span.sp_actor = Principal.to_string qw.bank_name
           && List.assoc_opt "operation" s.Sim.Span.sp_attrs = Some "debit"
           && List.assoc_opt "verdict" s.Sim.Span.sp_attrs = Some "grant")
         (Sim.Span.spans (Option.get (Sim.Net.spans qw.w.W.net))))
  in
  ignore (Result.get_ok (draw qw creds authority 2));
  Alcotest.(check int) "the first draw's debit traced" 1 (granted ());
  (match draw qw creds authority 2 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "drew past the limit");
  Alcotest.(check int) "no granted debit traced" 1 (granted ());
  Alcotest.(check int) "alice paid 2" 8 (balance qw "alice")

let test_copied_serial_keeps_its_own_budget () =
  let qw = quota_world () in
  let authority = grant_to_disk qw 3 in
  let creds = holder_bank_creds qw in
  (* Bob signs a grant of his own under the serial of alice's authority:
     a serial is unique only per grantor. *)
  let serial =
    match authority.Standing.authority.Proxy.flavor with
    | Proxy.Public_key (c :: _) -> c.Proxy_cert.pk_body.Proxy_cert.serial
    | _ -> Alcotest.fail "a standing authority is a public-key chain"
  in
  let now = W.now qw.w in
  let bobs_cert =
    Proxy_cert.sign_pk ~key:qw.bob_rsa ~signer:Proxy_cert.By_grantor_key ~proxy_pub:None
      { Proxy_cert.grantor = qw.bob;
        serial;
        issued_at = now;
        expires = now + W.hour;
        restrictions =
          [ Restriction.Grantee ([ qw.disk_name ], 1);
            Restriction.Quota (blocks, 10);
            Restriction.Issued_for [ qw.bank_name ];
            Restriction.Authorized [ { Restriction.target = "bob"; ops = [ "debit" ] } ] ] }
  in
  let bobs =
    { authority with
      Standing.drawn_from = Accounting_server.account qw.bank "bob";
      authority = { Proxy.flavor = Proxy.Public_key [ bobs_cert ]; key = Proxy.No_key } }
  in
  ignore (Result.get_ok (draw qw creds bobs 3));
  (match draw qw creds authority 3 with
  | Ok total -> Alcotest.(check int) "alice's grant untouched by bob's" 3 total
  | Error e -> Alcotest.fail e);
  Alcotest.(check int) "bob paid his own draw" 1 (balance qw "bob");
  Alcotest.(check int) "alice paid hers" 7 (balance qw "alice")

let test_unused_presentation_refused () =
  let qw = quota_world () in
  let authority = grant_to_disk qw 3 in
  (* Bob copies alice's authority, which names the disk server, and
     presents it to move blocks between two accounts of his own: his own
     right on "bob" would grant the decision without the proxy. *)
  let bob_bank = W.credentials_for qw.w ~tgt:(W.login qw.w qw.bob) qw.bank_name in
  Result.get_ok (Accounting_server.open_account qw.w.W.net ~creds:bob_bank ~name:"bob-2");
  let copied = { authority with Standing.drawn_from = Accounting_server.account qw.bank "bob" } in
  (match
     Accounting_server.standing_debit qw.w.W.net ~creds:bob_bank ~authority:copied
       ~to_account:"bob-2" ~amount:3
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "a draw the presented proxy did not authorize went through");
  Alcotest.(check int) "bob's blocks stay put" 4 (balance qw "bob");
  match draw qw (holder_bank_creds qw) authority 3 with
  | Ok total -> Alcotest.(check int) "alice's grant untouched" 3 total
  | Error e -> Alcotest.fail e

(* A Quota bounds only its own currency: a 3-block authority presented
   for 900 usd is refused, and alice's dollars stay put. *)
let test_quota_names_its_currency () =
  let qw = quota_world () in
  let authority = grant_to_disk qw 3 in
  let ledger = Accounting_server.ledger qw.bank in
  Result.get_ok (Ledger.mint ledger ~name:"alice" ~currency:"usd" 1_000);
  (match
     Accounting_server.proxy_debit qw.w.W.net ~creds:(holder_bank_creds qw)
       ~proxy:authority.Standing.authority ~payor_account:"alice" ~to_account:"disk"
       ~currency:"usd" ~amount:900
   with
  | Error e ->
      Alcotest.(check string) "refused" "proxy-debit: no Quota on the presented chain names usd" e
  | Ok _ -> Alcotest.fail "a 3-block authority drew 900 usd");
  Alcotest.(check int) "alice keeps her dollars" 1_000
    (Ledger.balance ledger ~name:"alice" ~currency:"usd");
  match draw qw (holder_bank_creds qw) authority 3 with
  | Ok total -> Alcotest.(check int) "blocks still draw" 3 total
  | Error e -> Alcotest.fail e

let () =
  Alcotest.run "quota"
    [ ( "disk quotas",
        [ ("write charges blocks", `Slow, test_write_charges_blocks);
          ("cumulative quota exhausts", `Slow, test_quota_exhaustion);
          ("delete releases", `Slow, test_delete_releases);
          ("overwrite releases first", `Slow, test_overwrite_releases_first);
          ("user isolation", `Slow, test_user_isolation);
          ("forged authority rejected", `Slow, test_forged_authority_rejected);
          ("conservation", `Slow, test_conservation) ] );
      ( "presented-proxy debit",
        [ ("re-delegation shares the grant's limit", `Slow, test_redelegation_shares_limit);
          ("proxy-transfer is not a verb", `Slow, test_proxy_transfer_is_gone);
          ("one guard decision per draw", `Slow, test_one_decision_per_draw);
          ("a refused draw grants nothing", `Slow, test_refused_draw_grants_nothing);
          ("a copied serial keeps its own budget", `Slow,
           test_copied_serial_keeps_its_own_budget);
          ("a presentation that did not authorize is refused", `Slow,
           test_unused_presentation_refused);
          ("a Quota bounds only its own currency", `Slow, test_quota_names_its_currency) ] ) ]
