(* TGS proxies (Section 6.3) and cross-realm authentication: the two
   mechanisms that turn per-server conventional proxies into realm- and
   server-spanning delegation. *)

module R = Restriction
module W = Testkit

(* --- TGS proxies --- *)

type tgs_world = { w : W.world; alice : Principal.t; fs1 : Principal.t; fs2 : Principal.t }

let make_fileserver w owner name =
  let fs_name, fs_key = W.enrol w name in
  let acl = Acl.create () in
  Acl.add acl ~target:"*" { Acl.subject = Acl.Principal_is owner; rights = []; restrictions = [] };
  let fs = File_server.create w.W.net ~me:fs_name ~my_key:fs_key ~acl () in
  File_server.install fs;
  File_server.put_direct fs ~path:"report.txt" "contents";
  File_server.put_direct fs ~path:"secret.txt" "hidden";
  fs_name

let tgs_world () =
  let w = W.create ~seed:"tgs proxy tests" () in
  let alice, _ = W.enrol w "alice" in
  let fs1 = make_fileserver w alice "fs1" in
  let fs2 = make_fileserver w alice "fs2" in
  { w; alice; fs1; fs2 }

let read_only_report = [ R.Authorized [ { R.target = "report.txt"; ops = [ "read" ] } ] ]

let test_tgs_proxy_spans_servers () =
  let tw = tgs_world () in
  let tgt = W.login tw.w tw.alice in
  (* Alice grants a TGS proxy restricted to reading report.txt; the grantee
     can mint service tickets for ANY server, all carrying the
     restriction. *)
  let proxy_tgt =
    Result.get_ok
      (Tgs_proxy.grant tw.w.W.net ~kdc:tw.w.W.kdc_name ~tgt ~restrictions:read_only_report ())
  in
  Alcotest.(check int) "restrictions visible" 1 (List.length (Tgs_proxy.restrictions_of proxy_tgt));
  List.iter
    (fun fs ->
      let creds =
        Result.get_ok (Tgs_proxy.use tw.w.W.net ~kdc:tw.w.W.kdc_name ~proxy_tgt ~service:fs)
      in
      (match File_server.read tw.w.W.net ~creds ~path:"report.txt" () with
      | Ok content -> Alcotest.(check string) "reads report" "contents" content
      | Error e -> Alcotest.fail e);
      (match File_server.read tw.w.W.net ~creds ~path:"secret.txt" () with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "restriction did not carry to the end-server");
      match File_server.write tw.w.W.net ~creds ~path:"report.txt" "defaced" with
      | Error _ -> ()
      | Ok () -> Alcotest.fail "write allowed through a read-only TGS proxy")
    [ tw.fs1; tw.fs2 ]

let test_tgs_proxy_cannot_widen () =
  let tw = tgs_world () in
  let tgt = W.login tw.w tw.alice in
  let proxy_tgt =
    Result.get_ok
      (Tgs_proxy.grant tw.w.W.net ~kdc:tw.w.W.kdc_name ~tgt ~restrictions:read_only_report ())
  in
  (* The grantee re-derives through the TGS "adding" a permissive
     restriction; the original must still bind (restrictions are unioned,
     and check_all requires every one to pass). *)
  let widened =
    Result.get_ok
      (Tgs_proxy.grant tw.w.W.net ~kdc:tw.w.W.kdc_name ~tgt:proxy_tgt
         ~restrictions:[ R.Authorized [ { R.target = "secret.txt"; ops = [] } ] ]
         ())
  in
  let creds =
    Result.get_ok (Tgs_proxy.use tw.w.W.net ~kdc:tw.w.W.kdc_name ~proxy_tgt:widened ~service:tw.fs1)
  in
  (match File_server.read tw.w.W.net ~creds ~path:"secret.txt" () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "grantee widened a TGS proxy");
  (* Even the originally-allowed file is now blocked: the two Authorized
     restrictions intersect to nothing that satisfies both. *)
  match File_server.read tw.w.W.net ~creds ~path:"report.txt" () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "intersection semantics violated"

let test_tgs_proxy_transfer_encoding () =
  let tw = tgs_world () in
  let tgt = W.login tw.w tw.alice in
  let proxy_tgt =
    Result.get_ok
      (Tgs_proxy.grant tw.w.W.net ~kdc:tw.w.W.kdc_name ~tgt ~restrictions:read_only_report ())
  in
  match Ticket.credentials_of_wire (Ticket.credentials_to_wire proxy_tgt) with
  | Error e -> Alcotest.fail e
  | Ok creds' ->
      let creds =
        Result.get_ok (Tgs_proxy.use tw.w.W.net ~kdc:tw.w.W.kdc_name ~proxy_tgt:creds' ~service:tw.fs1)
      in
      (match File_server.read tw.w.W.net ~creds ~path:"report.txt" () with
      | Ok _ -> ()
      | Error e -> Alcotest.fail e)

let test_transport_restrictions_on_accounting () =
  (* A TGS proxy with a spending quota: the grantee can move small amounts
     from alice's account but not large ones. *)
  let w = W.create ~seed:"tgs accounting" () in
  let alice, _ = W.enrol w "alice" in
  let bank_p, bank_key = W.enrol w "bank" in
  let bank_rsa = Crypto.Rsa.generate (Sim.Net.drbg w.W.net) ~bits:512 in
  let bank =
    Result.get_ok
      (Accounting_server.create w.W.net ~me:bank_p ~my_key:bank_key ~kdc:w.W.kdc_name
         ~signing_key:bank_rsa
         ~lookup:(fun p -> Directory.public w.W.dir p)
         ())
  in
  Accounting_server.install bank;
  let tgt = W.login w alice in
  let creds_direct = W.credentials_for w ~tgt bank_p in
  Result.get_ok (Accounting_server.open_account w.W.net ~creds:creds_direct ~name:"alice");
  Result.get_ok (Accounting_server.open_account w.W.net ~creds:creds_direct ~name:"petty-cash");
  ignore (Ledger.mint (Accounting_server.ledger bank) ~name:"alice" ~currency:"usd" 1000);
  let proxy_tgt =
    Result.get_ok
      (Tgs_proxy.grant w.W.net ~kdc:w.W.kdc_name ~tgt
         ~restrictions:[ R.Quota ("usd", 50) ] ())
  in
  let creds =
    Result.get_ok (Tgs_proxy.use w.W.net ~kdc:w.W.kdc_name ~proxy_tgt ~service:bank_p)
  in
  (match
     Accounting_server.transfer w.W.net ~creds ~from_:"alice" ~to_:"petty-cash" ~currency:"usd"
       ~amount:30
   with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  match
    Accounting_server.transfer w.W.net ~creds ~from_:"alice" ~to_:"petty-cash" ~currency:"usd"
      ~amount:51
  with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "quota on TGS proxy ignored by the accounting server"

(* --- cross-realm --- *)

type realms = {
  wa : W.world; (* realm A, with its own KDC *)
  wb : W.world;
  alice_a : Principal.t; (* alice@A *)
  fs_b : Principal.t; (* file server in realm B *)
}

(* Two realms sharing one simulated network: build B's KDC on A's net. *)
let two_realms () =
  let wa = W.create ~seed:"realm A" ~realm:"realm-a" () in
  let net = wa.W.net in
  let dir_b = Directory.create () in
  let kdc_b_name = Principal.make ~realm:"realm-b" "kdc" in
  Directory.add_symmetric dir_b kdc_b_name (Sim.Net.fresh_key net);
  let kdc_b = Kdc.create net ~name:kdc_b_name ~directory:dir_b () in
  Kdc.install kdc_b;
  Kdc.federate wa.W.kdc kdc_b;
  let alice_a, _ = W.enrol wa "alice" in
  (* A file server in realm B whose ACL names alice@A. *)
  let fs_b = Principal.make ~realm:"realm-b" "fileserver" in
  let fs_key = Sim.Net.fresh_key net in
  Directory.add_symmetric dir_b fs_b fs_key;
  let acl = Acl.create () in
  Acl.add acl ~target:"*" { Acl.subject = Acl.Principal_is alice_a; rights = [ "read" ]; restrictions = [] };
  let fs = File_server.create net ~me:fs_b ~my_key:fs_key ~acl () in
  File_server.install fs;
  File_server.put_direct fs ~path:"doc" "cross-realm data";
  let wb = { wa with W.dir = dir_b; W.kdc = kdc_b; W.kdc_name = kdc_b_name; W.realm = "realm-b" } in
  { wa; wb; alice_a; fs_b }

let test_cross_realm_access () =
  let r = two_realms () in
  let tgt_a = W.login r.wa r.alice_a in
  (* Cross-realm TGT: A's TGS issues a ticket for B's KDC. *)
  let cross_tgt =
    match
      Kdc.Client.derive r.wa.W.net ~kdc:r.wa.W.kdc_name ~tgt:tgt_a ~target:r.wb.W.kdc_name ()
    with
    | Ok c -> c
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check bool) "names B's KDC" true
    (Principal.equal cross_tgt.Ticket.cred_service r.wb.W.kdc_name);
  (* Present it to B's TGS for a service ticket in realm B. *)
  let creds =
    match
      Kdc.Client.derive r.wa.W.net ~kdc:r.wb.W.kdc_name ~tgt:cross_tgt ~target:r.fs_b ()
    with
    | Ok c -> c
    | Error e -> Alcotest.fail e
  in
  match File_server.read r.wa.W.net ~creds ~path:"doc" () with
  | Ok content -> Alcotest.(check string) "read across realms" "cross-realm data" content
  | Error e -> Alcotest.fail e

let test_cross_realm_requires_trust () =
  (* Without federation, A's TGS refuses to mint a ticket for B's KDC. *)
  let wa = W.create ~seed:"lonely realm" ~realm:"realm-a" () in
  let alice, _ = W.enrol wa "alice" in
  let tgt = W.login wa alice in
  let foreign_kdc = Principal.make ~realm:"realm-b" "kdc" in
  match Kdc.Client.derive wa.W.net ~kdc:wa.W.kdc_name ~tgt ~target:foreign_kdc () with
  | Error e -> Alcotest.(check bool) "mentions trust" true (e <> "")
  | Ok _ -> Alcotest.fail "ticket issued without a trust path"

let test_cross_realm_restrictions_survive () =
  (* Restrictions placed in realm A bind in realm B: additive across the
     boundary. *)
  let r = two_realms () in
  let tgt_a = W.login r.wa r.alice_a in
  let restricted =
    Result.get_ok
      (Tgs_proxy.grant r.wa.W.net ~kdc:r.wa.W.kdc_name ~tgt:tgt_a
         ~restrictions:[ R.Authorized [ { R.target = "other"; ops = [ "read" ] } ] ]
         ())
  in
  let cross =
    Result.get_ok
      (Kdc.Client.derive r.wa.W.net ~kdc:r.wa.W.kdc_name ~tgt:restricted
         ~target:r.wb.W.kdc_name ())
  in
  let creds =
    Result.get_ok (Kdc.Client.derive r.wa.W.net ~kdc:r.wb.W.kdc_name ~tgt:cross ~target:r.fs_b ())
  in
  match File_server.read r.wa.W.net ~creds ~path:"doc" () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "restriction dropped at the realm boundary"

let test_cross_realm_ticket_not_tgt_elsewhere () =
  (* A service ticket for B's file server is not accepted by B's TGS as a
     TGT. *)
  let r = two_realms () in
  let tgt_a = W.login r.wa r.alice_a in
  let cross =
    Result.get_ok
      (Kdc.Client.derive r.wa.W.net ~kdc:r.wa.W.kdc_name ~tgt:tgt_a ~target:r.wb.W.kdc_name ())
  in
  let service_creds =
    Result.get_ok (Kdc.Client.derive r.wa.W.net ~kdc:r.wb.W.kdc_name ~tgt:cross ~target:r.fs_b ())
  in
  match
    Kdc.Client.derive r.wa.W.net ~kdc:r.wb.W.kdc_name ~tgt:service_creds ~target:r.fs_b ()
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "service ticket worked as a TGT"

let test_cross_realm_check_clearing () =
  (* Accounting across administrative domains: carol banks in realm A, the
     shop banks in realm B; the shop's bank collects from the drawee through
     the federation (its granter walks the cross-realm TGS path). *)
  let r = two_realms () in
  let net = r.wa.W.net in
  let drbg = Sim.Net.drbg net in
  (* Shared public-key directory so both banks can verify signatures. *)
  let pk_dir = Directory.create () in
  let lookup p = Directory.public pk_dir p in
  let carol, _ = W.enrol r.wa "carol" in
  let carol_rsa = Crypto.Rsa.generate drbg ~bits:512 in
  Directory.add_public pk_dir carol carol_rsa.Crypto.Rsa.pub;
  (* Bank in realm A (drawee). *)
  let bank_a = Principal.make ~realm:"realm-a" "bank" in
  let bank_a_key = Sim.Net.fresh_key net in
  Directory.add_symmetric r.wa.W.dir bank_a bank_a_key;
  let bank_a_rsa = Crypto.Rsa.generate drbg ~bits:512 in
  Directory.add_public pk_dir bank_a bank_a_rsa.Crypto.Rsa.pub;
  let drawee =
    Result.get_ok
      (Accounting_server.create net ~me:bank_a ~my_key:bank_a_key ~kdc:r.wa.W.kdc_name
         ~signing_key:bank_a_rsa ~lookup ())
  in
  Accounting_server.install drawee;
  (* Bank in realm B (the shop's). *)
  let bank_b = Principal.make ~realm:"realm-b" "bank" in
  let bank_b_key = Sim.Net.fresh_key net in
  Directory.add_symmetric r.wb.W.dir bank_b bank_b_key;
  let bank_b_rsa = Crypto.Rsa.generate drbg ~bits:512 in
  Directory.add_public pk_dir bank_b bank_b_rsa.Crypto.Rsa.pub;
  let payee_bank =
    Result.get_ok
      (Accounting_server.create net ~me:bank_b ~my_key:bank_b_key ~kdc:r.wb.W.kdc_name
         ~signing_key:bank_b_rsa ~lookup ())
  in
  Accounting_server.install payee_bank;
  (* Shop lives in realm B. *)
  let shop = Principal.make ~realm:"realm-b" "shop" in
  let shop_key = Sim.Net.fresh_key net in
  Directory.add_symmetric r.wb.W.dir shop shop_key;
  let shop_rsa = Crypto.Rsa.generate drbg ~bits:512 in
  Directory.add_public pk_dir shop shop_rsa.Crypto.Rsa.pub;
  (* Fund carol at the realm-A bank. *)
  let tgt_c = W.login r.wa carol in
  let creds_ca = W.credentials_for r.wa ~tgt:tgt_c bank_a in
  Result.get_ok (Accounting_server.open_account net ~creds:creds_ca ~name:"carol");
  ignore (Ledger.mint (Accounting_server.ledger drawee) ~name:"carol" ~currency:"usd" 300);
  (* Shop account at the realm-B bank. *)
  let tgt_s =
    match
      Kdc.Client.authenticate net ~kdc:r.wb.W.kdc_name ~client:shop ~client_key:shop_key
        ~service:r.wb.W.kdc_name ()
    with
    | Ok t -> t
    | Error e -> Alcotest.fail e
  in
  let creds_sb =
    Result.get_ok (Kdc.Client.derive net ~kdc:r.wb.W.kdc_name ~tgt:tgt_s ~target:bank_b ())
  in
  Result.get_ok (Accounting_server.open_account net ~creds:creds_sb ~name:"shop");
  (* The purchase. *)
  let now = W.now r.wa in
  let check =
    Check.write ~drbg ~now ~expires:(now + (24 * W.hour)) ~payor:carol ~payor_key:carol_rsa
      ~account:(Accounting_server.account drawee "carol") ~payee:shop ~currency:"usd"
      ~amount:120 ()
  in
  (match
     Accounting_server.deposit net ~creds:creds_sb ~endorser_key:shop_rsa ~check
       ~to_account:"shop"
   with
  | Ok amount -> Alcotest.(check int) "cleared across realms" 120 amount
  | Error e -> Alcotest.fail e);
  Alcotest.(check int) "carol debited in realm A" 180
    (Ledger.balance (Accounting_server.ledger drawee) ~name:"carol" ~currency:"usd");
  Alcotest.(check int) "shop credited in realm B" 120
    (Ledger.balance (Accounting_server.ledger payee_bank) ~name:"shop" ~currency:"usd")

(* --- forged inter-realm TGTs: the realm-binding check --- *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* Hand-craft a TGS request whose TGT blob is sealed under [key], naming
   [client], and return the TGS's error string (fails the test on
   acceptance). *)
let forged_tgs_error net ~key ~client ~kdc ~target =
  let session_key = Sim.Net.fresh_key net in
  let now = Sim.Net.now net in
  let body =
    {
      Ticket.client;
      service = kdc;
      session_key;
      auth_time = now;
      expires = now + W.hour;
      authorization_data = [];
    }
  in
  let blob =
    Ticket.seal ~service_key:(Crypto.Aead.prepare key) ~nonce:(Sim.Net.fresh_nonce net) body
  in
  let auth = { Ticket.auth_client = client; timestamp = now; subkey = None; auth_data = [] } in
  let auth_blob =
    Ticket.seal_authenticator ~session_key:(Crypto.Aead.prepare session_key)
      ~nonce:(Sim.Net.fresh_nonce net) auth
  in
  let request =
    Wire.encode
      (Wire.L [ Wire.S "tgs"; Wire.S blob; Wire.S auth_blob; Principal.to_wire target; Wire.I 3 ])
  in
  match Sim.Net.rpc net ~src:(Principal.to_string client) ~dst:(Principal.to_string kdc) request with
  | Error e -> Alcotest.fail ("transport: " ^ e)
  | Ok reply -> (
      match Wire.decode reply with
      | Error e -> Alcotest.fail ("undecodable reply: " ^ e)
      | Ok v -> (
          match Result.bind (Wire.field v 0) Wire.to_string with
          | Ok "err" -> Result.get_ok (Result.bind (Wire.field v 1) Wire.to_string)
          | _ -> Alcotest.fail "forged TGS request was accepted"))

(* A world whose KDC trusts peer "realm-c" under a key the test knows. *)
let trusting_world () =
  let w = W.create ~seed:"forged tgt" ~realm:"realm-b" () in
  let key_bc = Sim.Net.fresh_key w.W.net in
  Kdc.add_cross_realm w.W.kdc ~peer_realm:"realm-c" ~key:key_bc;
  let victim, _ = W.enrol w "victim-service" in
  (w, key_bc, victim)

let test_forged_client_realm_foreign () =
  (* The C<->B key speaks only for realm C's principals: a TGT minted under
     it naming a realm-A client must be refused with the realm mismatch —
     otherwise peer C could impersonate any realm's users at B. *)
  let w, key_bc, victim = trusting_world () in
  let mallory = Principal.make ~realm:"realm-a" "mallory" in
  Alcotest.(check string) "pinned realm-mismatch error"
    "tgs: cross-realm TGT client realm realm-a does not match trusting realm realm-c"
    (forged_tgs_error w.W.net ~key:key_bc ~client:mallory ~kdc:w.W.kdc_name ~target:victim)

let test_forged_client_realm_local () =
  (* Nor may a federated peer mint tickets for the trusting realm's OWN
     users — the worst case of the forgery hole. *)
  let w, key_bc, victim = trusting_world () in
  let mallory = Principal.make ~realm:"realm-b" "mallory" in
  Alcotest.(check string) "pinned realm-mismatch error"
    "tgs: cross-realm TGT client realm realm-b does not match trusting realm realm-c"
    (forged_tgs_error w.W.net ~key:key_bc ~client:mallory ~kdc:w.W.kdc_name ~target:victim)

let test_forged_unknown_key () =
  (* A TGT sealed under a key from no trusted peer opens under nothing and
     is refused without naming any realm. *)
  let w, _, victim = trusting_world () in
  let mallory = Principal.make ~realm:"realm-c" "mallory" in
  Alcotest.(check string) "exhausted key trial"
    "tgs: cannot open presented ticket"
    (forged_tgs_error w.W.net ~key:(Sim.Net.fresh_key w.W.net) ~client:mallory ~kdc:w.W.kdc_name
       ~target:victim)

let test_cross_realm_only_names_kdc () =
  (* A's TGS never seals a ticket for an arbitrary foreign service under the
     inter-realm key — only for the peer KDC. *)
  let r = two_realms () in
  let tgt_a = W.login r.wa r.alice_a in
  match Kdc.Client.derive r.wa.W.net ~kdc:r.wa.W.kdc_name ~tgt:tgt_a ~target:r.fs_b () with
  | Error e ->
      Alcotest.(check string) "pinned error"
        "cross-realm tickets may only name the remote realm's KDC" e
  | Ok _ -> Alcotest.fail "A's TGS issued a foreign service ticket directly"

let test_expired_cross_realm_tgt () =
  let r = two_realms () in
  let tgt_a = W.login r.wa r.alice_a in
  let cross =
    Result.get_ok
      (Kdc.Client.derive r.wa.W.net ~kdc:r.wa.W.kdc_name ~tgt:tgt_a ~target:r.wb.W.kdc_name ())
  in
  Sim.Clock.advance (Sim.Net.clock r.wa.W.net) (cross.Ticket.cred_expires - W.now r.wa + 1);
  match Kdc.Client.derive r.wa.W.net ~kdc:r.wb.W.kdc_name ~tgt:cross ~target:r.fs_b () with
  | Error e -> Alcotest.(check string) "pinned error" "tgs: TGT expired" e
  | Ok _ -> Alcotest.fail "expired cross-realm TGT accepted"

(* --- TGS subkeys: malformed on either side is refused in-band --- *)

let test_subkey_client_validated () =
  let w = W.create ~seed:"subkey client" () in
  let alice, _ = W.enrol w "alice" in
  let svc, _ = W.enrol w "svc" in
  let tgt = W.login w alice in
  match Kdc.Client.derive w.W.net ~kdc:w.W.kdc_name ~tgt ~target:svc ~subkey:"short" () with
  | Error e -> Alcotest.(check string) "pinned error" "derive: subkey must be 32 bytes" e
  | Ok _ -> Alcotest.fail "client sent a malformed subkey"

let test_subkey_server_refuses_wire () =
  (* A client library that skips validation still gets a clean in-band
     refusal, not an opaque decrypt failure on the reply. *)
  let w = W.create ~seed:"subkey server" () in
  let alice, _ = W.enrol w "alice" in
  let svc, _ = W.enrol w "svc" in
  let tgt = W.login w alice in
  let now = W.now w in
  let auth =
    { Ticket.auth_client = alice; timestamp = now; subkey = Some "short"; auth_data = [] }
  in
  let auth_blob =
    Ticket.seal_authenticator ~session_key:(Crypto.Aead.prepare tgt.Ticket.session_key)
      ~nonce:(Sim.Net.fresh_nonce w.W.net) auth
  in
  let request =
    Wire.encode
      (Wire.L
         [ Wire.S "tgs"; Wire.S tgt.Ticket.ticket_blob; Wire.S auth_blob; Principal.to_wire svc;
           Wire.I 4 ])
  in
  match
    Sim.Net.rpc w.W.net ~src:(Principal.to_string alice) ~dst:(Principal.to_string w.W.kdc_name)
      request
  with
  | Error e -> Alcotest.fail ("transport: " ^ e)
  | Ok reply -> (
      match Wire.decode reply with
      | Error e -> Alcotest.fail e
      | Ok v -> (
          match Result.bind (Wire.field v 0) Wire.to_string with
          | Ok "err" ->
              Alcotest.(check string) "pinned error" "tgs: subkey must be 32 bytes"
                (Result.get_ok (Result.bind (Wire.field v 1) Wire.to_string))
          | _ -> Alcotest.fail "malformed subkey accepted"))

let test_subkey_wellformed_accepted () =
  let w = W.create ~seed:"subkey ok" () in
  let alice, _ = W.enrol w "alice" in
  let svc, svc_key = W.enrol w "svc" in
  ignore svc_key;
  let tgt = W.login w alice in
  let subkey = Sim.Net.fresh_key w.W.net in
  match Kdc.Client.derive w.W.net ~kdc:w.W.kdc_name ~tgt ~target:svc ~subkey () with
  | Ok creds ->
      Alcotest.(check bool) "names the service" true
        (Principal.equal creds.Ticket.cred_service svc)
  | Error e -> Alcotest.fail e

(* --- granter recovery after an inter-realm rekey --- *)

let test_granter_rekey_evict_retry () =
  let r = two_realms () in
  let net = r.wa.W.net in
  let me, my_key = W.enrol r.wa "walker" in
  (* Something else in realm B to force a second remote derive after the
     first target is already cached. *)
  let printer = Principal.make ~realm:"realm-b" "printer" in
  Directory.add_symmetric r.wb.W.dir printer (Sim.Net.fresh_key net);
  (* fs_b's ACL doesn't matter here — only ticket issuance. *)
  let g = Result.get_ok (Granter.create net ~me ~my_key ~kdc:r.wa.W.kdc_name) in
  (match Granter.credentials_for g r.fs_b with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("first cross-realm derive: " ^ e));
  (* Rekey the A<->B link: the cached cross-realm TGT is now sealed under a
     key B no longer holds. *)
  Kdc.federate r.wa.W.kdc r.wb.W.kdc;
  (* Sanity: a stale cross TGT really is dead at B after the rekey. *)
  let tgt = W.login r.wa me in
  let stale_cross =
    Result.get_ok (Kdc.Client.derive net ~kdc:r.wa.W.kdc_name ~tgt ~target:r.wb.W.kdc_name ())
  in
  Kdc.federate r.wa.W.kdc r.wb.W.kdc;
  (match Kdc.Client.derive net ~kdc:r.wb.W.kdc_name ~tgt:stale_cross ~target:printer () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "stale cross-realm TGT survived the rekey");
  (* The granter must evict its cached cross TGT and retry the full path. *)
  match Granter.credentials_for g printer with
  | Ok creds ->
      Alcotest.(check bool) "names the printer" true
        (Principal.equal creds.Ticket.cred_service printer)
  | Error e -> Alcotest.fail ("granter did not recover from the rekey: " ^ e)

(* --- membership snapshots and the staleness bound --- *)

let member_fixture () =
  let drbg = Crypto.Drbg.create ~seed:"membership tests" in
  let rsa = Crypto.Rsa.generate drbg ~bits:512 in
  let gs = Principal.make ~realm:"realm-a" "groups" in
  let p name = Principal.make ~realm:"realm-a" name in
  (rsa, gs, p)

let test_snapshot_sign_verify_wire () =
  let rsa, gs, p = member_fixture () in
  let groups = [ ("eng", [ p "carol"; p "alice"; p "bob"; p "alice" ]) ] in
  let snap = Membership.sign ~key:rsa ~issuer:gs ~epoch:1 ~issued_at:1_000 groups in
  (* Canonicalized: sorted, deduped. *)
  Alcotest.(check int) "deduped" 3 (List.length (List.assoc "eng" snap.Membership.items));
  (match Membership.verify rsa.Crypto.Rsa.pub snap with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (* Any field change invalidates the signature. *)
  (match Membership.verify rsa.Crypto.Rsa.pub { snap with Membership.epoch = 9 } with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "tampered snapshot verified");
  (match Membership.of_wire (Membership.to_wire snap) with
  | Ok snap' -> Alcotest.(check bool) "wire round-trip" true (snap = snap')
  | Error e -> Alcotest.fail e);
  match Membership.of_wire (Membership.to_wire { snap with Membership.epoch = 0 }) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "epoch 0 snapshot decoded"

let test_snapshot_apply_ordering () =
  let rsa, gs, p = member_fixture () in
  let sub = Membership.create ~issuer:gs ~issuer_pub:rsa.Crypto.Rsa.pub ~now:0 () in
  let snap1 = Membership.sign ~key:rsa ~issuer:gs ~epoch:1 ~issued_at:1_000 [ ("eng", [ p "alice"; p "bob" ]) ] in
  (match Membership.apply sub snap1 with
  | Ok (Membership.Applied { fresh }) -> Alcotest.(check int) "full table fresh" 2 fresh
  | Ok Membership.Ignored -> Alcotest.fail "first snapshot ignored"
  | Error e -> Alcotest.fail e);
  (* Replay is idempotent, not an error. *)
  (match Membership.apply sub snap1 with
  | Ok Membership.Ignored -> ()
  | _ -> Alcotest.fail "replayed snapshot not ignored");
  let snap2 =
    Membership.sign ~key:rsa ~issuer:gs ~epoch:2 ~issued_at:2_000
      [ ("eng", [ p "alice"; p "bob"; p "carol" ]) ]
  in
  (match Membership.apply sub snap2 with
  | Ok (Membership.Applied { fresh }) -> Alcotest.(check int) "only the growth is fresh" 1 fresh
  | _ -> Alcotest.fail "newer snapshot not applied");
  Alcotest.(check bool) "carol now a member" true (Membership.member sub ~group:"eng" (p "carol"));
  (* Wrong signer and wrong server identity are refused outright. *)
  let other = Crypto.Rsa.generate (Crypto.Drbg.create ~seed:"other key") ~bits:512 in
  let forged = Membership.sign ~key:other ~issuer:gs ~epoch:3 ~issued_at:3_000 [] in
  (match Membership.apply sub forged with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "snapshot with a wrong signature applied");
  let wrong_server =
    Membership.sign ~key:rsa ~issuer:(p "not-groups") ~epoch:3 ~issued_at:3_000 []
  in
  match Membership.apply sub wrong_server with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "snapshot from the wrong server applied"

let test_membership_fail_closed_when_stale () =
  let rsa, gs, p = member_fixture () in
  let bound = 1_000_000 in
  let sub = Membership.create ~issuer:gs ~issuer_pub:rsa.Crypto.Rsa.pub ~staleness_bound_us:bound ~now:0 () in
  let snap1 = Membership.sign ~key:rsa ~issuer:gs ~epoch:1 ~issued_at:500 [ ("eng", [ p "alice" ]) ] in
  ignore (Result.get_ok (Membership.apply sub snap1));
  (match Membership.check sub ~now:1_000 ~group:"eng" (p "alice") with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (* A non-member is refused with a membership decision, not staleness. *)
  (match Membership.check sub ~now:1_000 ~group:"eng" (p "mallory") with
  | Error e -> Alcotest.(check bool) "membership denial" true (contains e "not a member")
  | Ok () -> Alcotest.fail "non-member served");
  (* Past the bound even a real member is refused: fail closed. *)
  (match Membership.check sub ~now:(500 + bound + 1) ~group:"eng" (p "alice") with
  | Error e -> Alcotest.(check bool) "fails closed" true (contains e "failing closed")
  | Ok () -> Alcotest.fail "stale replica kept serving");
  (* A fresh snapshot restores service. *)
  let snap2 =
    Membership.sign ~key:rsa ~issuer:gs ~epoch:2 ~issued_at:(500 + bound + 1)
      [ ("eng", [ p "alice" ]) ]
  in
  ignore (Result.get_ok (Membership.apply sub snap2));
  match Membership.check sub ~now:(500 + bound + 2) ~group:"eng" (p "alice") with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("fresh snapshot did not restore service: " ^ e)

let test_lookup_by_realm_fails_closed () =
  (* Same short name enrolled in two realms with different keys: the routed
     lookup must resolve each against its own realm's directory, and an
     unrouted realm resolves to nothing — never falls through. *)
  let drbg = Crypto.Drbg.create ~seed:"routed lookup" in
  let dir_a = Directory.create () and dir_b = Directory.create () in
  let alice_a = Principal.make ~realm:"realm-a" "alice" in
  let alice_b = Principal.make ~realm:"realm-b" "alice" in
  let rsa_a = Crypto.Rsa.generate drbg ~bits:512 in
  let rsa_b = Crypto.Rsa.generate drbg ~bits:512 in
  Directory.add_public dir_a alice_a rsa_a.Crypto.Rsa.pub;
  Directory.add_public dir_b alice_b rsa_b.Crypto.Rsa.pub;
  let routed =
    Verifier.lookup_by_realm
      [ ("realm-a", Directory.public dir_a); ("realm-b", Directory.public dir_b) ]
  in
  (match routed alice_a with
  | Some pub -> Alcotest.(check bool) "realm A key" true (pub = rsa_a.Crypto.Rsa.pub)
  | None -> Alcotest.fail "alice@realm-a unresolved");
  (match routed alice_b with
  | Some pub -> Alcotest.(check bool) "realm B key" true (pub = rsa_b.Crypto.Rsa.pub)
  | None -> Alcotest.fail "alice@realm-b unresolved");
  match routed (Principal.make ~realm:"realm-c" "alice") with
  | None -> ()
  | Some _ -> Alcotest.fail "unrouted realm fell through to another realm's keys"

let () =
  Alcotest.run "federation"
    [ ( "tgs-proxy",
        [ ("spans end-servers", `Quick, test_tgs_proxy_spans_servers);
          ("cannot widen", `Quick, test_tgs_proxy_cannot_widen);
          ("transfer encoding", `Quick, test_tgs_proxy_transfer_encoding);
          ("quota binds accounting ops", `Slow, test_transport_restrictions_on_accounting) ] );
      ( "cross-realm",
        [ ("access across realms", `Quick, test_cross_realm_access);
          ("requires trust", `Quick, test_cross_realm_requires_trust);
          ("restrictions survive", `Quick, test_cross_realm_restrictions_survive);
          ("service ticket is not a TGT", `Quick, test_cross_realm_ticket_not_tgt_elsewhere);
          ("check clears across realms", `Slow, test_cross_realm_check_clearing) ] );
      ( "cross-realm negatives",
        [ ("forged foreign-client TGT refused", `Quick, test_forged_client_realm_foreign);
          ("forged local-client TGT refused", `Quick, test_forged_client_realm_local);
          ("unknown inter-realm key refused", `Quick, test_forged_unknown_key);
          ("cross-realm tickets only name the KDC", `Quick, test_cross_realm_only_names_kdc);
          ("expired cross-realm TGT refused", `Quick, test_expired_cross_realm_tgt) ] );
      ( "tgs-subkey",
        [ ("client validates before sending", `Quick, test_subkey_client_validated);
          ("server refuses malformed subkey in-band", `Quick, test_subkey_server_refuses_wire);
          ("well-formed subkey accepted", `Quick, test_subkey_wellformed_accepted) ] );
      ( "granter",
        [ ("rekey recovery: evict and retry", `Quick, test_granter_rekey_evict_retry) ] );
      ( "membership",
        [ ("snapshot sign/verify/wire", `Quick, test_snapshot_sign_verify_wire);
          ("apply ordering and authenticity", `Quick, test_snapshot_apply_ordering);
          ("fail closed when stale", `Quick, test_membership_fail_closed_when_stale);
          ("realm-routed key lookup fails closed", `Quick, test_lookup_by_realm_fails_closed) ] ) ]
