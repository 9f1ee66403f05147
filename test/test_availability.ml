(* Availability: what keeps working when infrastructure fails.

   Offline verifiability is the structural advantage the paper claims for
   restricted proxies over online schemes (Sections 3.4, 5): once granted, a
   proxy needs no authority on the critical path. These tests kill servers
   mid-run and check that exactly the right things degrade. *)

module W = Testkit
module R = Restriction

let test_capability_survives_kdc_outage () =
  let w = W.create ~seed:"kdc outage" () in
  let alice, _ = W.enrol w "alice" in
  let bob, _ = W.enrol w "bob" in
  let fs_name, fs_key = W.enrol w "fs" in
  let acl = Acl.create () in
  Acl.add acl ~target:"*" { Acl.subject = Acl.Principal_is alice; rights = []; restrictions = [] };
  let fs = File_server.create w.W.net ~me:fs_name ~my_key:fs_key ~acl () in
  File_server.install fs;
  File_server.put_direct fs ~path:"f" "still here";
  (* Everything bob needs is acquired while the KDC is up. *)
  let tgt_a = W.login w alice in
  let cap =
    Result.get_ok
      (Capability.mint_via_kdc w.W.net ~kdc:w.W.kdc_name ~tgt:tgt_a ~end_server:fs_name
         ~target:"f" ~ops:[ "read" ] ())
  in
  let tgt_b = W.login w bob in
  let creds_b = W.credentials_for w ~tgt:tgt_b fs_name in
  (* The KDC goes down. *)
  Sim.Net.unregister w.W.net ~name:(Principal.to_string w.W.kdc_name);
  (* Proxy-based access still works: verification is offline. *)
  let presented =
    File_server.attach w.W.net ~proxy:cap ~server:fs_name ~operation:"read" ~path:"f"
  in
  (match File_server.read w.W.net ~creds:creds_b ~proxies:[ presented ] ~path:"f" () with
  | Ok content -> Alcotest.(check string) "reads during outage" "still here" content
  | Error e -> Alcotest.fail e);
  (* New logins fail cleanly (no exception). *)
  let carol, carol_key = W.enrol w "carol" in
  match
    Kdc.Client.authenticate w.W.net ~kdc:w.W.kdc_name ~client:carol ~client_key:carol_key
      ~service:fs_name ()
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "login succeeded against a dead KDC"

let test_sollins_dies_with_its_authority () =
  (* The contrast: Sollins verification NEEDS the authentication server on
     every use. *)
  let net = Sim.Net.create ~seed:"sollins outage" () in
  let as_name = Principal.make ~realm:"r" "as" in
  let srv = Sollins.create net ~name:as_name in
  Sollins.install srv;
  let alice = Principal.make ~realm:"r" "alice" in
  let fs = Principal.make ~realm:"r" "fs" in
  let ka = Sollins.register srv alice in
  ignore (Sollins.register srv fs);
  let passport = Sollins.initiate ~key:ka ~from_:alice ~to_:fs ~restrictions:[] in
  (match Sollins.verify_online net ~server:as_name ~caller:"fs" passport with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  Sim.Net.unregister net ~name:(Principal.to_string as_name);
  match Sollins.verify_online net ~server:as_name ~caller:"fs" passport with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "Sollins verified without its authority"

let test_pk_survives_name_server_outage_via_cache () =
  (* A public-key proxy verifies through the resolver's cache while the name
     server is down; a never-seen grantor cannot be resolved. *)
  let net = Sim.Net.create ~seed:"ns outage" () in
  let drbg = Sim.Net.drbg net in
  let ca = Ca.create drbg ~name:(Principal.make ~realm:"r" "ca") ~bits:512 in
  let ns_name = Principal.make ~realm:"r" "ns" in
  let ns = Name_server.create net ~name:ns_name ~ca_pub:(Ca.ca_pub ca) in
  Name_server.install ns;
  let alice = Principal.make ~realm:"r" "alice" in
  let alice_rsa = Crypto.Rsa.generate drbg ~bits:512 in
  Name_server.publish ns (Ca.issue ca ~now:0 ~lifetime:max_int alice alice_rsa.Crypto.Rsa.pub);
  let stranger = Principal.make ~realm:"r" "stranger" in
  let stranger_rsa = Crypto.Rsa.generate drbg ~bits:512 in
  Name_server.publish ns
    (Ca.issue ca ~now:0 ~lifetime:max_int stranger stranger_rsa.Crypto.Rsa.pub);
  let resolver =
    Resolver.create net ~name_server:ns_name ~ca_pub:(Ca.ca_pub ca) ~caller:"server" ()
  in
  (* Warm the cache with alice only. *)
  Alcotest.(check bool) "warm" true (Resolver.lookup resolver alice <> None);
  Sim.Net.unregister net ~name:(Principal.to_string ns_name);
  let proxy =
    Proxy.grant_pk ~drbg ~now:0 ~expires:max_int ~grantor:alice ~grantor_key:alice_rsa
      ~proxy_bits:512 ~restrictions:[] ()
  in
  let certs = match proxy.Proxy.flavor with Proxy.Public_key c -> c | _ -> assert false in
  (match Verifier.verify_pk ~lookup:(Resolver.lookup resolver) ~now:1 certs with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("cached grantor should verify: " ^ e));
  (* A proxy from the never-cached stranger cannot be verified now. *)
  let proxy2 =
    Proxy.grant_pk ~drbg ~now:0 ~expires:max_int ~grantor:stranger ~grantor_key:stranger_rsa
      ~proxy_bits:512 ~restrictions:[] ()
  in
  let certs2 = match proxy2.Proxy.flavor with Proxy.Public_key c -> c | _ -> assert false in
  match Verifier.verify_pk ~lookup:(Resolver.lookup resolver) ~now:1 certs2 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unresolvable grantor verified"

let test_group_removal_vs_live_proxy () =
  (* The revocation-timing trade the paper accepts: removing a member stops
     NEW proxies immediately, but an already-issued proxy lives until it
     expires. *)
  let w = W.create ~seed:"group timing" () in
  let alice, _ = W.enrol w "alice" in
  let gsrv_p, gsrv_key = W.enrol w "groups" in
  let door_p, door_key = W.enrol w "door" in
  let gsrv =
    Result.get_ok
      (Group_server.create w.W.net ~me:gsrv_p ~my_key:gsrv_key ~kdc:w.W.kdc_name ())
  in
  Group_server.install gsrv;
  Group_server.add_member gsrv ~group:"ops" alice;
  let acl = Acl.create () in
  Acl.add acl ~target:"rack"
    { Acl.subject = Acl.Group (Group_server.group_name gsrv "ops"); rights = []; restrictions = [] };
  let door = Guard.create w.W.net ~me:door_p ~my_key:door_key ~acl () in
  let tgt = W.login w alice in
  let creds = W.credentials_for w ~tgt gsrv_p in
  let gproxy =
    Result.get_ok
      (Group_server.request_membership_proxy w.W.net ~creds ~group:"ops" ~end_server:door_p ())
  in
  Group_server.remove_member gsrv ~group:"ops" alice;
  (* The live proxy still asserts membership... *)
  let present () =
    Guard.bind ~server:door_p ~ticket:W.ticket gproxy
  in
  (match
     Guard.decide door ~ticket:W.ticket ~operation:"open" ~target:"rack" ~presenter:alice
       ~group_proxies:[ present () ] ()
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("live proxy should still work: " ^ e));
  (* ...no new proxy can be obtained... *)
  (match
     Group_server.request_membership_proxy w.W.net ~creds ~group:"ops" ~end_server:door_p ()
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "removed member re-certified");
  (* ...and expiry, 2 hours after issue, ends it. *)
  Sim.Clock.advance (Sim.Net.clock w.W.net) (3 * W.hour);
  match
    Guard.decide door ~ticket:W.ticket ~operation:"open" ~target:"rack" ~presenter:alice
      ~group_proxies:[ present () ] ()
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expired membership proxy accepted"

let test_bank_outage_degrades_cleanly () =
  (* When the drawee bank is down, deposits fail with an error (the check
     can be re-presented later) and no money moves anywhere. *)
  let w = W.create ~seed:"bank outage" () in
  let drbg = Sim.Net.drbg w.W.net in
  let carol, _ = W.enrol w "carol" in
  let shop, _ = W.enrol w "shop" in
  let carol_rsa = Crypto.Rsa.generate drbg ~bits:512 in
  let shop_rsa = Crypto.Rsa.generate drbg ~bits:512 in
  Directory.add_public w.W.dir carol carol_rsa.Crypto.Rsa.pub;
  Directory.add_public w.W.dir shop shop_rsa.Crypto.Rsa.pub;
  let lookup p = Directory.public w.W.dir p in
  let mk_bank name =
    let p, key = W.enrol w name in
    let rsa = Crypto.Rsa.generate drbg ~bits:512 in
    Directory.add_public w.W.dir p rsa.Crypto.Rsa.pub;
    let b =
      Result.get_ok
        (Accounting_server.create w.W.net ~me:p ~my_key:key ~kdc:w.W.kdc_name ~signing_key:rsa
           ~lookup ())
    in
    Accounting_server.install b;
    (p, b)
  in
  let drawee_p, drawee = mk_bank "drawee" in
  let payee_p, payee_bank = mk_bank "payee-bank" in
  let tgt_c = W.login w carol in
  let creds_cd = W.credentials_for w ~tgt:tgt_c drawee_p in
  Result.get_ok (Accounting_server.open_account w.W.net ~creds:creds_cd ~name:"carol");
  ignore (Ledger.mint (Accounting_server.ledger drawee) ~name:"carol" ~currency:"usd" 100);
  let tgt_s = W.login w shop in
  let creds_sb = W.credentials_for w ~tgt:tgt_s payee_p in
  Result.get_ok (Accounting_server.open_account w.W.net ~creds:creds_sb ~name:"shop");
  let now = W.now w in
  let check =
    Check.write ~drbg ~now ~expires:(now + (24 * W.hour)) ~payor:carol ~payor_key:carol_rsa
      ~account:(Accounting_server.account drawee "carol") ~payee:shop ~currency:"usd"
      ~amount:40 ()
  in
  Sim.Net.unregister w.W.net ~name:(Principal.to_string drawee_p);
  (match
     Accounting_server.deposit w.W.net ~creds:creds_sb ~endorser_key:shop_rsa ~check
       ~to_account:"shop"
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "cleared against a dead drawee");
  Alcotest.(check int) "nothing credited" 0
    (Ledger.balance (Accounting_server.ledger payee_bank) ~name:"shop" ~currency:"usd");
  Alcotest.(check int) "nothing debited" 100
    (Ledger.balance (Accounting_server.ledger drawee) ~name:"carol" ~currency:"usd");
  (* The drawee comes back; the same check clears (accept-once was never
     consumed). *)
  Accounting_server.install drawee;
  match
    Accounting_server.deposit w.W.net ~creds:creds_sb ~endorser_key:shop_rsa ~check
      ~to_account:"shop"
  with
  | Ok amount -> Alcotest.(check int) "cleared after recovery" 40 amount
  | Error e -> Alcotest.fail e

let () =
  Alcotest.run "availability"
    [ ( "outages",
        [ ("capability survives KDC outage", `Quick, test_capability_survives_kdc_outage);
          ("Sollins dies with its authority", `Quick, test_sollins_dies_with_its_authority);
          ("pk survives name-server outage via cache", `Slow,
           test_pk_survives_name_server_outage_via_cache);
          ("group removal vs live proxy", `Quick, test_group_removal_vs_live_proxy);
          ("bank outage degrades cleanly", `Slow, test_bank_outage_degrades_cleanly) ] ) ]
