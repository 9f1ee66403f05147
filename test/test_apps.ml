(* End-to-end application servers: the file server, the pay-per-page print
   server, and the cascaded word-count pipeline. *)

module W = Testkit
let usd = "usd"

type app_world = {
  w : W.world;
  alice : Principal.t;
  bob : Principal.t;
  fs : File_server.t;
  fs_name : Principal.t;
}

let app_world ?(seed = "apps tests") () =
  let w = W.create ~seed () in
  let alice, _ = W.enrol w "alice" in
  let bob, _ = W.enrol w "bob" in
  let fs_name, fs_key = W.enrol w "fileserver" in
  let acl = Acl.create () in
  Acl.add acl ~target:"*" { Acl.subject = Acl.Principal_is alice; rights = []; restrictions = [] };
  let fs = File_server.create w.W.net ~me:fs_name ~my_key:fs_key ~acl () in
  File_server.install fs;
  File_server.put_direct fs ~path:"report.txt" "the quick brown fox\njumps over the lazy dog";
  { w; alice; bob; fs; fs_name }

let test_file_server_direct () =
  let aw = app_world () in
  let tgt = W.login aw.w aw.alice in
  let creds = W.credentials_for aw.w ~tgt aw.fs_name in
  (match File_server.read aw.w.W.net ~creds ~path:"report.txt" () with
  | Ok content -> Alcotest.(check bool) "content" true (String.length content > 0)
  | Error e -> Alcotest.fail e);
  (match File_server.stat aw.w.W.net ~creds ~path:"report.txt" () with
  | Ok n -> Alcotest.(check int) "size" 43 n
  | Error e -> Alcotest.fail e);
  (match File_server.write aw.w.W.net ~creds ~path:"new.txt" "hello" with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check (option string)) "written" (Some "hello")
    (File_server.get_direct aw.fs ~path:"new.txt");
  (* Bob has no rights. *)
  let tgt_b = W.login aw.w aw.bob in
  let creds_b = W.credentials_for aw.w ~tgt:tgt_b aw.fs_name in
  match File_server.read aw.w.W.net ~creds:creds_b ~path:"report.txt" () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unauthorized read"

let test_file_server_capability () =
  let aw = app_world () in
  let tgt = W.login aw.w aw.alice in
  let cap =
    Result.get_ok
      (Capability.mint_via_kdc aw.w.W.net ~kdc:aw.w.W.kdc_name ~tgt ~end_server:aw.fs_name
         ~target:"report.txt" ~ops:[ "read" ] ())
  in
  let tgt_b = W.login aw.w aw.bob in
  let creds_b = W.credentials_for aw.w ~tgt:tgt_b aw.fs_name in
  let attach op =
    File_server.attach aw.w.W.net ~proxy:cap ~server:aw.fs_name ~operation:op ~path:"report.txt"
  in
  (match File_server.read aw.w.W.net ~creds:creds_b ~proxies:[ attach "read" ] ~path:"report.txt" () with
  | Ok content -> Alcotest.(check bool) "read via capability" true (String.length content > 0)
  | Error e -> Alcotest.fail e);
  match
    File_server.write aw.w.W.net ~creds:creds_b ~proxies:[ attach "write" ] ~path:"report.txt" "x"
  with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "write via read capability"

let test_pipeline_cascade () =
  let aw = app_world () in
  Sim.Net.enable_tracing aw.w.W.net;
  let pl_name, pl_key = W.enrol aw.w "pipeline" in
  let pl =
    Result.get_ok
      (Pipeline.create aw.w.W.net ~me:pl_name ~my_key:pl_key ~kdc:aw.w.W.kdc_name
         ~fileserver:aw.fs_name)
  in
  Pipeline.install pl;
  let tgt = W.login aw.w aw.alice in
  let cap =
    Result.get_ok
      (Capability.mint_via_kdc aw.w.W.net ~kdc:aw.w.W.kdc_name ~tgt ~end_server:aw.fs_name
         ~target:"report.txt" ~ops:[ "read" ] ())
  in
  let creds_pl = W.credentials_for aw.w ~tgt pl_name in
  (match Pipeline.word_count aw.w.W.net ~creds:creds_pl ~path:"report.txt" ~capability:cap with
  | Ok n -> Alcotest.(check int) "nine words" 9 n
  | Error e -> Alcotest.fail e);
  (* The file server saw a depth-2 chain: its decide span records the access
     as granted via alice's authority. *)
  let decides =
    List.filter
      (fun (s : Sim.Span.span) ->
        s.Sim.Span.sp_kind = "guard.decide"
        && s.Sim.Span.sp_actor = Principal.to_string aw.fs_name)
      (Sim.Span.spans (Option.get (Sim.Net.spans aw.w.W.net)))
  in
  Alcotest.(check (list (option string))) "fileserver traced grant"
    [ Some (Principal.to_string aw.alice) ]
    (List.map (fun (s : Sim.Span.span) -> List.assoc_opt "acting_for" s.Sim.Span.sp_attrs) decides);
  (* A capability for a different file does not let the pipeline read this
     one. *)
  File_server.put_direct aw.fs ~path:"secret.txt" "classified";
  let wrong_cap =
    Result.get_ok
      (Capability.mint_via_kdc aw.w.W.net ~kdc:aw.w.W.kdc_name ~tgt ~end_server:aw.fs_name
         ~target:"report.txt" ~ops:[ "read" ] ())
  in
  match Pipeline.word_count aw.w.W.net ~creds:creds_pl ~path:"secret.txt" ~capability:wrong_cap with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "pipeline read beyond the delegated capability"

(* --- print server + accounting --- *)

type print_world = {
  pw : W.world;
  carol : Principal.t;
  carol_rsa : Crypto.Rsa.private_;
  bank : Accounting_server.t;
  bank_name : Principal.t;
  printer : Print_server.t;
  printer_name : Principal.t;
}

let print_world ?(seed = "print tests") () =
  let pw = W.create ~seed () in
  let drbg = Sim.Net.drbg pw.W.net in
  let carol, _ = W.enrol pw "carol" in
  let bank_p, bank_key = W.enrol pw "bank" in
  let printer_p, printer_key = W.enrol pw "printer" in
  let carol_rsa = Crypto.Rsa.generate drbg ~bits:512 in
  let bank_rsa = Crypto.Rsa.generate drbg ~bits:512 in
  let printer_rsa = Crypto.Rsa.generate drbg ~bits:512 in
  Directory.add_public pw.W.dir carol carol_rsa.Crypto.Rsa.pub;
  Directory.add_public pw.W.dir bank_p bank_rsa.Crypto.Rsa.pub;
  Directory.add_public pw.W.dir printer_p printer_rsa.Crypto.Rsa.pub;
  let lookup p = Directory.public pw.W.dir p in
  let bank =
    Result.get_ok
      (Accounting_server.create pw.W.net ~me:bank_p ~my_key:bank_key ~kdc:pw.W.kdc_name
         ~signing_key:bank_rsa ~lookup ())
  in
  Accounting_server.install bank;
  let tgt_c = W.login pw carol in
  let creds_cb = W.credentials_for pw ~tgt:tgt_c bank_p in
  (match Accounting_server.open_account pw.W.net ~creds:creds_cb ~name:"carol" with
  | Ok () -> ()
  | Error e -> failwith e);
  ignore (Ledger.mint (Accounting_server.ledger bank) ~name:"carol" ~currency:usd 100);
  let tgt_p = W.login pw printer_p in
  let creds_pb = W.credentials_for pw ~tgt:tgt_p bank_p in
  (match Accounting_server.open_account pw.W.net ~creds:creds_pb ~name:"printer" with
  | Ok () -> ()
  | Error e -> failwith e);
  let printer =
    Result.get_ok
      (Print_server.create pw.W.net ~me:printer_p ~my_key:printer_key ~kdc:pw.W.kdc_name
         ~bank:bank_p ~account:"printer" ~signing_key:printer_rsa ~lookup)
  in
  Print_server.install printer;
  { pw; carol; carol_rsa; bank; bank_name = bank_p; printer; printer_name = printer_p }

let carol_check prw ~amount =
  let now = W.now prw.pw in
  Check.write ~drbg:(Sim.Net.drbg prw.pw.W.net) ~now ~expires:(now + (24 * W.hour))
    ~payor:prw.carol ~payor_key:prw.carol_rsa
    ~account:(Accounting_server.account prw.bank "carol") ~payee:prw.printer_name ~currency:usd
    ~amount ()

let test_print_with_check () =
  let prw = print_world () in
  let tgt = W.login prw.pw prw.carol in
  let creds = W.credentials_for prw.pw ~tgt prw.printer_name in
  let content = String.make 2500 'x' in
  (match Print_server.price prw.pw.W.net ~creds ~content_length:(String.length content) with
  | Ok price -> Alcotest.(check int) "3 pages at 2 usd" 6 price
  | Error e -> Alcotest.fail e);
  let check = carol_check prw ~amount:6 in
  (match Print_server.print prw.pw.W.net ~creds ~document:"thesis" ~content ~check () with
  | Ok pages -> Alcotest.(check int) "printed" 3 pages
  | Error e -> Alcotest.fail e);
  let ledger = Accounting_server.ledger prw.bank in
  Alcotest.(check int) "carol paid" 94 (Ledger.balance ledger ~name:"carol" ~currency:usd);
  Alcotest.(check int) "printer earned" 6 (Ledger.balance ledger ~name:"printer" ~currency:usd)

let test_print_underpaid () =
  let prw = print_world () in
  let tgt = W.login prw.pw prw.carol in
  let creds = W.credentials_for prw.pw ~tgt prw.printer_name in
  let content = String.make 5000 'y' in
  let check = carol_check prw ~amount:1 in
  match Print_server.print prw.pw.W.net ~creds ~document:"cheap" ~content ~check () with
  | Error _ -> Alcotest.(check int) "nothing printed" 0 (Print_server.pages_printed prw.printer)
  | Ok _ -> Alcotest.fail "underpaid job printed"

let test_print_bounced_check () =
  let prw = print_world () in
  let tgt = W.login prw.pw prw.carol in
  let creds = W.credentials_for prw.pw ~tgt prw.printer_name in
  let check = carol_check prw ~amount:500 in
  (* Face value is fine, but carol has only 100. *)
  (match Print_server.print prw.pw.W.net ~creds ~document:"big" ~content:"tiny" ~check () with
  | Error e -> Alcotest.(check bool) "reports non-clearing" true (e <> "")
  | Ok _ -> Alcotest.fail "bounced check accepted");
  Alcotest.(check int) "carol not charged" 100
    (Ledger.balance (Accounting_server.ledger prw.bank) ~name:"carol" ~currency:usd)

let test_print_certified () =
  let prw = print_world () in
  let tgt = W.login prw.pw prw.carol in
  let creds_bank = W.credentials_for prw.pw ~tgt prw.bank_name in
  let check = carol_check prw ~amount:2 in
  let certification =
    Result.get_ok (Accounting_server.certify prw.pw.W.net ~creds:creds_bank ~check)
  in
  let creds = W.credentials_for prw.pw ~tgt prw.printer_name in
  (match
     Print_server.print prw.pw.W.net ~creds ~document:"note" ~content:"hi" ~check ~certification
       ()
   with
  | Ok pages -> Alcotest.(check int) "one page" 1 pages
  | Error e -> Alcotest.fail e);
  let ledger = Accounting_server.ledger prw.bank in
  Alcotest.(check int) "cleared from hold" 98 (Ledger.balance ledger ~name:"carol" ~currency:usd);
  Alcotest.(check int) "no residual hold" 0 (Ledger.held ledger ~name:"carol" ~currency:usd)

let test_print_forged_certification () =
  let prw = print_world () in
  let tgt = W.login prw.pw prw.carol in
  let creds = W.credentials_for prw.pw ~tgt prw.printer_name in
  let check = carol_check prw ~amount:2 in
  (* Carol forges a certification proxy under her own key. *)
  let now = W.now prw.pw in
  let forged =
    Proxy.grant_pk ~drbg:(Sim.Net.drbg prw.pw.W.net) ~now ~expires:(now + W.hour)
      ~grantor:prw.bank_name ~grantor_key:prw.carol_rsa
      ~restrictions:
        [ Restriction.Authorized
            [ { Restriction.target = "certified:" ^ check.Check.number; ops = [ "verify" ] } ] ]
      ()
  in
  match
    Print_server.print prw.pw.W.net ~creds ~document:"forged" ~content:"hi" ~check
      ~certification:forged ()
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "forged certification accepted"

let () =
  Alcotest.run "apps"
    [ ( "file-server",
        [ ("direct access", `Quick, test_file_server_direct);
          ("capability access", `Quick, test_file_server_capability) ] );
      ("pipeline", [ ("cascaded word count", `Quick, test_pipeline_cascade) ]);
      ( "print-server",
        [ ("pay by check", `Slow, test_print_with_check);
          ("underpaid refused", `Slow, test_print_underpaid);
          ("bounced check", `Slow, test_print_bounced_check);
          ("certified payment", `Slow, test_print_certified);
          ("forged certification", `Slow, test_print_forged_certification) ] ) ]
