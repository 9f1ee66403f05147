(* Cascaded authorization and pay-per-page printing.

   Alice wants a word count of her report without shipping the file around:
   she delegates a read capability to a processing pipeline, which NARROWS
   it (read-only, this file, single use) before exercising it at the file
   server — Figure 4's cascade, verified offline in one presentation.

   She then prints the report on a print server that charges per page
   through the accounting service: an ordinary check for a small job, a
   certified check when the server demands guaranteed funds.

   Run with: dune exec examples/cascaded_printing.exe *)

let usd = "usd"

let () =
  Demo.section "Setup: file server, pipeline, print server, bank";
  let w = World.create ~seed:"cascaded printing" () in
  let alice, _, alice_rsa = World.enrol_pk w "alice" in
  let fs_name, fs_key = World.enrol w "fileserver" in
  let pl_name, pl_key = World.enrol w "pipeline" in
  let printer_p, printer_key, printer_rsa = World.enrol_pk w "printer" in
  let bank_p, bank_key, bank_rsa = World.enrol_pk w "bank" in
  let lookup = World.lookup w in

  let acl = Acl.create () in
  Acl.add acl ~target:"*" { Acl.subject = Acl.Principal_is alice; rights = []; restrictions = [] };
  let fs = File_server.create w.World.net ~me:fs_name ~my_key:fs_key ~acl () in
  File_server.install fs;
  let report = String.concat " " (List.init 400 (fun i -> Printf.sprintf "word%d" i)) in
  File_server.put_direct fs ~path:"report.txt" report;

  let pipeline =
    match
      Pipeline.create w.World.net ~me:pl_name ~my_key:pl_key ~kdc:w.World.kdc_name
        ~fileserver:fs_name
    with
    | Ok p -> p
    | Error e -> failwith e
  in
  Pipeline.install pipeline;

  let bank =
    match
      Accounting_server.create w.World.net ~me:bank_p ~my_key:bank_key ~kdc:w.World.kdc_name
        ~signing_key:bank_rsa ~lookup ()
    with
    | Ok b -> b
    | Error e -> failwith e
  in
  Accounting_server.install bank;
  let tgt_a = World.login w alice in
  let creds_ab = World.credentials_for w ~tgt:tgt_a bank_p in
  ignore
    (Demo.expect_ok "alice opens a bank account"
       (Accounting_server.open_account w.World.net ~creds:creds_ab ~name:"alice"));
  ignore (Ledger.mint (Accounting_server.ledger bank) ~name:"alice" ~currency:usd 40);
  let tgt_p = World.login w printer_p in
  let creds_pb = World.credentials_for w ~tgt:tgt_p bank_p in
  ignore
    (Demo.expect_ok "printer opens a bank account"
       (Accounting_server.open_account w.World.net ~creds:creds_pb ~name:"printer")) ;
  let printer =
    match
      Print_server.create w.World.net ~me:printer_p ~my_key:printer_key ~kdc:w.World.kdc_name
        ~bank:bank_p ~account:"printer" ~signing_key:printer_rsa ~lookup
    with
    | Ok p -> p
    | Error e -> failwith e
  in
  Print_server.install printer;

  Demo.section "Cascade: alice delegates a narrowed capability to the pipeline";
  let cap =
    Demo.expect_ok "alice mints a read capability for report.txt"
      (Capability.mint_via_kdc w.World.net ~kdc:w.World.kdc_name ~tgt:tgt_a ~end_server:fs_name
         ~target:"report.txt" ~ops:[ "read" ] ())
  in
  let creds_pl = World.credentials_for w ~tgt:tgt_a pl_name in
  let words =
    Demo.expect_ok "pipeline narrows the capability and reads on alice's behalf"
      (Pipeline.word_count w.World.net ~creds:creds_pl ~path:"report.txt" ~capability:cap)
  in
  Demo.step "word count: %d (the file server verified a depth-2 chain OFFLINE)" words;

  Demo.section "Printing with an ordinary check";
  let creds_apr = World.credentials_for w ~tgt:tgt_a printer_p in
  let price =
    Demo.expect_ok "quote"
      (Print_server.price w.World.net ~creds:creds_apr ~content_length:(String.length report))
  in
  Demo.step "the job costs %d usd" price;
  let now = Sim.Net.now w.World.net in
  let check =
    Check.write ~drbg:(Sim.Net.drbg w.World.net) ~now ~expires:(now + (24 * World.hour))
      ~payor:alice ~payor_key:alice_rsa ~account:(Accounting_server.account bank "alice")
      ~payee:printer_p ~currency:usd ~amount:price ()
  in
  let pages =
    Demo.expect_ok "print, pay by check"
      (Print_server.print w.World.net ~creds:creds_apr ~document:"report.txt" ~content:report
         ~check ())
  in
  Demo.step "printed %d pages; printer balance is now %d usd" pages
    (Ledger.balance (Accounting_server.ledger bank) ~name:"printer" ~currency:usd);

  Demo.section "Printing with a certified check (guaranteed funds)";
  let now = Sim.Net.now w.World.net in
  let check2 =
    Check.write ~drbg:(Sim.Net.drbg w.World.net) ~now ~expires:(now + (24 * World.hour))
      ~payor:alice ~payor_key:alice_rsa ~account:(Accounting_server.account bank "alice")
      ~payee:printer_p ~currency:usd ~amount:2 ()
  in
  let certification =
    Demo.expect_ok "bank certifies (hold placed)"
      (Accounting_server.certify w.World.net ~creds:creds_ab ~check:check2)
  in
  ignore
    (Demo.expect_ok "print with guaranteed payment"
       (Print_server.print w.World.net ~creds:creds_apr ~document:"memo" ~content:"short memo"
          ~check:check2 ~certification ()));

  Demo.section "An unpayable job is refused";
  let now = Sim.Net.now w.World.net in
  let rubber =
    Check.write ~drbg:(Sim.Net.drbg w.World.net) ~now ~expires:(now + World.hour) ~payor:alice
      ~payor_key:alice_rsa ~account:(Accounting_server.account bank "alice") ~payee:printer_p
      ~currency:usd ~amount:1000 ()
  in
  Demo.expect_err "a 1000-usd check against a nearly empty account"
    (Print_server.print w.World.net ~creds:creds_apr ~document:"extravagant"
       ~content:(String.make 100_000 'z') ~check:rubber ());

  Demo.section "Summary";
  Demo.step "alice ends with %d usd; the printer printed %d pages total"
    (Ledger.balance (Accounting_server.ledger bank) ~name:"alice" ~currency:usd)
    (Print_server.pages_printed printer);
  Demo.show_metrics w [ "net.messages"; "accounting.deposits"; "crypto.rsa_verify" ];
  Demo.show_trace ~last:10 w;
  print_endline "\ncascaded_printing: delegation, narrowing, and payment all enforced."
