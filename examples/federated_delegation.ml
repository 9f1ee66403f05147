(* Federation: TGS proxies (Section 6.3) and cross-realm authentication.

   A conventional proxy binds to one end-server. The paper's remedy is a
   proxy for the ticket-granting service itself: alice derives a restricted
   TGT and hands it to her batch daemon, which can then mint credentials
   for ANY server — every one of them carrying alice's restrictions.

   The second act crosses administrative domains: engineering.example and
   production.example share an inter-realm key, and a production file
   server's ACL names alice@engineering directly.

   Run with: dune exec examples/federated_delegation.exe *)

module R = Restriction

let () =
  Demo.section "Setup: realm ENGINEERING with two file servers";
  let w = World.create ~seed:"federation" ~realm:"engineering" () in
  let alice, _ = World.enrol w "alice" in
  let make_fs name =
    let fs_p, fs_key = World.enrol w name in
    let acl = Acl.create () in
    Acl.add acl ~target:"*" { Acl.subject = Acl.Principal_is alice; rights = []; restrictions = [] };
    let fs = File_server.create w.World.net ~me:fs_p ~my_key:fs_key ~acl () in
    File_server.install fs;
    File_server.put_direct fs ~path:"build.log" "ok ok ok";
    File_server.put_direct fs ~path:"secrets.env" "API_KEY=hunter2";
    fs_p
  in
  let fs1 = make_fs "fs-east" in
  let fs2 = make_fs "fs-west" in

  Demo.section "A TGS proxy: one grant, every server, restrictions riding along";
  let tgt = World.login w alice in
  let restricted_tgt =
    Demo.expect_ok "alice derives a TGT restricted to [read build.log]"
      (Tgs_proxy.grant w.World.net ~kdc:w.World.kdc_name ~tgt
         ~restrictions:[ R.Authorized [ { R.target = "build.log"; ops = [ "read" ] } ] ]
         ())
  in
  Demo.step "alice hands the restricted credential to her batch daemon (sealed channel)";
  List.iter
    (fun fs ->
      let creds =
        Demo.expect_ok
          (Printf.sprintf "daemon mints credentials for %s" (Principal.to_string fs))
          (Tgs_proxy.use w.World.net ~kdc:w.World.kdc_name ~proxy_tgt:restricted_tgt ~service:fs)
      in
      ignore
        (Demo.expect_ok "  reads build.log"
           (File_server.read w.World.net ~creds ~path:"build.log" ()));
      Demo.expect_err "  secrets.env refused"
        (File_server.read w.World.net ~creds ~path:"secrets.env" ());
      Demo.expect_err "  write refused"
        (File_server.write w.World.net ~creds ~path:"build.log" "defaced"))
    [ fs1; fs2 ];

  Demo.section "Cross-realm: PRODUCTION trusts ENGINEERING";
  (* Build the production realm on the same simulated network. *)
  let dir_prod = Directory.create () in
  let kdc_prod_name = Principal.make ~realm:"production" "kdc" in
  Directory.add_symmetric dir_prod kdc_prod_name (Sim.Net.fresh_key w.World.net);
  let kdc_prod = Kdc.create w.World.net ~name:kdc_prod_name ~directory:dir_prod () in
  Kdc.install kdc_prod;
  Kdc.federate kdc_prod w.World.kdc;
  Demo.step "inter-realm key installed in both KDCs";

  let prod_fs = Principal.make ~realm:"production" "fileserver" in
  let prod_fs_key = Sim.Net.fresh_key w.World.net in
  Directory.add_symmetric dir_prod prod_fs prod_fs_key;
  let acl = Acl.create () in
  Acl.add acl ~target:"deploy.log"
    { Acl.subject = Acl.Principal_is alice; rights = [ "read" ]; restrictions = [] };
  let pfs = File_server.create w.World.net ~me:prod_fs ~my_key:prod_fs_key ~acl () in
  File_server.install pfs;
  File_server.put_direct pfs ~path:"deploy.log" "deployed at dawn";
  Demo.step "production fileserver ACL names engineering/alice directly";

  let cross_tgt =
    Demo.expect_ok "alice gets a cross-realm TGT from her own KDC"
      (Kdc.Client.derive w.World.net ~kdc:w.World.kdc_name ~tgt ~target:kdc_prod_name ())
  in
  let creds =
    Demo.expect_ok "production's TGS accepts it and issues a service ticket"
      (Kdc.Client.derive w.World.net ~kdc:kdc_prod_name ~tgt:cross_tgt ~target:prod_fs ())
  in
  let content =
    Demo.expect_ok "alice@engineering reads in production"
      (File_server.read w.World.net ~creds ~path:"deploy.log" ())
  in
  Demo.step "got: %S" content;

  (* A principal from an unfederated realm has no path. *)
  let mallory_kdc = Principal.make ~realm:"mallory-land" "kdc" in
  Demo.expect_err "no trust path to an unfederated realm"
    (Kdc.Client.derive w.World.net ~kdc:w.World.kdc_name ~tgt ~target:mallory_kdc ());

  Demo.section "Summary";
  Demo.show_metrics w [ "net.messages"; "kdc.as_req"; "kdc.tgs_req" ];
  print_endline
    "\nfederated_delegation: one restricted grant spans servers and realms; unfederated realms stay out."
