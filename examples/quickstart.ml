(* Quickstart: restricted proxies as capabilities.

   Alice owns a file on a file server. She mints a read capability — a
   bearer proxy restricted to (report.txt, read) — and hands it to Bob, who
   has no rights of his own. Bob reads the file. An eavesdropper who watched
   every message learns nothing it can reuse, and revoking Alice's entry in
   the ACL kills the capability.

   Run with: dune exec examples/quickstart.exe *)

let () =
  Demo.section "Setup: a realm with a KDC, a file server, and two users";
  let w = World.create ~seed:"quickstart" () in
  let alice, _ = World.enrol w "alice" in
  let bob, _ = World.enrol w "bob" in
  let fs_name, fs_key = World.enrol w "fileserver" in
  let acl = Acl.create () in
  Acl.add acl ~target:"report.txt"
    { Acl.subject = Acl.Principal_is alice; rights = []; restrictions = [] };
  let fs = File_server.create w.World.net ~me:fs_name ~my_key:fs_key ~acl () in
  File_server.install fs;
  File_server.put_direct fs ~path:"report.txt" "quarterly numbers: all fine";
  Demo.step "file server ACL: only %s may touch report.txt" (Principal.to_string alice);

  Demo.section "Alice reads her own file (plain Kerberos-authenticated RPC)";
  let tgt_a = World.login w alice in
  let creds_a = World.credentials_for w ~tgt:tgt_a fs_name in
  let content =
    Demo.expect_ok "alice reads report.txt"
      (File_server.read w.World.net ~creds:creds_a ~path:"report.txt" ())
  in
  Demo.step "content: %S" content;

  Demo.section "Bob alone is refused";
  let tgt_b = World.login w bob in
  let creds_b = World.credentials_for w ~tgt:tgt_b fs_name in
  Demo.expect_err "bob reads without a capability"
    (File_server.read w.World.net ~creds:creds_b ~path:"report.txt" ());

  Demo.section "Alice mints a read capability and passes it to Bob";
  let cap =
    Demo.expect_ok "mint capability (restricted bearer proxy)"
      (Capability.mint_via_kdc w.World.net ~kdc:w.World.kdc_name ~tgt:tgt_a ~end_server:fs_name
         ~target:"report.txt" ~ops:[ "read" ] ())
  in
  Demo.step "the capability's certificate chain crosses the network; its proxy key never does";
  let via_cap =
    Demo.expect_ok "bob reads with the capability"
      (File_server.read w.World.net ~creds:creds_b ~proxies:[ cap ] ~path:"report.txt" ())
  in
  Demo.step "bob got: %S" via_cap;
  Demo.expect_err "bob tries to WRITE with the read capability"
    (File_server.write w.World.net ~creds:creds_b ~proxies:[ cap ] ~path:"report.txt" "defaced");

  Demo.section "An eavesdropper captures a presentation and replays it for another operation";
  (* The capture is the capability bob presented: its restrictions permit
     only reads of report.txt, and the request's authenticator covers the
     operation and path, so it cannot be re-purposed. *)
  Demo.expect_err "mallory replays the capture to delete the file"
    (File_server.write w.World.net ~creds:creds_b ~proxies:[ cap ] ~path:"report.txt" "");

  Demo.section "Revocation: removing the grantor revokes every capability she issued";
  Acl.remove_subject (File_server.acl fs) ~target:"report.txt" (Acl.Principal_is alice);
  Demo.expect_err "bob's capability after revocation"
    (File_server.read w.World.net ~creds:creds_b ~proxies:[ cap ] ~path:"report.txt" ());

  Demo.section "Summary";
  Demo.show_metrics w [ "net.messages"; "net.bytes"; "kdc.as_req"; "kdc.tgs_req" ];
  Demo.show_trace w;
  print_endline "\nquickstart: all scenario steps behaved as the paper prescribes."
