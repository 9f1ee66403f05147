(* Nested groups across group servers, and group-backed authorization-server
   databases (Sections 3.2/3.3: group names appear anywhere a principal
   might, including on other group servers and in authz databases). *)

module W = Testkit

type nested_world = {
  w : W.world;
  alice : Principal.t;
  bob : Principal.t;
  eng : Group_server.t; (* maintains "engineers" *)
  eng_name : Principal.t;
  site : Group_server.t; (* maintains "badge-holders" ⊇ engineers@eng *)
  site_name : Principal.t;
  door : Guard.t;
  door_name : Principal.t;
}

let nested_world () =
  let w = W.create ~seed:"nested groups" () in
  let alice, _ = W.enrol w "alice" in
  let bob, _ = W.enrol w "bob" in
  let eng_p, eng_key = W.enrol w "eng-groups" in
  let site_p, site_key = W.enrol w "site-groups" in
  let door_p, door_key = W.enrol w "door" in
  let eng =
    Result.get_ok (Group_server.create w.W.net ~me:eng_p ~my_key:eng_key ~kdc:w.W.kdc_name ())
  in
  Group_server.install eng;
  Group_server.add_member eng ~group:"engineers" alice;
  let site =
    Result.get_ok (Group_server.create w.W.net ~me:site_p ~my_key:site_key ~kdc:w.W.kdc_name ())
  in
  Group_server.install site;
  (* badge-holders contains the engineers group from the OTHER server. *)
  Group_server.add_group_member site ~group:"badge-holders"
    (Group_server.group_name eng "engineers");
  let acl = Acl.create () in
  Acl.add acl ~target:"gate"
    {
      Acl.subject = Acl.Group (Group_server.group_name site "badge-holders");
      rights = [ "open" ];
      restrictions = [];
    };
  let door = Guard.create w.W.net ~me:door_p ~my_key:door_key ~acl () in
  { w; alice; bob; eng; eng_name = eng_p; site; site_name = site_p; door; door_name = door_p }

(* Alice's full path: prove engineers@eng to the site server, get a
   badge-holders proxy, open the door. *)
let alice_badge nw =
  let tgt = W.login nw.w nw.alice in
  let creds_eng = W.credentials_for nw.w ~tgt nw.eng_name in
  (* Evidence proxy: membership of engineers, presented AT the site group
     server. *)
  let eng_proxy =
    Result.get_ok
      (Group_server.request_membership_proxy nw.w.W.net ~creds:creds_eng ~group:"engineers"
         ~end_server:nw.site_name ())
  in
    let creds_site = W.credentials_for nw.w ~tgt nw.site_name in
  Group_server.request_membership_proxy nw.w.W.net ~creds:creds_site ~group:"badge-holders"
    ~end_server:nw.door_name ~evidence:[ eng_proxy ] ()

let test_nested_membership () =
  let nw = nested_world () in
  match alice_badge nw with
  | Error e -> Alcotest.fail e
  | Ok badge -> (
      let presented = Guard.bind ~server:nw.door_name ~ticket:W.ticket badge in
      match
        Guard.decide nw.door ~ticket:W.ticket ~operation:"open" ~target:"gate" ~presenter:nw.alice
          ~group_proxies:[ presented ] ()
      with
      | Ok d -> Alcotest.(check int) "one group used" 1 (List.length d.Guard.via_groups)
      | Error e -> Alcotest.fail e)

let test_nested_requires_evidence () =
  let nw = nested_world () in
  let tgt = W.login nw.w nw.alice in
  let creds_site = W.credentials_for nw.w ~tgt nw.site_name in
  (* Without the engineers proxy, the site server must refuse — alice is
     not a direct member. *)
  match
    Group_server.request_membership_proxy nw.w.W.net ~creds:creds_site ~group:"badge-holders"
      ~end_server:nw.door_name ()
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "nested membership granted without evidence"

let test_nested_nonmember_refused () =
  let nw = nested_world () in
  let tgt = W.login nw.w nw.bob in
  (* Bob is not an engineer, so he cannot even get the evidence proxy. *)
  let creds_eng = W.credentials_for nw.w ~tgt nw.eng_name in
  (match
     Group_server.request_membership_proxy nw.w.W.net ~creds:creds_eng ~group:"engineers"
       ~end_server:nw.site_name ()
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bob is not an engineer");
  (* And alice's evidence proxy does not help bob: it names alice as
     grantee. *)
  let tgt_a = W.login nw.w nw.alice in
  let creds_eng_a = W.credentials_for nw.w ~tgt:tgt_a nw.eng_name in
  let eng_proxy =
    Result.get_ok
      (Group_server.request_membership_proxy nw.w.W.net ~creds:creds_eng_a ~group:"engineers"
         ~end_server:nw.site_name ())
  in
    let creds_site_b = W.credentials_for nw.w ~tgt nw.site_name in
  match
    Group_server.request_membership_proxy nw.w.W.net ~creds:creds_site_b ~group:"badge-holders"
      ~end_server:nw.door_name ~evidence:[ eng_proxy ] ()
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bob rode alice's evidence"

(* --- authz server with a group-backed database --- *)

let test_authz_with_group_entry () =
  let w = W.create ~seed:"authz groups" () in
  let alice, _ = W.enrol w "alice" in
  let mallory, _ = W.enrol w "mallory" in
  let groups_p, groups_key = W.enrol w "groups" in
  let authz_p, authz_key = W.enrol w "authz" in
  let app_p, app_key = W.enrol w "app" in
  let gsrv =
    Result.get_ok (Group_server.create w.W.net ~me:groups_p ~my_key:groups_key ~kdc:w.W.kdc_name ())
  in
  Group_server.install gsrv;
  Group_server.add_member gsrv ~group:"operators" alice;
  (* The authz database authorizes the WHOLE group, not individuals. *)
  let db = Acl.create () in
  Acl.add db ~target:"reactor"
    {
      Acl.subject = Acl.Group (Group_server.group_name gsrv "operators");
      rights = [ "scram" ];
      restrictions = [];
    };
  let authz =
    Result.get_ok
      (Authz_server.create w.W.net ~me:authz_p ~my_key:authz_key ~kdc:w.W.kdc_name ~database:db
         ())
  in
  Authz_server.install authz;
  let acl = Acl.create () in
  Acl.add acl
      ~target:"*" { Acl.subject = Acl.Principal_is authz_p; rights = []; restrictions = [] };
  let app_guard = Guard.create w.W.net ~me:app_p ~my_key:app_key ~acl () in
  (* Alice: group proxy (for the AUTHZ server) -> authorization proxy (for
     the app). *)
  let tgt = W.login w alice in
  let creds_g = W.credentials_for w ~tgt groups_p in
  let gproxy =
    Result.get_ok
      (Group_server.request_membership_proxy w.W.net ~creds:creds_g ~group:"operators"
         ~end_server:authz_p ())
  in
    let creds_a = W.credentials_for w ~tgt authz_p in
  let proxy =
    match
      Authz_server.request_authorization w.W.net ~creds:creds_a ~end_server:app_p
        ~target:"reactor" ~operation:"scram" ~evidence:[ gproxy ] ()
    with
    | Ok p -> p
    | Error e -> Alcotest.fail e
  in
  let presented = Guard.bind ~server:app_p ~ticket:W.ticket proxy in
  (match
     Guard.decide app_guard ~ticket:W.ticket ~operation:"scram" ~target:"reactor" ~presenter:alice
       ~proxies:[ presented ] ()
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  (* Without evidence the authz server refuses. *)
  (match
     Authz_server.request_authorization w.W.net ~creds:creds_a ~end_server:app_p
       ~target:"reactor" ~operation:"scram" ()
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "authorized without membership evidence");
  (* Mallory has no group proxy at all. *)
  let tgt_m = W.login w mallory in
  let creds_m = W.credentials_for w ~tgt:tgt_m authz_p in
  match
    Authz_server.request_authorization w.W.net ~creds:creds_m ~end_server:app_p
      ~target:"reactor" ~operation:"scram" ()
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "mallory authorized"

let () =
  Alcotest.run "groups-nested"
    [ ( "nested",
        [ ("membership via remote group", `Quick, test_nested_membership);
          ("evidence required", `Quick, test_nested_requires_evidence);
          ("non-member refused", `Quick, test_nested_nonmember_refused) ] );
      ("authz+groups", [ ("group-backed database", `Quick, test_authz_with_group_entry) ]) ]
