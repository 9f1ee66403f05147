(* Centralized authorization: the authorization server (Fig. 3), the group
   server (Sec. 3.3), and compound principals (Sec. 3.5).

   A build farm delegates all authorization decisions to an authorization
   server; the machine-room door trusts a group server's "operators" group;
   and firing the layoff script needs BOTH a manager and an HR
   representative to concur.

   Run with: dune exec examples/groups_and_delegation.exe *)

let () =
  Demo.section "Setup";
  let w = World.create ~seed:"groups" () in
  let carol, _ = World.enrol w "carol" in
  let dave, _ = World.enrol w "dave" in
  let hr_rep, _ = World.enrol w "hr-rep" in
  let authz_p, authz_key = World.enrol w "authz-server" in
  let groups_p, groups_key = World.enrol w "group-server" in
  let farm_p, farm_key = World.enrol w "buildfarm" in
  let door_p, door_key = World.enrol w "door" in
  let payroll_p, payroll_key = World.enrol w "payroll" in

  (* Authorization server: its database says carol may run jobs, capped at
     100 cpu-minutes (the restriction is copied into every proxy it
     grants). *)
  let db = Acl.create () in
  Acl.add db ~target:"build-job"
    {
      Acl.subject = Acl.Principal_is carol;
      rights = [ "run" ];
      restrictions = [ Restriction.Quota ("cpu-minutes", 100) ];
    };
  let authz =
    match
      Authz_server.create w.World.net ~me:authz_p ~my_key:authz_key ~kdc:w.World.kdc_name
        ~database:db ()
    with
    | Ok s -> s
    | Error e -> failwith e
  in
  Authz_server.install authz;

  (* The build farm's own ACL holds exactly one entry: trust the
     authorization server. *)
  let farm_acl = Acl.create () in
  Acl.add farm_acl ~target:"*"
    { Acl.subject = Acl.Principal_is authz_p; rights = []; restrictions = [] };
  let farm = Guard.create w.World.net ~me:farm_p ~my_key:farm_key ~acl:farm_acl () in

  (* Group server with an "operators" group; the door trusts it. *)
  let gsrv =
    match
      Group_server.create w.World.net ~me:groups_p ~my_key:groups_key ~kdc:w.World.kdc_name ()
    with
    | Ok s -> s
    | Error e -> failwith e
  in
  Group_server.install gsrv;
  Group_server.add_member gsrv ~group:"operators" dave;
  let door_acl = Acl.create () in
  Acl.add door_acl ~target:"machine-room"
    {
      Acl.subject = Acl.Group (Group_server.group_name gsrv "operators");
      rights = [ "open" ];
      restrictions = [];
    };
  let door = Guard.create w.World.net ~me:door_p ~my_key:door_key ~acl:door_acl () in

  (* Payroll requires a compound principal: manager AND hr. *)
  let payroll_acl = Acl.create () in
  Acl.add payroll_acl ~target:"layoff-script"
    {
      Acl.subject = Acl.Compound [ Acl.Principal_is carol; Acl.Principal_is hr_rep ];
      rights = [ "execute" ];
      restrictions = [];
    };
  let payroll = Guard.create w.World.net ~me:payroll_p ~my_key:payroll_key ~acl:payroll_acl () in

  Demo.section "Figure 3: carol obtains an authorization proxy and uses it at the farm";
  let tgt_c = World.login w carol in
  let creds_authz = World.credentials_for w ~tgt:tgt_c authz_p in
  let proxy =
    Demo.expect_ok "authorization server grants [run build-job only + cpu quota]"
      (Authz_server.request_authorization w.World.net ~creds:creds_authz ~end_server:farm_p
         ~target:"build-job" ~operation:"run" ())
  in
  let present op ?spend () =
    Guard.present ~proxy ~time:(Sim.Net.now w.World.net) ~server:farm_p ~operation:op
      ~target:"build-job" ?spend ()
  in
  Demo.outcome "farm accepts: run build-job (20 cpu-minutes)"
    (Guard.decide farm ~operation:"run" ~target:"build-job" ~presenter:carol
       ~proxies:[ present "run" ~spend:("cpu-minutes", 20) () ]
       ~spend:("cpu-minutes", 20) ());
  Demo.expect_err "farm refuses: 5000 cpu-minutes exceeds the copied quota"
    (Guard.decide farm ~operation:"run" ~target:"build-job" ~presenter:carol
       ~proxies:[ present "run" ~spend:("cpu-minutes", 5000) () ]
       ~spend:("cpu-minutes", 5000) ());
  Demo.expect_err "farm refuses dave (authorization server never granted him a proxy)"
    (Guard.decide farm ~operation:"run" ~target:"build-job" ~presenter:dave ());

  Demo.section "Section 3.3: dave proves group membership at the door";
  let tgt_d = World.login w dave in
  let creds_groups = World.credentials_for w ~tgt:tgt_d groups_p in
  let gproxy =
    Demo.expect_ok "group server issues a membership proxy (delegate, names dave)"
      (Group_server.request_membership_proxy w.World.net ~creds:creds_groups ~group:"operators"
         ~end_server:door_p ())
  in
  let gpresented =
    Guard.present ~proxy:gproxy ~time:(Sim.Net.now w.World.net) ~server:door_p
      ~operation:"assert-membership" ~target:"operators" ()
  in
  Demo.outcome "door opens for dave"
    (Guard.decide door ~operation:"open" ~target:"machine-room" ~presenter:dave
       ~group_proxies:[ gpresented ] ());
  Demo.expect_err "carol cannot use dave's membership proxy"
    (Guard.decide door ~operation:"open" ~target:"machine-room" ~presenter:carol
       ~group_proxies:[ gpresented ] ());

  Demo.section "Section 3.5: separation of privilege on the payroll server";
  Demo.expect_err "carol alone cannot run the layoff script"
    (Guard.decide payroll ~operation:"execute" ~target:"layoff-script" ~presenter:carol ());
  (* HR concurs by granting carol a proxy for exactly this operation. *)
  let tgt_hr = World.login w hr_rep in
  let hr_proxy =
    Demo.expect_ok "hr-rep grants a concurrence proxy"
      (Capability.mint_via_kdc w.World.net ~kdc:w.World.kdc_name ~tgt:tgt_hr ~end_server:payroll_p
         ~target:"layoff-script" ~ops:[ "execute" ] ())
  in
  let hr_presented =
    Guard.present ~proxy:hr_proxy ~time:(Sim.Net.now w.World.net) ~server:payroll_p
      ~operation:"execute" ~target:"layoff-script" ()
  in
  Demo.outcome "carol + hr concurrence executes"
    (Guard.decide payroll ~operation:"execute" ~target:"layoff-script" ~presenter:carol
       ~proxies:[ hr_presented ] ());

  Demo.section "Summary";
  Demo.show_metrics w [ "net.messages"; "kdc.as_req"; "kdc.tgs_req" ];
  Demo.show_trace ~last:10 w;
  print_endline "\ngroups_and_delegation: all three authorization styles combined on one ACL model."
