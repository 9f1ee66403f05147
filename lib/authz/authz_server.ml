type t = {
  net : Sim.Net.t;
  me : Principal.t;
  my_key : string;
  database : Acl.t;
  guard : Guard.t; (* decision engine over [database] *)
  granter : Granter.t;
  proxy_lifetime_us : int;
}

let create net ~me ~my_key ~kdc ~database ?lookup_pub
    ?(proxy_lifetime_us = 2 * 3600 * 1_000_000) () =
  match Granter.create net ~me ~my_key ~kdc with
  | Error e -> Error e
  | Ok granter ->
      let guard = Guard.create net ~me ~my_key ?lookup_pub ~acl:database () in
      Ok { net; me; my_key; database; guard; granter; proxy_lifetime_us }

let handle t ctx payload =
  let open Wire in
  let* tag = Result.bind (field payload 0) to_string in
  if tag <> "authorize" then Error (Printf.sprintf "authz: unknown operation %S" tag)
  else
    let* end_server = Result.bind (field payload 1) Principal.of_wire in
    let* target = Result.bind (field payload 2) to_string in
    let* operation = Result.bind (field payload 3) to_string in
    let* delegate = Result.bind (field payload 4) to_int in
    let* ew = Result.bind (field payload 5) to_list in
    let* evidence = Wire.map_all Guard.presented_of_wire ew in
    let client = ctx.Secure_rpc.rpc_client in
    match
      Guard.decide t.guard ~operation ~target ~presenter:client ~group_proxies:evidence ()
    with
    | Error e ->
        Error
          (Printf.sprintf "authz: %s is not authorized for %s on %S (%s)"
             (Principal.to_string client) operation target e)
    | Ok decision ->
        (* Copy the matched entry's restrictions into the proxy (3.5). *)
        let entry_restrictions =
          match
            List.find_opt
              (fun (e : Acl.entry) -> Acl.subject_equal e.Acl.subject decision.Guard.granted_by)
              (Acl.entries_for t.database ~target)
          with
          | Some entry -> entry.Acl.restrictions
          | None -> []
        in
        (* Restrictions already attached to the client's credentials
           propagate into the issued proxy (Section 7.9), scoped to the
           end-server it is being issued for. *)
        let inherited =
          match Guard.restrictions_of_auth_data ctx.Secure_rpc.rpc_auth_data with
          | [] -> []
          | rs -> Restriction.propagate ~issued_for:[ end_server ] rs
        in
        let restrictions =
          Restriction.Authorized [ { Restriction.target; ops = [ operation ] } ]
          :: (entry_restrictions @ inherited)
        in
        let restrictions =
          if delegate <> 0 then Restriction.Grantee ([ client ], 1) :: restrictions
          else restrictions
        in
        let expires = Sim.Net.now t.net + t.proxy_lifetime_us in
        let* proxy = Granter.grant t.granter ~end_server ~expires ~restrictions in
        Sim.Trace.record (Sim.Net.trace t.net) ~time:(Sim.Net.now t.net)
          ~actor:(Principal.to_string t.me)
          (Printf.sprintf "authorized %s: %s on %S at %s%s" (Principal.to_string client)
             operation target
             (Principal.to_string end_server)
             (match decision.Guard.via_groups with
             | [] -> ""
             | gs ->
                 " via " ^ String.concat "," (List.map Principal.Group.to_string gs)));
        (* The transfer includes the proxy key; the secure-RPC response seal
           protects it in transit (Figure 3's {K_proxy}K_session). *)
        Ok (Proxy.transfer_to_wire proxy)

let install t =
  Secure_rpc.serve t.net ~me:t.me ~my_key:t.my_key (fun ctx payload -> handle t ctx payload)

let request_authorization net ~creds ~end_server ~target ~operation ?(delegate = false)
    ?(evidence = []) () =
  let payload =
    Wire.L
      [ Wire.S "authorize";
        Principal.to_wire end_server;
        Wire.S target;
        Wire.S operation;
        Wire.I (if delegate then 1 else 0);
        Wire.L (List.map Guard.presented_to_wire evidence) ]
  in
  match Secure_rpc.call net ~creds payload with
  | Error e -> Error e
  | Ok reply -> Proxy.transfer_of_wire reply
