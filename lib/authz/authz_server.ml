type t = {
  net : Sim.Net.t;
  me : Principal.t;
  my_key : string;
  guard : Guard.t; (* decision engine over the database *)
  granter : Granter.t;
}

let proxy_lifetime_us = 2 * 3600 * 1_000_000

let create net ~me ~my_key ~kdc ~database ?lookup_pub () =
  match Granter.create net ~me ~my_key ~kdc with
  | Error e -> Error e
  | Ok granter ->
      let guard = Guard.create net ~me ~my_key ?lookup_pub ~acl:database () in
      Ok { net; me; my_key; guard; granter }

let handle t ctx payload =
  let open Wire in
  let* end_server, target, operation, delegate, evidence =
    match payload with
    | L [ S "authorize"; end_server; S target; S operation; I delegate; L ew ] ->
        let* end_server = Principal.of_wire end_server in
        let* evidence = map_all (Guard.decode_presented t.guard) ew in
        Ok (end_server, target, operation, delegate, evidence)
    | L (S "authorize" :: _) -> Error "authz: malformed authorize request"
    | L (S tag :: _) -> Error (Printf.sprintf "authz: unknown operation %S" tag)
    | _ -> Error "authz: malformed request"
  in
  let client = ctx.Secure_rpc.rpc_client in
  match
    Guard.decide t.guard ~operation ~target ~presenter:client
      ~ticket:ctx.Secure_rpc.rpc_ticket ~group_proxies:evidence ()
  with
  | Error e ->
      Error
        (Printf.sprintf "authz: %s is not authorized for %s on %S (%s)"
           (Principal.to_string client) operation target e)
  | Ok decision ->
      (* Restrictions already attached to the client's credentials
         propagate into the issued proxy (Section 7.9), scoped to the
         end-server it is being issued for. *)
      let inherited =
        match Guard.restrictions_of_auth_data ctx.Secure_rpc.rpc_auth_data with
        | [] -> []
        | rs -> Restriction.propagate ~issued_for:[ end_server ] rs
      in
      (* The matched entry's restrictions are copied into the proxy (3.5). *)
      let restrictions =
        Restriction.Authorized [ { Restriction.target; ops = [ operation ] } ]
        :: (decision.Guard.granted_by.Acl.restrictions @ inherited)
      in
      let restrictions =
        if delegate <> 0 then Restriction.Grantee ([ client ], 1) :: restrictions
        else restrictions
      in
      let expires = Sim.Net.now t.net + proxy_lifetime_us in
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

let install t = Secure_rpc.serve t.net ~me:t.me ~my_key:t.my_key (handle t)

let request_authorization net ~creds ~end_server ~target ~operation ?(delegate = false)
    ?(evidence = []) () =
  let payload =
    Wire.L
      [ Wire.S "authorize";
        Principal.to_wire end_server;
        Wire.S target;
        Wire.S operation;
        Wire.I (if delegate then 1 else 0);
        Guard.presentations ~creds evidence ]
  in
  Result.bind (Secure_rpc.call net ~creds payload) Proxy.transfer_of_wire
