type t = {
  net : Sim.Net.t;
  me : Principal.t;
  my_key : string;
  granter : Granter.t;
  proxy_lifetime_us : int;
  (* Membership database: one ACL whose targets are group names and whose
     entries are the members (principals or nested groups). *)
  guard : Guard.t;
  (* Snapshot publication (Grapevine-style replication): present when the
     server can sign epoch-stamped copies of its table for replicas. *)
  signing_key : Crypto.Rsa.private_ option;
  mutable publish_epoch : int;
}

let membership_right = "member"

let create net ~me ~my_key ~kdc ?lookup_pub ?verify_cache ?signing_key
    ?(proxy_lifetime_us = 2 * 3600 * 1_000_000) () =
  match Granter.create net ~me ~my_key ~kdc with
  | Error e -> Error e
  | Ok granter ->
      let guard =
        Guard.create net ~me ~my_key ?lookup_pub ?verify_cache ~acl:(Acl.create ()) ()
      in
      Ok { net; me; my_key; granter; proxy_lifetime_us; guard; signing_key; publish_epoch = 0 }

let me t = t.me

let add_entry t ~group subject =
  Acl.add (Guard.acl t.guard) ~target:group
    { Acl.subject; rights = [ membership_right ]; restrictions = [] }

let add_member t ~group p = add_entry t ~group (Acl.Principal_is p)
let add_group_member t ~group g = add_entry t ~group (Acl.Group g)

let remove_member t ~group p =
  Acl.remove_subject (Guard.acl t.guard) ~target:group (Acl.Principal_is p)

let members t ~group =
  List.filter_map
    (fun (e : Acl.entry) ->
      match e.Acl.subject with Acl.Principal_is p -> Some p | _ -> None)
    (Acl.entries_for (Guard.acl t.guard) ~target:group)

let group_name t local = Principal.Group.make ~server:t.me local

(* The full table of direct principal members, for snapshot publication.
   Nested Group entries are deliberately not flattened: a replica speaks
   only for memberships this server can attest directly. *)
let table t =
  List.map
    (fun g -> (g, members t ~group:g))
    (List.filter (fun g -> g <> "*") (Acl.targets (Guard.acl t.guard)))

let publish t =
  match t.signing_key with
  | None -> Error "group: no signing key; snapshot publication disabled"
  | Some key ->
      t.publish_epoch <- t.publish_epoch + 1;
      Sim.Metrics.incr (Sim.Net.metrics t.net) "membership.published";
      Ok
        (Membership.sign ~key ~issuer:t.me ~epoch:t.publish_epoch
           ~issued_at:(Sim.Net.now t.net) (table t))

let handle t ctx payload =
  let open Wire in
  let* tag = Result.bind (field payload 0) to_string in
  if tag = "snapshot" then
    (* Any authenticated principal may pull the signed table: the snapshot
       is self-authenticating, so possession discloses nothing a replica
       could not already learn by asserting memberships one by one. *)
    Result.map Membership.to_wire (publish t)
  else if tag <> "assert" then Error (Printf.sprintf "group: unknown operation %S" tag)
  else
    let* group = Result.bind (field payload 1) to_string in
    let* end_server = Result.bind (field payload 2) Principal.of_wire in
    let* ew = Result.bind (field payload 3) to_list in
    let* evidence = Wire.map_all Guard.presented_of_wire ew in
    let client = ctx.Secure_rpc.rpc_client in
    (* Membership is an ordinary guard decision: a direct Principal_is
       entry, or a nested Group entry proven by the attached evidence. *)
    match
      Guard.decide t.guard ~operation:membership_right ~target:group ~presenter:client
        ~group_proxies:evidence ()
    with
    | Error e ->
        Error (Printf.sprintf "group: %s is not a member of %s (%s)"
             (Principal.to_string client) group e)
    | Ok _ ->
        let inherited =
          match Guard.restrictions_of_auth_data ctx.Secure_rpc.rpc_auth_data with
          | [] -> []
          | rs -> Restriction.propagate ~issued_for:[ end_server ] rs
        in
        let restrictions =
          Restriction.Authorized
            [ { Restriction.target = group; ops = [ "assert-membership"; membership_right ] } ]
          :: Restriction.Group_membership [ group ]
          :: Restriction.Grantee ([ client ], 1)
          :: inherited
        in
        let expires = Sim.Net.now t.net + t.proxy_lifetime_us in
        let* proxy = Granter.grant t.granter ~end_server ~expires ~restrictions in
        Sim.Trace.record (Sim.Net.trace t.net) ~time:(Sim.Net.now t.net)
          ~actor:(Principal.to_string t.me)
          (Printf.sprintf "membership proxy: %s in %s for %s" (Principal.to_string client) group
             (Principal.to_string end_server));
        Ok (Proxy.transfer_to_wire proxy)

let install t =
  Secure_rpc.serve t.net ~me:t.me ~my_key:t.my_key (fun ctx payload -> handle t ctx payload)

let request_membership_proxy net ~creds ~group ~end_server ?(evidence = []) () =
  let payload =
    Wire.L
      [ Wire.S "assert";
        Wire.S group;
        Principal.to_wire end_server;
        Wire.L (List.map Guard.presented_to_wire evidence) ]
  in
  match Secure_rpc.call net ~creds payload with
  | Error e -> Error e
  | Ok reply -> Proxy.transfer_of_wire reply

let fetch_snapshot net ~creds () =
  match Secure_rpc.call net ~creds (Wire.L [ Wire.S "snapshot" ]) with
  | Error e -> Error e
  | Ok reply -> Membership.of_wire reply
