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
    { Acl.subject; rights = [ Restriction.membership_right ]; restrictions = [] }

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

let assert_membership t ctx ~group ~end_server ~evidence =
  let ( let* ) = Result.bind in
  let client = ctx.Secure_rpc.rpc_client in
  (* Membership is an ordinary guard decision: a direct Principal_is
     entry, or a nested Group entry proven by the attached evidence. *)
  match
    Guard.decide t.guard ~operation:Restriction.membership_right ~target:group ~presenter:client
      ~ticket:ctx.Secure_rpc.rpc_ticket ~group_proxies:evidence ()
  with
  | Error e ->
      Error
        (Printf.sprintf "group: %s is not a member of %s (%s)" (Principal.to_string client)
           group e)
  | Ok _ ->
      let inherited =
        match Guard.restrictions_of_auth_data ctx.Secure_rpc.rpc_auth_data with
        | [] -> []
        | rs -> Restriction.propagate ~issued_for:[ end_server ] rs
      in
      let restrictions =
        Restriction.membership ~group ~member:client @ inherited
      in
      let expires = Sim.Net.now t.net + t.proxy_lifetime_us in
      let* proxy = Granter.grant t.granter ~end_server ~expires ~restrictions in
      Sim.Trace.record (Sim.Net.trace t.net) ~time:(Sim.Net.now t.net)
        ~actor:(Principal.to_string t.me)
        (Printf.sprintf "membership proxy: %s in %s for %s" (Principal.to_string client) group
           (Principal.to_string end_server));
      Ok (Proxy.transfer_to_wire proxy)

let handle t ctx payload =
  let open Wire in
  match payload with
  | L [ S "snapshot" ] ->
      (* Any authenticated principal may pull the signed table: the
         snapshot is self-authenticating, so possession discloses nothing
         a replica could not already learn by asserting memberships one by
         one. *)
      Result.map Membership.to_wire (publish t)
  | L [ S "assert"; S group; end_server; L ew ] ->
      let* end_server = Principal.of_wire end_server in
      let* evidence = map_all (Guard.decode_presented t.guard) ew in
      assert_membership t ctx ~group ~end_server ~evidence
  | L (S (("snapshot" | "assert") as tag) :: _) ->
      Error (Printf.sprintf "group: malformed %s request" tag)
  | L (S tag :: _) -> Error (Printf.sprintf "group: unknown operation %S" tag)
  | _ -> Error "group: malformed request"

let install t = Secure_rpc.serve t.net ~me:t.me ~my_key:t.my_key (handle t)

let request_membership_proxy net ~creds ~group ~end_server ?(evidence = []) () =
  let payload =
    Wire.L
      [ Wire.S "assert";
        Wire.S group;
        Principal.to_wire end_server;
        Guard.presentations ~creds evidence ]
  in
  Result.bind (Secure_rpc.call net ~creds payload) Proxy.transfer_of_wire

let fetch_snapshot net ~creds () =
  Result.bind (Secure_rpc.call net ~creds (Wire.L [ Wire.S "snapshot" ])) Membership.of_wire
