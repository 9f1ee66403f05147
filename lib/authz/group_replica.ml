type t = {
  net : Sim.Net.t;
  me : Principal.t;
  my_key : string;
  granter : Granter.t;
  origin : Principal.t;
  replica : Membership.t;
}

let proxy_lifetime_us = 2 * 3600 * 1_000_000

let create net ~me ~my_key ~kdc ~origin ~origin_pub ?staleness_bound_us () =
  match Granter.create net ~me ~my_key ~kdc with
  | Error e -> Error e
  | Ok granter ->
      Ok
        {
          net;
          me;
          my_key;
          granter;
          origin;
          replica =
            Membership.create ~issuer:origin ~issuer_pub:origin_pub ?staleness_bound_us
              ~now:(Sim.Net.now net) ();
        }

let epoch t = Membership.epoch t.replica
let stale t = Membership.stale t.replica ~now:(Sim.Net.now t.net)

let metrics_incr t name = Sim.Metrics.incr (Sim.Net.metrics t.net) name

let apply_snapshot t s =
  match Membership.apply t.replica s with
  | Error _ as e -> e
  | Ok r ->
      (match r with
      | Membership.Applied { fresh } ->
          metrics_incr t "membership.snapshots_applied";
          Sim.Trace.record (Sim.Net.trace t.net) ~time:(Sim.Net.now t.net)
            ~actor:(Principal.to_string t.me)
            (Printf.sprintf "membership snapshot applied: origin=%s epoch=%d fresh=%d"
               (Principal.to_string t.origin) s.Membership.epoch fresh)
      | Membership.Ignored -> ());
      Ok r

(* Pull a fresh snapshot from the origin group server. The walk is the
   ordinary cross-realm TGS path under the replica's OWN node identity —
   the origin realm never sees a forwarded end-user claim. *)
let refresh t =
  match Granter.credentials_for t.granter t.origin with
  | Error e -> Error e
  | Ok creds -> (
      match Group_server.fetch_snapshot t.net ~creds () with
      | Error e -> Error e
      | Ok s -> apply_snapshot t s)

let handle t ctx payload =
  let open Wire in
  let* group, end_server =
    match payload with
    | L [ S "assert"; S group; end_server; L _evidence ] ->
        Result.map (fun e -> (group, e)) (Principal.of_wire end_server)
    | L (S "assert" :: _) -> Error "group-replica: malformed assert request"
    | L (S tag :: _) -> Error (Printf.sprintf "group-replica: unknown operation %S" tag)
    | _ -> Error "group-replica: malformed request"
  in
  let client = ctx.Secure_rpc.rpc_client in
  let now = Sim.Net.now t.net in
  (* Membership is decided from the replicated table alone — nested-group
     evidence would need the origin's full database, which a replica does
     not hold. Fail closed when the snapshot is past its bound. *)
  match Membership.check t.replica ~now ~group client with
  | Error e ->
      metrics_incr t
        (if Membership.stale t.replica ~now then "membership.replica_stale_denials"
         else "membership.replica_denials");
      Error (Printf.sprintf "group-replica: %s" e)
  | Ok () ->
      metrics_incr t "membership.replica_hits";
      let inherited =
        match Guard.restrictions_of_auth_data ctx.Secure_rpc.rpc_auth_data with
        | [] -> []
        | rs -> Restriction.propagate ~issued_for:[ end_server ] rs
      in
      (* The proxy names the group under the REPLICA's identity: servers
         in this realm list [replica$group] on their ACLs, trusting their
         local replica rather than a foreign grantor (node identity). *)
      let restrictions =
        Restriction.membership ~group ~member:client @ inherited
      in
      let expires = Sim.Net.now t.net + proxy_lifetime_us in
      let* proxy = Granter.grant t.granter ~end_server ~expires ~restrictions in
      Sim.Trace.record (Sim.Net.trace t.net) ~time:(Sim.Net.now t.net)
        ~actor:(Principal.to_string t.me)
        (Printf.sprintf "replica membership proxy: %s in %s for %s (epoch %d)"
           (Principal.to_string client) group
           (Principal.to_string end_server)
           (Membership.epoch t.replica));
      Ok (Proxy.transfer_to_wire proxy)

let install t = Secure_rpc.serve t.net ~me:t.me ~my_key:t.my_key (handle t)

let group_name t local = Principal.Group.make ~server:t.me local
