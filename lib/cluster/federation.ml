(* The cross-realm federation scenario: three realms whose KDCs share
   pairwise inter-realm keys, exercising every boundary the federation
   layer has — on one seeded network, so a same-config rerun must be
   byte-identical (metrics and trace).

   - Forged inter-realm TGTs: a ticket sealed under the B<->C key naming a
     client of realm A (or of realm B itself) must be refused by B's TGS
     with the pinned realm-mismatch error — the hole that would otherwise
     let one federated peer mint tickets for any realm's users.
   - A malformed TGS subkey is refused in-band on both sides instead of
     surfacing as an opaque decrypt failure.
   - Cascaded authorization across three realms: a grantor in realm A
     signs for an intermediate in realm C who delegates to a presenter in
     realm B; the end-server in B verifies the chain with A's and C's
     public keys resolved across the boundary (Verifier.lookup_by_realm).
   - Granter cross-realm cache recovery: after the C<->B link is rekeyed,
     the first remote derive fails, the stale cached cross-TGT is evicted
     and the full path retried once.
   - Grapevine-style membership replication: realm B's replica serves
     membership proxies from realm A's epoch-stamped signed snapshot,
     keeps serving through a partition of realm A, fails closed past the
     staleness bound, and recovers on heal with a fresh snapshot.

   Inter-realm links authenticate as nodes throughout: the replica pulls
   snapshots under its own principal, and user rights only ever cross a
   boundary inside tickets and signed proxies. *)

type config = {
  seed : string;
  members : int;  (** direct members of the replicated group *)
  staleness_bound_us : int;  (** replica staleness bound *)
}

let minute = 60_000_000

let default = { seed = "federation"; members = 3; staleness_bound_us = 10 * minute }

type outcome = {
  forged_error : string;
  stale_error : string;
  cross_tgs : int;
  replica_epoch : int;
  replica_hits : int;
  replica_stale_denials : int;
  snapshots_applied : int;
  gates : Drive.gate list;
  digest : string;
}

let parse_err reply =
  match Wire.decode reply with
  | Error e -> "undecodable reply: " ^ e
  | Ok v -> (
      match Result.bind (Wire.field v 0) Wire.to_string with
      | Ok "err" -> (
          match Result.bind (Wire.field v 1) Wire.to_string with
          | Ok m -> m
          | Error e -> "malformed error reply: " ^ e)
      | Ok _ -> "<accepted>"
      | Error e -> e)

let run cfg =
  let wa = World.create ~seed:cfg.seed ~realm:"realm-a" () in
  let net = wa.World.net in
  let wb = World.create_in net ~realm:"realm-b" () in
  let wc = World.create_in net ~realm:"realm-c" () in
  let advance us = Sim.Clock.advance (Sim.Net.clock net) us in
  Kdc.federate wa.World.kdc wb.World.kdc;
  Kdc.federate wa.World.kdc wc.World.kdc;
  (* The B<->C trust is installed with a key the scenario keeps, so it can
     play the hostile peer and forge under it. *)
  let key_bc = Sim.Net.fresh_key net in
  Kdc.add_cross_realm wb.World.kdc ~peer_realm:wc.World.realm ~key:key_bc;
  Kdc.add_cross_realm wc.World.kdc ~peer_realm:wb.World.realm ~key:key_bc;
  (* --- principals --- *)
  let members =
    Array.init cfg.members (fun i -> fst (World.enrol wa (Printf.sprintf "member-%d" i)))
  in
  let u0 = members.(0) in
  let alice, _, alice_rsa = World.enrol_pk wa "alice" in
  let gs_p, gs_key, gs_rsa = World.enrol_pk wa "groups" in
  let rep_p, rep_key = World.enrol wb "groups-replica" in
  let dana, _ = World.enrol wb "dana" in
  let bob, _, bob_rsa = World.enrol_pk wc "bob" in
  let dave, dave_key = World.enrol wc "dave" in
  (* Public keys resolve across the boundary by realm routing — the three
     directories are never merged. *)
  let routed =
    Verifier.lookup_by_realm
      [
        (wa.World.realm, Directory.public wa.World.dir);
        (wb.World.realm, Directory.public wb.World.dir);
        (wc.World.realm, Directory.public wc.World.dir);
      ]
  in
  (* --- realm A's group server and realm B's replica of it --- *)
  let gs =
    Drive.ok_or "group server"
      (Group_server.create net ~me:gs_p ~my_key:gs_key ~kdc:wa.World.kdc_name
         ~signing_key:gs_rsa ())
  in
  Group_server.install gs;
  Array.iter (fun m -> Group_server.add_member gs ~group:"eng" m) members;
  let replica =
    Drive.ok_or "replica"
      (Group_replica.create net ~me:rep_p ~my_key:rep_key ~kdc:wb.World.kdc_name ~origin:gs_p
         ~origin_pub:gs_rsa.Crypto.Rsa.pub ~staleness_bound_us:cfg.staleness_bound_us ())
  in
  Group_replica.install replica;
  (* --- the end-server in realm B --- *)
  let fs_p, fs_key = World.enrol wb "fileserver" in
  let fs2_p, fs2_key = World.enrol wb "fileserver-2" in
  let acl = Acl.create () in
  Acl.add acl ~target:"/pub/spec"
    { Acl.subject = Acl.Principal_is alice; rights = [ "read" ]; restrictions = [] };
  Acl.add acl ~target:"/eng/wiki"
    {
      Acl.subject = Acl.Group (Group_replica.group_name replica "eng");
      rights = [ "read" ];
      restrictions = [];
    };
  let fs = File_server.create net ~me:fs_p ~my_key:fs_key ~lookup_pub:routed ~acl () in
  File_server.install fs;
  File_server.put_direct fs ~path:"/pub/spec" "the spec";
  File_server.put_direct fs ~path:"/eng/wiki" "engineering wiki";
  let fs2 = File_server.create net ~me:fs2_p ~my_key:fs2_key ~acl:(Acl.create ()) () in
  File_server.install fs2;
  (* --- forged inter-realm TGTs (the tentpole hole) --- *)
  let forge ~client_realm =
    let mallory = Principal.make ~realm:client_realm "mallory" in
    let session_key = Sim.Net.fresh_key net in
    let now = Sim.Net.now net in
    let body =
      {
        Ticket.client = mallory;
        service = wb.World.kdc_name;
        session_key;
        auth_time = now;
        expires = now + World.hour;
        authorization_data = [];
      }
    in
    let blob =
      Ticket.seal ~service_key:(Crypto.Aead.prepare key_bc) ~nonce:(Sim.Net.fresh_nonce net)
        body
    in
    let auth =
      { Ticket.auth_client = mallory; timestamp = now; subkey = None; auth_data = [] }
    in
    let auth_blob =
      Ticket.seal_authenticator ~session_key:(Crypto.Aead.prepare session_key)
        ~nonce:(Sim.Net.fresh_nonce net) auth
    in
    let request =
      Wire.encode
        (Wire.L
           [ Wire.S "tgs"; Wire.S blob; Wire.S auth_blob; Principal.to_wire fs_p; Wire.I 7 ])
    in
    match Sim.Net.rpc net ~src:"mallory" ~dst:(Principal.to_string wb.World.kdc_name) request with
    | Error e -> "transport: " ^ e
    | Ok reply -> parse_err reply
  in
  (* The C<->B key may only speak for realm C's principals: forging a
     realm-A client or one of B's own users must name the mismatch. *)
  let forged_error = forge ~client_realm:wa.World.realm in
  let forged_refused =
    forged_error
    = Printf.sprintf "tgs: cross-realm TGT client realm %s does not match trusting realm %s"
        wa.World.realm wc.World.realm
  in
  let forged_local_error = forge ~client_realm:wb.World.realm in
  let forged_local_refused =
    forged_local_error
    = Printf.sprintf "tgs: cross-realm TGT client realm %s does not match trusting realm %s"
        wb.World.realm wc.World.realm
  in
  (* --- malformed TGS subkey, both sides --- *)
  let tgt_dana = World.login wb dana in
  let subkey_server_error =
    let now = Sim.Net.now net in
    let auth =
      {
        Ticket.auth_client = dana;
        timestamp = now;
        subkey = Some "short-subkey";
        auth_data = [];
      }
    in
    let auth_blob =
      Ticket.seal_authenticator ~session_key:tgt_dana.Ticket.cred_session
        ~nonce:(Sim.Net.fresh_nonce net) auth
    in
    let request =
      Wire.encode
        (Wire.L
           [
             Wire.S "tgs";
             Wire.S tgt_dana.Ticket.ticket_blob;
             Wire.S auth_blob;
             Principal.to_wire fs_p;
             Wire.I 8;
           ])
    in
    match
      Sim.Net.rpc net ~src:(Principal.to_string dana)
        ~dst:(Principal.to_string wb.World.kdc_name) request
    with
    | Error e -> "transport: " ^ e
    | Ok reply -> parse_err reply
  in
  let subkey_client_error =
    match
      Kdc.Client.derive net ~kdc:wb.World.kdc_name ~tgt:tgt_dana ~target:fs_p
        ~subkey:"short-subkey" ()
    with
    | Error e -> e
    | Ok _ -> "<accepted>"
  in
  (* --- cascaded authorization across three realms --- *)
  let cross_creds whome who ~remote ~target =
    let tgt = World.login whome who in
    let cross =
      Drive.ok_or "cross TGT"
        (Kdc.Client.derive net ~kdc:whome.World.kdc_name ~tgt ~target:remote.World.kdc_name ())
    in
    Drive.ok_or "remote derive"
      (Kdc.Client.derive net ~kdc:remote.World.kdc_name ~tgt:cross ~target ())
  in
  let cascade_ok =
    let drbg = Sim.Net.drbg net in
    let now = Sim.Net.now net in
    let to_bob =
      Proxy.grant_pk ~drbg ~now ~expires:(now + (4 * World.hour)) ~grantor:alice
        ~grantor_key:alice_rsa
        ~restrictions:
          [
            Restriction.Authorized [ { Restriction.target = "/pub/spec"; ops = [ "read" ] } ];
            Restriction.Grantee ([ bob ], 1);
          ]
        ()
    in
    let to_dana =
      Drive.ok_or "delegate"
        (Proxy.delegate_pk ~drbg ~now ~expires:(now + (4 * World.hour)) ~intermediate:bob
           ~intermediate_key:bob_rsa
           ~restrictions:[ Restriction.Grantee ([ dana ], 1) ]
           to_bob)
    in
    let dana_fs = World.credentials_for wb ~tgt:tgt_dana fs_p in
    let presented =
      File_server.attach net ~proxy:to_dana ~server:fs_p ~operation:"read" ~path:"/pub/spec"
    in
    File_server.read net ~creds:dana_fs ~proxies:[ presented ] ~path:"/pub/spec" ()
    = Ok "the spec"
  in
  (* --- granter recovery after the C<->B link is rekeyed --- *)
  let granter_retry_ok =
    let g =
      Drive.ok_or "dave granter"
        (Granter.create net ~me:dave ~my_key:dave_key ~kdc:wc.World.kdc_name)
    in
    let first = Granter.credentials_for g fs_p in
    (* Rekey the link: the cached cross-realm TGT is now sealed under a key
       B no longer holds, so the next remote derive fails until the granter
       evicts it and walks the path again. *)
    Kdc.federate wc.World.kdc wb.World.kdc;
    let second = Granter.credentials_for g fs2_p in
    Result.is_ok first && Result.is_ok second
  in
  (* --- membership replication: warm phase --- *)
  ignore (Drive.ok_or "initial refresh" (Group_replica.refresh replica));
  let member_creds =
    Array.map (fun m -> cross_creds wa m ~remote:wb ~target:rep_p) members
  in
  let assert_eng creds = Group_server.request_membership_proxy net ~creds ~group:"eng" ~end_server:fs_p () in
  let count_asserts () =
    Array.fold_left
      (fun acc creds -> if Result.is_ok (assert_eng creds) then acc + 1 else acc)
      0 member_creds
  in
  let warm_asserts = count_asserts () in
  let membership_read_ok =
    let proxy = Drive.ok_or "u0 membership" (assert_eng member_creds.(0)) in
    let u0_fs = cross_creds wa u0 ~remote:wb ~target:fs_p in
    let presented =
      Guard.present ~proxy ~time:(Sim.Net.now net) ~server:fs_p ~operation:"assert-membership"
        ~target:"eng" ()
    in
    File_server.read net ~creds:u0_fs ~group_proxies:[ presented ] ~path:"/eng/wiki" ()
    = Ok "engineering wiki"
  in
  let non_member_refused =
    let dana_rep = World.credentials_for wb ~tgt:tgt_dana rep_p in
    Result.is_error (assert_eng dana_rep)
  in
  (* --- partition realm A away from the replica --- *)
  let t0 = Sim.Net.now net in
  let heal_at = t0 + cfg.staleness_bound_us + (3 * minute) in
  Sim.Net.install_fault_plan net
    (Sim.Fault.plan ~seed:cfg.seed
       [
         Sim.Fault.partition
           ~a:[ Principal.to_string gs_p; Principal.to_string wa.World.kdc_name ]
           ~b:[ Principal.to_string rep_p ]
           ~at:t0 ~until:heal_at ();
       ]);
  let refresh_partitioned_failed = Result.is_error (Group_replica.refresh replica) in
  (* Inside the bound the replica keeps answering from its snapshot. *)
  let partitioned_asserts = count_asserts () in
  (* Past the bound it fails closed. *)
  advance (cfg.staleness_bound_us + minute);
  let stale_error =
    match assert_eng member_creds.(0) with Error e -> e | Ok _ -> "<served>"
  in
  let stale_denied = stale_error <> "<served>" && Group_replica.stale replica in
  (* --- heal: pull a fresh snapshot, service resumes --- *)
  advance (3 * minute);
  let healed_refresh_ok = Result.is_ok (Group_replica.refresh replica) in
  let healed_asserts = count_asserts () in
  Sim.Net.clear_fault_plan net;
  let m = Sim.Net.metrics net in
  let cross_tgs = Sim.Metrics.get m "kdc.tgs_cross" in
  let replica_epoch = Group_replica.epoch replica in
  let replica_stale_denials = Sim.Metrics.get m "membership.replica_stale_denials" in
  let snapshots_applied = Sim.Metrics.get m "membership.snapshots_applied" in
  {
    forged_error;
    stale_error;
    cross_tgs;
    replica_epoch;
    replica_hits = Sim.Metrics.get m "membership.replica_hits";
    replica_stale_denials;
    snapshots_applied;
    gates =
      [ ("forged foreign-client TGT refused", forged_refused);
        ("forged local-client TGT refused", forged_local_refused);
        ( "malformed subkey refused by the TGS",
          subkey_server_error = "tgs: subkey must be 32 bytes" );
        ( "malformed subkey refused by the client",
          subkey_client_error = "derive: subkey must be 32 bytes" );
        ("three-realm cascade served", cascade_ok);
        ("granter recovers from an inter-realm rekey", granter_retry_ok);
        ("cross-realm TGTs accepted", cross_tgs > 0);
        ("replica asserts every member", warm_asserts = cfg.members);
        ("group-ACL read served", membership_read_ok);
        ("non-member refused", non_member_refused);
        ("refresh across the partition fails", refresh_partitioned_failed);
        ("replica serves every member through the partition", partitioned_asserts = cfg.members);
        ("replica fails closed past its staleness bound", stale_denied);
        ( "stale denial says it is failing closed",
          Sim.Span.contains_substring ~needle:"failing closed" stale_error );
        ("refresh succeeds on heal", healed_refresh_ok);
        ("replica asserts every member after heal", healed_asserts = cfg.members);
        ("replica reaches epoch 2", replica_epoch >= 2);
        ("replica counts its stale denials", replica_stale_denials > 0);
        ("two snapshots applied", snapshots_applied >= 2) ];
    digest = Drive.digest net;
  }

let entry cfg =
  Drive.entry ~label:"federate" ~gates:(fun o -> o.gates) ~digest:(fun o -> o.digest) (fun () ->
      run cfg)

(* ------------------------------------------------------------------ *)
(* Lane-parallel variant: one realm per lane                          *)
(* ------------------------------------------------------------------ *)

(* Each lane owns a fully-isolated realm (its own net, KDC, directory,
   group server). The only thing that crosses lanes is what would cross
   realms in production: signed membership snapshots, travelling to the
   next realm in the ring and applied there to a Membership replica. Each
   lane also runs the forged-TGT probe against its own TGS. Because the
   snapshots are self-authenticating (the publisher's public key travels
   with the first message) and delivery order is canonical, the digest is
   byte-identical for any [domains]. *)

type lanes_outcome = {
  l_epochs_run : int;
  l_delivered : int;
  l_gates : (string * bool) list;
  l_digest : string;
}

type flane = {
  f_world : World.t;
  f_gs : Group_server.t;
  f_gs_p : Principal.t;
  f_gs_pub : string;  (* serialized public key, ready to ship *)
  f_members : Principal.t array;
  f_late : Principal.t;
  f_outsider : Principal.t;
  f_log : Buffer.t;
  mutable f_sub : Membership.t option;
  mutable f_forged_refused : bool;
  mutable f_applied : int;
  mutable f_fresh_total : int;
  mutable f_member_checks_ok : bool;
  mutable f_stale_denied : bool;
}

let logf st fmt = Printf.ksprintf (fun s -> Buffer.add_string st.f_log (s ^ "\n")) fmt

let forged_probe_lane st =
  (* Two fabricated peers trusted by this lane's KDC; a ticket sealed under
     peer-y's key naming a peer-x client must bounce with the realm
     mismatch. *)
  let w = st.f_world in
  let net = w.World.net in
  let key_y = Sim.Net.fresh_key net in
  Kdc.add_cross_realm w.World.kdc ~peer_realm:"peer-x" ~key:(Sim.Net.fresh_key net);
  Kdc.add_cross_realm w.World.kdc ~peer_realm:"peer-y" ~key:key_y;
  let mallory = Principal.make ~realm:"peer-x" "mallory" in
  let session_key = Sim.Net.fresh_key net in
  let now = Sim.Net.now net in
  let body =
    {
      Ticket.client = mallory;
      service = w.World.kdc_name;
      session_key;
      auth_time = now;
      expires = now + World.hour;
      authorization_data = [];
    }
  in
  let blob =
    Ticket.seal ~service_key:(Crypto.Aead.prepare key_y) ~nonce:(Sim.Net.fresh_nonce net) body
  in
  let auth = { Ticket.auth_client = mallory; timestamp = now; subkey = None; auth_data = [] } in
  let auth_blob =
    Ticket.seal_authenticator ~session_key:(Crypto.Aead.prepare session_key)
      ~nonce:(Sim.Net.fresh_nonce net) auth
  in
  let request =
    Wire.encode
      (Wire.L
         [
           Wire.S "tgs";
           Wire.S blob;
           Wire.S auth_blob;
           Principal.to_wire w.World.kdc_name;
           Wire.I 9;
         ])
  in
  let err =
    match Sim.Net.rpc net ~src:"mallory" ~dst:(Principal.to_string w.World.kdc_name) request with
    | Error e -> "transport: " ^ e
    | Ok reply -> parse_err reply
  in
  st.f_forged_refused <-
    err = "tgs: cross-realm TGT client realm peer-x does not match trusting realm peer-y";
  logf st "forged-tgt: %s" err

let snapshot_message st snap =
  Wire.encode
    (Wire.L
       [
         Principal.to_wire st.f_gs_p;
         Wire.S st.f_gs_pub;
         Membership.to_wire snap;
       ])

let apply_message st payload =
  let open Wire in
  let parsed =
    let* v = Wire.decode payload in
    let* origin = Result.bind (field v 0) Principal.of_wire in
    let* pub_bytes = Result.bind (field v 1) to_string in
    let* snap = Result.bind (field v 2) Membership.of_wire in
    Ok (origin, pub_bytes, snap)
  in
  match parsed with
  | Error e -> logf st "snapshot decode failed: %s" e
  | Ok (origin, pub_bytes, snap) -> (
      let sub =
        match st.f_sub with
        | Some sub -> sub
        | None ->
            let pub =
              match Crypto.Rsa.public_of_bytes pub_bytes with
              | Some pub -> pub
              | None -> failwith "Cluster.Federation lanes: bad public key bytes"
            in
            let sub =
              Membership.create ~issuer:origin ~issuer_pub:pub
                ~now:(Sim.Net.now st.f_world.World.net) ()
            in
            st.f_sub <- Some sub;
            sub
      in
      match Membership.apply sub snap with
      | Error e -> logf st "snapshot apply failed: %s" e
      | Ok Membership.Ignored -> logf st "snapshot ignored (epoch %d)" snap.Membership.epoch
      | Ok (Membership.Applied { fresh }) ->
          st.f_applied <- st.f_applied + 1;
          st.f_fresh_total <- st.f_fresh_total + fresh;
          (* Spot-check the replicated table against the snapshot itself,
             plus a principal that must NOT be a member. *)
          let all_in =
            List.for_all
              (fun (g, ms) -> List.for_all (fun p -> Membership.member sub ~group:g p) ms)
              snap.Membership.items
          in
          let outsider_out = not (Membership.member sub ~group:"eng" st.f_outsider) in
          st.f_member_checks_ok <- all_in && outsider_out;
          logf st "snapshot applied: epoch=%d fresh=%d checks=%b" snap.Membership.epoch fresh
            st.f_member_checks_ok)

let run_lanes ?(lanes = 3) ~domains cfg =
  if lanes < 2 then invalid_arg "Cluster.Federation.run_lanes: need at least 2 lanes";
  let states =
    Array.init lanes (fun i ->
        let w =
          World.create
            ~seed:(Sim.Lane.seed_for ~seed:cfg.seed (string_of_int i))
            ~realm:(Printf.sprintf "realm-%d" i) ()
        in
        let members =
          Array.init cfg.members (fun j ->
              fst (World.enrol w (Printf.sprintf "user-%d-%d" i j)))
        in
        let late, _ = World.enrol w (Printf.sprintf "late-%d" i) in
        let outsider, _ = World.enrol w (Printf.sprintf "outsider-%d" i) in
        let gs_p, gs_key, gs_rsa = World.enrol_pk w "groups" in
        let gs =
          Drive.ok_or "lane group server"
            (Group_server.create w.World.net ~me:gs_p ~my_key:gs_key ~kdc:w.World.kdc_name
               ~signing_key:gs_rsa ())
        in
        Group_server.install gs;
        Array.iter (fun m -> Group_server.add_member gs ~group:"eng" m) members;
        {
          f_world = w;
          f_gs = gs;
          f_gs_p = gs_p;
          f_gs_pub = Crypto.Rsa.public_to_bytes gs_rsa.Crypto.Rsa.pub;
          f_members = members;
          f_late = late;
          f_outsider = outsider;
          f_log = Buffer.create 256;
          f_sub = None;
          f_forged_refused = false;
          f_applied = 0;
          f_fresh_total = 0;
          f_member_checks_ok = false;
          f_stale_denied = false;
        })
  in
  let step ~epoch ~lane ~inbox =
    let st = states.(lane) in
    let next = (lane + 1) mod lanes in
    List.iter (fun (_src, payload) -> apply_message st payload) inbox;
    match epoch with
    | 0 ->
        forged_probe_lane st;
        let snap = Drive.ok_or "publish 1" (Group_server.publish st.f_gs) in
        [ (next, snapshot_message st snap) ]
    | 1 ->
        (* The origin's table grows; the next publication must carry
           exactly one fresh pair to the replica downstream. *)
        Group_server.add_member st.f_gs ~group:"eng" st.f_late;
        let snap = Drive.ok_or "publish 2" (Group_server.publish st.f_gs) in
        [ (next, snapshot_message st snap) ]
    | 2 ->
        (* Nothing more arrives: push the replica past its bound and pin
           the fail-closed refusal. *)
        let net = st.f_world.World.net in
        Sim.Clock.advance (Sim.Net.clock net) (Membership.default_staleness_bound_us + minute);
        (match st.f_sub with
        | None -> logf st "no replica to staleness-check"
        | Some sub -> (
            match
              Membership.check sub ~now:(Sim.Net.now net) ~group:"eng" st.f_members.(0)
            with
            | Error e ->
                st.f_stale_denied <- true;
                logf st "stale check: %s" e
            | Ok () -> logf st "stale check unexpectedly served"));
        []
    | _ -> []
  in
  let o = Sim.Lane.run ~domains ~lanes ~min_epochs:3 ~step () in
  let all f = Array.for_all f states in
  let digest =
    String.concat ""
      (List.concat
         (List.mapi
            (fun i st ->
              [ Printf.sprintf "== lane %d ==\n" i; Buffer.contents st.f_log;
                Drive.digest ~lane:i st.f_world.World.net ])
            (Array.to_list states)))
  in
  {
    l_epochs_run = o.Sim.Lane.epochs_run;
    l_delivered = o.Sim.Lane.delivered;
    l_gates =
      [
        ("forged TGT refused on every lane", all (fun st -> st.f_forged_refused));
        ("two snapshots applied per lane", all (fun st -> st.f_applied = 2));
        ( "fresh counts: full table then one growth",
          all (fun st -> st.f_fresh_total = cfg.members + 1) );
        ("replicated tables match snapshots", all (fun st -> st.f_member_checks_ok));
        ("stale replicas fail closed", all (fun st -> st.f_stale_denied));
        ("all snapshots delivered", o.Sim.Lane.delivered = 2 * lanes && o.Sim.Lane.stranded = 0);
      ];
    l_digest = digest;
  }

let lanes_entry ~domains cfg =
  Drive.entry ~label:"federate" ~gates:(fun o -> o.l_gates) ~digest:(fun o -> o.l_digest)
    ~reference:("--domains 1", fun () -> run_lanes ~domains:1 cfg)
    (fun () -> run_lanes ~domains cfg)
