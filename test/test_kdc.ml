(* KDC: ticket sealing, AS/TGS exchanges, additive restrictions, expiry,
   and what the adversary can and cannot do. *)

module Net = Sim.Net

let realm = "test.realm"
let p name = Principal.make ~realm name

type world = {
  net : Net.t;
  dir : Directory.t;
  kdc : Kdc.t;
  kdc_name : Principal.t;
  alice : Principal.t;
  alice_key : string;
  fileserver : Principal.t;
}

let setup ?(seed = "kdc tests") () =
  let net = Net.create ~seed () in
  let dir = Directory.create () in
  let kdc_name = p "kdc" in
  let alice = p "alice" and fileserver = p "fileserver" in
  let alice_key = Net.fresh_key net in
  Directory.add_symmetric dir kdc_name (Net.fresh_key net);
  Directory.add_symmetric dir alice alice_key;
  Directory.add_symmetric dir fileserver (Net.fresh_key net);
  let kdc = Kdc.create net ~name:kdc_name ~directory:dir () in
  Kdc.install kdc;
  { net; dir; kdc; kdc_name; alice; alice_key; fileserver }

let authenticate w ?auth_data service =
  Kdc.Client.authenticate w.net ~kdc:w.kdc_name ~client:w.alice ~client_key:w.alice_key ~service
    ?auth_data ()

let test_ticket_seal_roundtrip () =
  let w = setup () in
  let key = Net.fresh_key w.net in
  let body =
    {
      Ticket.client = w.alice;
      service = w.fileserver;
      session_key = Net.fresh_key w.net;
      auth_time = 0;
      expires = 1000;
      authorization_data = [ Wire.S "r1" ];
    }
  in
  let blob =
    Ticket.seal ~service_key:(Crypto.Aead.prepare key) ~nonce:(Net.fresh_nonce w.net) body
  in
  (match Ticket.open_ ~service_key:(Crypto.Aead.prepare key) blob with
  | Ok b ->
      Alcotest.(check bool) "client" true (Principal.equal b.Ticket.client w.alice);
      Alcotest.(check string) "session key" body.Ticket.session_key b.Ticket.session_key;
      Alcotest.(check int) "auth data" 1 (List.length b.Ticket.authorization_data)
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "wrong key" true
    (Result.is_error (Ticket.open_ ~service_key:(Crypto.Aead.prepare (Net.fresh_key w.net)) blob));
  Alcotest.(check bool) "garbage" true
    (Result.is_error (Ticket.open_ ~service_key:(Crypto.Aead.prepare key) "junk"))

let test_authenticator_roundtrip () =
  let w = setup () in
  let sk = Net.fresh_key w.net in
  let a =
    { Ticket.auth_client = w.alice; timestamp = 42; subkey = Some (Net.fresh_key w.net);
      auth_data = [ Wire.I 1 ] }
  in
  let blob =
    Ticket.seal_authenticator ~session_key:(Crypto.Aead.prepare sk) ~nonce:(Net.fresh_nonce w.net) a
  in
  (match Ticket.open_authenticator ~session_key:(Crypto.Aead.prepare sk) blob with
  | Ok a' ->
      Alcotest.(check int) "timestamp" 42 a'.Ticket.timestamp;
      Alcotest.(check bool) "subkey" true (a'.Ticket.subkey = a.Ticket.subkey)
  | Error e -> Alcotest.fail e);
  let no_sub = { a with Ticket.subkey = None } in
  let blob2 =
    Ticket.seal_authenticator ~session_key:(Crypto.Aead.prepare sk) ~nonce:(Net.fresh_nonce w.net)
      no_sub
  in
  match Ticket.open_authenticator ~session_key:(Crypto.Aead.prepare sk) blob2 with
  | Ok a' -> Alcotest.(check bool) "no subkey" true (a'.Ticket.subkey = None)
  | Error e -> Alcotest.fail e

let test_as_exchange () =
  let w = setup () in
  match authenticate w w.fileserver with
  | Error e -> Alcotest.fail e
  | Ok creds ->
      Alcotest.(check bool) "service" true (Principal.equal creds.Ticket.cred_service w.fileserver);
      Alcotest.(check bool) "expires in future" true (creds.Ticket.cred_expires > Net.now w.net);
      (* The ticket itself opens under the file server's key. *)
      let fs_key = Option.get (Directory.symmetric w.dir w.fileserver) in
      (match Ticket.open_ ~service_key:(Crypto.Aead.prepare fs_key) creds.Ticket.ticket_blob with
      | Ok body ->
          Alcotest.(check string) "session key matches" creds.Ticket.session_key
            body.Ticket.session_key;
          Alcotest.(check bool) "names client" true (Principal.equal body.Ticket.client w.alice)
      | Error e -> Alcotest.fail e);
      Alcotest.(check int) "one AS request counted" 1
        (Sim.Metrics.get (Net.metrics w.net) "kdc.as_req")

let test_as_unknown_principals () =
  let w = setup () in
  (match
     Kdc.Client.authenticate w.net ~kdc:w.kdc_name ~client:(p "mallory") ~client_key:"k"
       ~service:w.fileserver ()
   with
  | Error e -> Alcotest.(check bool) "unknown client" true (e <> "")
  | Ok _ -> Alcotest.fail "expected error");
  match authenticate w (p "no-such-service") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected error"

let test_as_restrictions_carried () =
  let w = setup () in
  let auth_data = [ Wire.L [ Wire.S "authorized"; Wire.S "read" ] ] in
  match authenticate w ~auth_data w.fileserver with
  | Error e -> Alcotest.fail e
  | Ok creds ->
      Alcotest.(check int) "client copy" 1 (List.length creds.Ticket.cred_auth_data);
      let fs_key = Option.get (Directory.symmetric w.dir w.fileserver) in
      let body =
        Result.get_ok
          (Ticket.open_ ~service_key:(Crypto.Aead.prepare fs_key) creds.Ticket.ticket_blob)
      in
      Alcotest.(check int) "in ticket" 1 (List.length body.Ticket.authorization_data)

let test_tgs_derivation () =
  let w = setup () in
  let tgt = Result.get_ok (authenticate w w.kdc_name) in
  let subkey = Net.fresh_key w.net in
  let added = [ Wire.L [ Wire.S "authorized"; Wire.S "read-only" ] ] in
  match
    Kdc.Client.derive w.net ~kdc:w.kdc_name ~tgt ~target:w.fileserver ~subkey ~auth_data:added ()
  with
  | Error e -> Alcotest.fail e
  | Ok creds ->
      Alcotest.(check bool) "for fileserver" true
        (Principal.equal creds.Ticket.cred_service w.fileserver);
      Alcotest.(check int) "restriction added" 1 (List.length creds.Ticket.cred_auth_data);
      let fs_key = Option.get (Directory.symmetric w.dir w.fileserver) in
      let body =
        Result.get_ok
          (Ticket.open_ ~service_key:(Crypto.Aead.prepare fs_key) creds.Ticket.ticket_blob)
      in
      Alcotest.(check bool) "still alice" true (Principal.equal body.Ticket.client w.alice);
      Alcotest.(check bool) "fresh session key" true
        (body.Ticket.session_key <> tgt.Ticket.session_key)

let test_tgs_restrictions_additive () =
  let w = setup () in
  (* Restrictions requested at login survive through TGS derivation. *)
  let login_restriction = [ Wire.L [ Wire.S "issued-for"; Wire.S "fileserver" ] ] in
  let tgt = Result.get_ok (authenticate w ~auth_data:login_restriction w.kdc_name) in
  let added = [ Wire.L [ Wire.S "authorized"; Wire.S "read" ] ] in
  let creds =
    Result.get_ok
      (Kdc.Client.derive w.net ~kdc:w.kdc_name ~tgt ~target:w.fileserver ~auth_data:added ())
  in
  let fs_key = Option.get (Directory.symmetric w.dir w.fileserver) in
  let body =
    Result.get_ok (Ticket.open_ ~service_key:(Crypto.Aead.prepare fs_key) creds.Ticket.ticket_blob)
  in
  Alcotest.(check int) "union of restrictions" 2 (List.length body.Ticket.authorization_data)

let test_tgs_rejects_non_tgt () =
  let w = setup () in
  let creds = Result.get_ok (authenticate w w.fileserver) in
  match Kdc.Client.derive w.net ~kdc:w.kdc_name ~tgt:creds ~target:w.fileserver () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "a service ticket must not work as a TGT"

let test_tgs_rejects_expired_tgt () =
  let w = setup () in
  let tgt = Result.get_ok (authenticate w w.kdc_name) in
  Sim.Clock.advance (Net.clock w.net) (9 * 3600 * 1_000_000);
  match Kdc.Client.derive w.net ~kdc:w.kdc_name ~tgt ~target:w.fileserver () with
  | Error e -> Alcotest.(check bool) "mentions expiry" true (e = "tgs: TGT expired")
  | Ok _ -> Alcotest.fail "expired TGT accepted"

let test_tgs_expiry_capped_by_tgt () =
  let w = setup () in
  let tgt = Result.get_ok (authenticate w w.kdc_name) in
  Sim.Clock.advance (Net.clock w.net) (7 * 3600 * 1_000_000);
  let creds =
    Result.get_ok (Kdc.Client.derive w.net ~kdc:w.kdc_name ~tgt ~target:w.fileserver ())
  in
  Alcotest.(check bool) "derived expiry never exceeds TGT's" true
    (creds.Ticket.cred_expires <= tgt.Ticket.cred_expires)

let test_reply_not_readable_by_others () =
  let w = setup () in
  (* An eavesdropper who captures the AS reply cannot extract the session
     key: parsing with the wrong client key fails. *)
  let captured = ref None in
  Net.set_tap w.net (fun ~dir ~src:_ ~dst:_ payload ->
      (match dir with `Response -> captured := Some payload | `Request -> ());
      Net.Deliver);
  ignore (authenticate w w.fileserver);
  Net.clear_tap w.net;
  match !captured with
  | None -> Alcotest.fail "no reply captured"
  | Some reply ->
      (* Replaying the whole reply bytes as mallory: decryption must fail. *)
      let open Wire in
      let v = Result.get_ok (decode reply) in
      let sealed = Result.get_ok (Result.bind (field v 2) to_string) in
      let box = Option.get (Crypto.Aead.decode sealed) in
      Alcotest.(check bool) "sealed part opaque" true
        (Crypto.Aead.open_ ~key:(Net.fresh_key w.net) ~ad:"as-rep" box = None)

let test_tampered_request_rejected () =
  let w = setup () in
  Net.set_tap w.net (fun ~dir ~src:_ ~dst:_ payload ->
      match dir with
      | `Request ->
          let b = Bytes.of_string payload in
          if Bytes.length b > 10 then
            Bytes.set b 10 (Char.chr (Char.code (Bytes.get b 10) lxor 0xff));
          Net.Replace (Bytes.to_string b)
      | `Response -> Net.Deliver);
  (match authenticate w w.fileserver with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "tampered exchange should not yield credentials");
  Net.clear_tap w.net

let test_preauth_required () =
  (* A KDC demanding pre-authentication refuses requests that do not prove
     knowledge of the client key up front. *)
  let net = Sim.Net.create ~seed:"preauth" () in
  let dir = Directory.create () in
  let kdc_name = p "kdc" in
  let alice = p "alice" and fs = p "fs" in
  let alice_key = Net.fresh_key net in
  Directory.add_symmetric dir kdc_name (Net.fresh_key net);
  Directory.add_symmetric dir alice alice_key;
  Directory.add_symmetric dir fs (Net.fresh_key net);
  let kdc = Kdc.create net ~name:kdc_name ~directory:dir ~require_preauth:true () in
  Kdc.install kdc;
  (* The genuine client pre-authenticates automatically. *)
  (match Kdc.Client.authenticate net ~kdc:kdc_name ~client:alice ~client_key:alice_key ~service:fs () with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  (* A raw AS request without the preauth field is refused. *)
  let nonce = 42 in
  let bare =
    Wire.encode
      (Wire.L
         [ Wire.S "as"; Principal.to_wire alice; Principal.to_wire fs; Wire.I nonce; Wire.L [] ])
  in
  (match Sim.Net.rpc net ~src:"mallory" ~dst:(Principal.to_string kdc_name) bare with
  | Error e -> Alcotest.fail e
  | Ok reply ->
      let open Wire in
      let v = Result.get_ok (decode reply) in
      let tag = Result.get_ok (Result.bind (field v 0) to_string) in
      Alcotest.(check string) "refused" "err" tag);
  (* A stale pre-authentication timestamp is refused. *)
  let stale_preauth =
    Crypto.Aead.encode
      (Crypto.Aead.seal ~key:alice_key ~ad:"preauth" ~nonce:(Net.fresh_nonce net)
         (Wire.encode (Wire.I (-10 * 60 * 1_000_000))))
  in
  Sim.Clock.advance (Net.clock net) (60 * 60 * 1_000_000);
  let with_stale =
    Wire.encode
      (Wire.L
         [ Wire.S "as"; Principal.to_wire alice; Principal.to_wire fs; Wire.I nonce; Wire.L [];
           Wire.S stale_preauth ])
  in
  match Sim.Net.rpc net ~src:"mallory" ~dst:(Principal.to_string kdc_name) with_stale with
  | Error e -> Alcotest.fail e
  | Ok reply ->
      let open Wire in
      let v = Result.get_ok (decode reply) in
      let tag = Result.get_ok (Result.bind (field v 0) to_string) in
      Alcotest.(check string) "stale refused" "err" tag

let test_determinism () =
  let run () =
    let w = setup ~seed:"fixed" () in
    let creds = Result.get_ok (authenticate w w.fileserver) in
    creds.Ticket.session_key
  in
  Alcotest.(check string) "same seed, same run" (run ()) (run ())

(* Property: however a chain of TGS derivations is arranged, every
   restriction added at any step is present in the final ticket. *)
let prop_derivation_monotone =
  QCheck.Test.make ~name:"TGS derivations only accumulate restrictions" ~count:20
    (QCheck.list_of_size (QCheck.Gen.int_range 0 4) (QCheck.int_range 0 1000))
    (fun steps ->
      let w = setup ~seed:("monotone" ^ String.concat "," (List.map string_of_int steps)) () in
      let tgt = ref (Result.get_ok (authenticate w w.kdc_name)) in
      List.iter
        (fun marker ->
          let added = [ Wire.L [ Wire.S "accept-once"; Wire.S (string_of_int marker) ] ] in
          tgt :=
            Result.get_ok
              (Kdc.Client.derive w.net ~kdc:w.kdc_name ~tgt:!tgt ~target:w.kdc_name
                 ~auth_data:added ()))
        steps;
      let creds =
        Result.get_ok (Kdc.Client.derive w.net ~kdc:w.kdc_name ~tgt:!tgt ~target:w.fileserver ())
      in
      let fs_key = Option.get (Directory.symmetric w.dir w.fileserver) in
      let body =
        Result.get_ok
          (Ticket.open_ ~service_key:(Crypto.Aead.prepare fs_key) creds.Ticket.ticket_blob)
      in
      List.length body.Ticket.authorization_data = List.length steps
      && List.for_all
           (fun marker ->
             List.exists
               (fun v -> v = Wire.L [ Wire.S "accept-once"; Wire.S (string_of_int marker) ])
               body.Ticket.authorization_data)
           steps)

(* Property: shrinking the ACL never grants a request that was denied. *)
let prop_guard_monotone =
  QCheck.Test.make ~name:"removing ACL entries never grants more" ~count:25
    (QCheck.pair (QCheck.int_range 1 4) (QCheck.int_range 0 3))
    (fun (entries, drop) ->
      let w = setup ~seed:(Printf.sprintf "guardmono-%d-%d" entries drop) () in
      let acl = Acl.create () in
      let people =
        List.init entries (fun i ->
            let who = p (Printf.sprintf "user%d" i) in
            Acl.add acl ~target:"obj"
              { Acl.subject = Acl.Principal_is who; rights = [ "read" ]; restrictions = [] };
            who)
      in
      let guard =
        Guard.create w.net ~me:w.fileserver
          ~my_key:(Option.get (Directory.symmetric w.dir w.fileserver))
          ~acl ()
      in
      let decisions () =
        List.map
          (fun who ->
            Result.is_ok (Guard.decide guard ~operation:"read" ~target:"obj" ~presenter:who ()))
          people
      in
      let before = decisions () in
      (* Drop up to [drop] entries. *)
      List.iteri
        (fun i who -> if i < drop then Acl.remove_subject acl ~target:"obj" (Acl.Principal_is who))
        people;
      let after = decisions () in
      List.for_all2 (fun b a -> (not a) || b) before after)

let props =
  List.map QCheck_alcotest.to_alcotest [ prop_derivation_monotone; prop_guard_monotone ]

let () =
  Alcotest.run "kdc"
    [ ( "ticket",
        [ ("seal roundtrip", `Quick, test_ticket_seal_roundtrip);
          ("authenticator roundtrip", `Quick, test_authenticator_roundtrip) ] );
      ( "as",
        [ ("exchange", `Quick, test_as_exchange);
          ("unknown principals", `Quick, test_as_unknown_principals);
          ("restrictions carried", `Quick, test_as_restrictions_carried) ] );
      ( "tgs",
        [ ("derivation", `Quick, test_tgs_derivation);
          ("restrictions additive", `Quick, test_tgs_restrictions_additive);
          ("rejects non-TGT", `Quick, test_tgs_rejects_non_tgt);
          ("rejects expired TGT", `Quick, test_tgs_rejects_expired_tgt);
          ("expiry capped", `Quick, test_tgs_expiry_capped_by_tgt) ] );
      ( "adversary",
        [ ("reply opaque to others", `Quick, test_reply_not_readable_by_others);
          ("tampered request rejected", `Quick, test_tampered_request_rejected);
          ("pre-authentication", `Quick, test_preauth_required) ] );
      ("determinism", [ ("seeded runs agree", `Quick, test_determinism) ]);
      ("properties", props) ]
