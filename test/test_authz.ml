(* Integration tests for the authorization stack: secure RPC, the end-server
   guard, capabilities, the authorization server (Fig. 3), the group server
   (Sec. 3.3), compound principals, and revocation (Sec. 3.1). *)

module R = Restriction
module W = Testkit

let world () = W.create ~seed:"authz tests" ()

(* --- secure rpc --- *)

let test_secure_rpc_roundtrip () =
  let w = world () in
  let alice, _ = W.enrol w "alice" in
  let echo, echo_key = W.enrol w "echo" in
  Secure_rpc.serve w.W.net ~me:echo ~my_key:echo_key (fun ctx payload ->
      Ok (Wire.L [ Principal.to_wire ctx.Secure_rpc.rpc_client; payload ]));
  let tgt = W.login w alice in
  let creds = W.credentials_for w ~tgt echo in
  match Secure_rpc.call w.W.net ~creds (Wire.S "ping") with
  | Error e -> Alcotest.fail e
  | Ok reply ->
      let client = Result.get_ok (Result.bind (Wire.field reply 0) Principal.of_wire) in
      Alcotest.(check bool) "server saw alice" true (Principal.equal client alice);
      Alcotest.(check (result string string)) "payload echoed" (Ok "ping")
        (Result.bind (Wire.field reply 1) Wire.to_string)

let kernel_cost f =
  let before = Crypto.Cost.read () in
  f ();
  let c = Crypto.Cost.diff ~before ~after:(Crypto.Cost.read ()) in
  [ c.Crypto.Cost.sha256_compressions; c.chacha20_blocks; c.drbg_draws; c.rsa_sign;
    c.rsa_verify; c.rsa_keygen ]

(* Exact kernel cost of a call, credentials in hand and server up. In
   the first call the client seals an authenticator and opens the reply;
   the server opens the ticket, prepares its session key (8
   compressions), opens the authenticator, digests it for the response
   cache and seals the reply. The server keeps the opened ticket and the
   prepared key, so every later call skips the ticket open and the
   preparation. Seal nonces are counted per net, so no call draws from a
   DRBG; drawing its two nonces would cost 2 draws and 20 compressions
   more. *)
let test_secure_rpc_warm_cost () =
  let w = world () in
  let alice, _ = W.enrol w "alice" in
  let echo, echo_key = W.enrol w "echo" in
  Secure_rpc.serve w.W.net ~me:echo ~my_key:echo_key (fun _ payload -> Ok payload);
  let creds = W.credentials_for w ~tgt:(W.login w alice) echo in
  let call () =
    match Secure_rpc.call w.W.net ~creds (Wire.S "ping") with
    | Ok _ -> ()
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check (list int)) "cold: compressions, blocks, draws, rsa" [ 26; 6; 0; 0; 0; 0 ]
    (kernel_cost call);
  Alcotest.(check (list int)) "warm: compressions, blocks, draws, rsa" [ 14; 4; 0; 0; 0; 0 ]
    (kernel_cost call);
  Alcotest.(check int) "the warm call's ticket came from the table" 1
    (Sim.Metrics.get (Sim.Net.metrics w.W.net) "ticket_cache.hits")

(* The ticket table answers only the exact bytes it opened, and only until
   the ticket expires: after a hit, a blob with one byte flipped, and then
   the remembered ticket past its expiry, are refused with the strings an
   unremembered ticket gets, before the handler runs. *)
let test_secure_rpc_ticket_table_refusals () =
  let w = world () in
  let alice, _ = W.enrol w "alice" in
  let echo, echo_key = W.enrol w "echo" in
  let runs = ref 0 in
  Secure_rpc.serve w.W.net ~me:echo ~my_key:echo_key (fun _ payload ->
      incr runs;
      Ok payload);
  let creds = W.credentials_for w ~tgt:(W.login w alice) echo in
  let call creds = Secure_rpc.call w.W.net ~creds (Wire.S "ping") in
  let refused label want creds =
    match call creds with
    | Ok _ -> Alcotest.failf "%s: accepted" label
    | Error e -> Alcotest.(check string) label want e
  in
  Alcotest.(check bool) "cold call" true (Result.is_ok (call creds));
  Alcotest.(check bool) "warm call" true (Result.is_ok (call creds));
  Alcotest.(check int) "one table hit" 1
    (Sim.Metrics.get (Sim.Net.metrics w.W.net) "ticket_cache.hits");
  let blob = Bytes.of_string creds.Ticket.ticket_blob in
  let last = Bytes.length blob - 1 in
  Bytes.set blob last (Char.chr (Char.code (Bytes.get blob last) lxor 1));
  refused "one byte flipped" "ticket: seal verification failed"
    { creds with Ticket.ticket_blob = Bytes.to_string blob };
  Sim.Clock.advance (Sim.Net.clock w.W.net) (creds.Ticket.cred_expires - W.now w);
  refused "remembered ticket past its expiry" "ticket expired" creds;
  Alcotest.(check int) "the handler ran for the two good calls only" 2 !runs

(* One logical service registered on two nodes, the first of them down:
   the call moves along [via] to the second, and that one move is counted
   once and reported once. *)
let test_secure_rpc_via_failover () =
  let w = world () in
  let alice, _ = W.enrol w "alice" in
  let svc, svc_key = W.enrol w "replicated" in
  List.iter
    (fun node ->
      Secure_rpc.serve w.W.net ~me:svc ~my_key:svc_key ~node (fun _ _ -> Ok (Wire.S node)))
    [ "replica-a"; "replica-b" ];
  let tgt = W.login w alice in
  let creds = W.credentials_for w ~tgt svc in
  Sim.Net.set_down w.W.net ~name:"replica-a";
  let moves = ref [] in
  let on_failover ~from_ ~to_ = moves := (from_, to_) :: !moves in
  (match
     Secure_rpc.call w.W.net ~creds ~via:[ "replica-a"; "replica-b" ] ~on_failover
       (Wire.S "ping")
   with
  | Ok reply ->
      Alcotest.(check (result string string)) "answered by the second replica"
        (Ok "replica-b") (Wire.to_string reply)
  | Error e -> Alcotest.fail e);
  Alcotest.(check int) "one failover counted" 1
    (Sim.Metrics.get (Sim.Net.metrics w.W.net) "cluster.failovers");
  Alcotest.(check (list (pair string string))) "callback fired once, a -> b"
    [ ("replica-a", "replica-b") ] !moves

let test_secure_rpc_wrong_service () =
  let w = world () in
  let alice, _ = W.enrol w "alice" in
  let s1, k1 = W.enrol w "service1" in
  let s2, k2 = W.enrol w "service2" in
  Secure_rpc.serve w.W.net ~me:s1 ~my_key:k1 (fun _ _ -> Ok (Wire.S "s1"));
  Secure_rpc.serve w.W.net ~me:s2 ~my_key:k2 (fun _ _ -> Ok (Wire.S "s2"));
  let tgt = W.login w alice in
  let creds_s1 = W.credentials_for w ~tgt s1 in
  (* Redirect a ticket for s1 at s2: the seal is under s1's key, s2 must
     refuse. *)
  let forged = { creds_s1 with Ticket.cred_service = s2 } in
  match Secure_rpc.call w.W.net ~creds:forged (Wire.S "x") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "ticket accepted by the wrong service"

(* A service key that is not 32 bytes opens no ticket: every call is
   answered in-band and the handler never runs. *)
let test_secure_rpc_short_key () =
  let w = world () in
  let alice, _ = W.enrol w "alice" in
  let svc, svc_key = W.enrol w "short-keyed" in
  let ran = ref false in
  Secure_rpc.serve w.W.net ~me:svc ~my_key:(String.sub svc_key 0 31) (fun _ _ ->
      ran := true;
      Ok (Wire.S "ran"));
  let creds = W.credentials_for w ~tgt:(W.login w alice) svc in
  (match Secure_rpc.call w.W.net ~creds (Wire.S "ping") with
  | Error e -> Alcotest.(check string) "refused at the ticket" "ticket: seal verification failed" e
  | Ok _ -> Alcotest.fail "a 31-byte service key opened a ticket");
  Alcotest.(check bool) "handler never ran" false !ran

let test_secure_rpc_replay_absorbed () =
  let w = world () in
  let alice, _ = W.enrol w "alice" in
  let svc, svc_key = W.enrol w "svc" in
  let hits = ref 0 in
  Secure_rpc.serve w.W.net ~me:svc ~my_key:svc_key (fun _ _ ->
      incr hits;
      Ok (Wire.I !hits));
  let tgt = W.login w alice in
  let creds = W.credentials_for w ~tgt svc in
  (* Capture the raw request, deliver it, then replay the captured bytes. *)
  let captured = ref None in
  Sim.Net.set_tap w.W.net (fun ~dir ~src:_ ~dst:_ payload ->
      (match dir with `Request when !captured = None -> captured := Some payload | _ -> ());
      Sim.Net.Deliver);
  (match Secure_rpc.call w.W.net ~creds (Wire.S "op") with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  Sim.Net.clear_tap w.W.net;
  (match !captured with
  | None -> Alcotest.fail "nothing captured"
  | Some raw -> (
      match Sim.Net.rpc w.W.net ~src:"mallory" ~dst:(Principal.to_string svc) raw with
      | Ok reply ->
          (* The replay is answered from the response cache: the original
             reply, sealed under the session key mallory does not hold — a
             second execution never happens and nothing leaks. *)
          let tag = Result.get_ok (Result.bind (Wire.field (Result.get_ok (Wire.decode reply)) 0) Wire.to_string) in
          Alcotest.(check string) "cached sealed reply" "sealed" tag;
          Alcotest.(check int) "served from the response cache" 1
            (Sim.Metrics.get (Sim.Net.metrics w.W.net) "rpc.dedup")
      | Error e -> Alcotest.fail e));
  Alcotest.(check int) "handler ran once" 1 !hits

let test_secure_rpc_cache_eviction () =
  let w = world () in
  let alice, _ = W.enrol w "alice" in
  let svc, svc_key = W.enrol w "svc" in
  let hits = ref 0 in
  (* A deliberately tiny response cache: the third distinct request must
     evict the first (soonest-to-expire) entry and tick the metric. *)
  Secure_rpc.serve w.W.net ~me:svc ~my_key:svc_key
    ~cache:(Secure_rpc.create_cache ~capacity:2 ())
    (fun _ _ ->
      incr hits;
      Ok (Wire.I !hits));
  let tgt = W.login w alice in
  let creds = W.credentials_for w ~tgt svc in
  let first = ref None in
  Sim.Net.set_tap w.W.net (fun ~dir ~src:_ ~dst:_ payload ->
      (match dir with `Request when !first = None -> first := Some payload | _ -> ());
      Sim.Net.Deliver);
  let evictions () = Sim.Metrics.get (Sim.Net.metrics w.W.net) "rpc.cache_evictions" in
  for i = 1 to 3 do
    match Secure_rpc.call w.W.net ~creds (Wire.I i) with
    | Ok _ -> ()
    | Error e -> Alcotest.fail e
  done;
  Sim.Net.clear_tap w.W.net;
  Alcotest.(check int) "handler ran three times" 3 !hits;
  Alcotest.(check int) "one eviction at capacity 2" 1 (evictions ());
  (* The evicted entry's retransmission window has closed: replaying the
     first raw request re-runs the handler instead of hitting the cache. *)
  (match !first with
  | None -> Alcotest.fail "nothing captured"
  | Some raw -> (
      match Sim.Net.rpc w.W.net ~src:"mallory" ~dst:(Principal.to_string svc) raw with
      | Ok _ -> Alcotest.(check int) "evicted request re-executes" 4 !hits
      | Error e -> Alcotest.fail e));
  Alcotest.(check int) "second eviction from the re-insert" 2 (evictions ());
  Alcotest.(check int) "no dedup hits" 0 (Sim.Metrics.get (Sim.Net.metrics w.W.net) "rpc.dedup")

(* A client clock running ahead of the server's: the authenticator stays
   fresh until its own timestamp + skew, so its cached reply must live that
   long too — otherwise a replay after now + skew, once a later insert has
   purged the entry, runs the handler a second time. *)
let test_secure_rpc_future_stamp_replay () =
  let w = world () in
  let alice, _ = W.enrol w "alice" in
  let svc, svc_key = W.enrol w "svc" in
  let skew = 1_000_000 in
  let hits = ref 0 in
  Secure_rpc.serve w.W.net ~me:svc ~my_key:svc_key ~max_skew_us:skew
    ~cache:(Secure_rpc.create_cache ~capacity:2 ())
    (fun _ _ ->
      incr hits;
      Ok (Wire.I !hits));
  let tgt = W.login w alice in
  let creds = W.credentials_for w ~tgt svc in
  let ahead =
    Ticket.seal_authenticator ~session_key:(Crypto.Aead.prepare creds.Ticket.session_key)
      ~nonce:(Sim.Net.fresh_nonce w.W.net)
      { Ticket.auth_client = alice;
        timestamp = Sim.Net.now w.W.net + (skew / 2);
        subkey = None;
        auth_data = [] }
  in
  let raw =
    Wire.encode
      (Wire.L [ Wire.S "secure"; Wire.S creds.Ticket.ticket_blob; Wire.S ahead; Wire.I 0 ])
  in
  let send () =
    match Sim.Net.rpc w.W.net ~src:"alice" ~dst:(Principal.to_string svc) raw with
    | Ok _ -> ()
    | Error e -> Alcotest.fail e
  in
  let call i =
    match Secure_rpc.call w.W.net ~creds (Wire.I i) with
    | Ok _ -> ()
    | Error e -> Alcotest.fail e
  in
  send ();
  call 1;
  (* Past the server's now + skew, still within skew of the stamp. *)
  Sim.Clock.advance (Sim.Net.clock w.W.net) (skew + 10_000);
  call 2 (* the cache is full: this insert purges what has expired *);
  send ();
  Alcotest.(check int) "handler ran once per distinct request" 3 !hits;
  Alcotest.(check int) "the replay was served from the cache" 1
    (Sim.Metrics.get (Sim.Net.metrics w.W.net) "rpc.dedup")

(* --- guard + capabilities --- *)

type fs_world = {
  w : W.world;
  alice : Principal.t;
  bob : Principal.t;
  fileserver : Principal.t;
  guard : Guard.t;
}

let fileserver_world () =
  let w = world () in
  let alice, _ = W.enrol w "alice" in
  let bob, _ = W.enrol w "bob" in
  let fileserver, fs_key = W.enrol w "fileserver" in
  let acl = Acl.create () in
  Acl.add acl ~target:"file1"
    { Acl.subject = Acl.Principal_is alice; rights = []; restrictions = [] };
  let guard = Guard.create w.W.net ~me:fileserver ~my_key:fs_key ~acl () in
  { w; alice; bob; fileserver; guard }

let test_guard_direct_identity () =
  let fw = fileserver_world () in
  (match Guard.decide fw.guard ~operation:"read" ~target:"file1" ~presenter:fw.alice () with
  | Ok d -> Alcotest.(check bool) "granted to alice" true (d.Guard.acting_for = [])
  | Error e -> Alcotest.fail e);
  match Guard.decide fw.guard ~operation:"read" ~target:"file1" ~presenter:fw.bob () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bob has no entry"

let test_capability_flow () =
  let fw = fileserver_world () in
  let tgt = W.login fw.w fw.alice in
  (* Alice mints a read capability for file1 and passes it to bob. *)
  let cap =
    Result.get_ok
      (Capability.mint_via_kdc fw.w.W.net ~kdc:fw.w.W.kdc_name ~tgt ~end_server:fw.fileserver
         ~target:"file1" ~ops:[ "read" ] ())
  in
  let now = W.now fw.w in
  let presented =
    Guard.present ~proxy:cap ~time:now ~server:fw.fileserver ~operation:"read" ~target:"file1" ()
  in
  (match
     Guard.decide fw.guard ~operation:"read" ~target:"file1" ~presenter:fw.bob
       ~proxies:[ presented ] ()
   with
  | Ok d ->
      Alcotest.(check int) "acting for alice" 1 (List.length d.Guard.acting_for);
      Alcotest.(check bool) "grantor is alice" true
        (Principal.equal (List.hd d.Guard.acting_for) fw.alice)
  | Error e -> Alcotest.fail e);
  (* The same capability does not authorize writing. *)
  let presented_w =
    Guard.present ~proxy:cap ~time:now ~server:fw.fileserver ~operation:"write" ~target:"file1" ()
  in
  (match
     Guard.decide fw.guard ~operation:"write" ~target:"file1" ~presenter:fw.bob
       ~proxies:[ presented_w ] ()
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "write granted through a read capability");
  (* Nor reading another file. *)
  let presented_2 =
    Guard.present ~proxy:cap ~time:now ~server:fw.fileserver ~operation:"read" ~target:"file2" ()
  in
  match
    Guard.decide fw.guard ~operation:"read" ~target:"file2" ~presenter:fw.bob
      ~proxies:[ presented_2 ] ()
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "capability leaked to another object"

(* A guard given a key that is not 32 bytes is built all the same, and
   refuses a conventional capability at its base ticket. *)
let test_guard_short_key () =
  let fw = fileserver_world () in
  let guard = Guard.create fw.w.W.net ~me:fw.fileserver ~my_key:"k" ~acl:(Guard.acl fw.guard) () in
  let cap =
    Result.get_ok
      (Capability.mint_via_kdc fw.w.W.net ~kdc:fw.w.W.kdc_name ~tgt:(W.login fw.w fw.alice)
         ~end_server:fw.fileserver ~target:"file1" ~ops:[ "read" ] ())
  in
  let presented =
    Guard.present ~proxy:cap ~time:(W.now fw.w) ~server:fw.fileserver ~operation:"read"
      ~target:"file1" ()
  in
  match Guard.decide guard ~operation:"read" ~target:"file1" ~proxies:[ presented ] () with
  | Error e ->
      Alcotest.(check string) "refused at the base ticket"
        "access denied: no ACL entry permits read on \"file1\" (no presented proxy was usable: \
         ticket: seal verification failed)"
        e
  | Ok _ -> Alcotest.fail "a guard keyed with 1 byte opened a base ticket"

let test_capability_anonymous_bearer () =
  (* A bearer capability works with no presenter at all: possession is
     everything. *)
  let fw = fileserver_world () in
  let tgt = W.login fw.w fw.alice in
  let cap =
    Result.get_ok
      (Capability.mint_via_kdc fw.w.W.net ~kdc:fw.w.W.kdc_name ~tgt ~end_server:fw.fileserver
         ~target:"file1" ~ops:[ "read" ] ())
  in
  let presented =
    Guard.present ~proxy:cap ~time:(W.now fw.w) ~server:fw.fileserver ~operation:"read"
      ~target:"file1" ()
  in
  match Guard.decide fw.guard ~operation:"read" ~target:"file1" ~proxies:[ presented ] () with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e

let test_capability_narrowing () =
  let fw = fileserver_world () in
  let tgt = W.login fw.w fw.alice in
  let cap =
    Result.get_ok
      (Capability.mint_via_kdc fw.w.W.net ~kdc:fw.w.W.kdc_name ~tgt ~end_server:fw.fileserver
         ~target:"file1" ~ops:[ "read"; "stat" ] ())
  in
  let narrowed =
    Result.get_ok
      (Capability.narrow ~drbg:(Sim.Net.drbg fw.w.W.net) ~now:(W.now fw.w)
         ~expires:(W.now fw.w + W.hour) ~target:"file1" ~ops:[ "stat" ] cap)
  in
  let now = W.now fw.w in
  let ok_stat =
    Guard.present ~proxy:narrowed ~time:now ~server:fw.fileserver ~operation:"stat"
      ~target:"file1" ()
  in
  (match Guard.decide fw.guard ~operation:"stat" ~target:"file1" ~proxies:[ ok_stat ] () with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  let try_read =
    Guard.present ~proxy:narrowed ~time:now ~server:fw.fileserver ~operation:"read"
      ~target:"file1" ()
  in
  match Guard.decide fw.guard ~operation:"read" ~target:"file1" ~proxies:[ try_read ] () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "narrowed capability still reads"

let test_stolen_presentation_useless () =
  (* The eavesdropper captures a full presentation (certs + proof) and tries
     to use it for a different operation: the proof binding stops it. *)
  let fw = fileserver_world () in
  let tgt = W.login fw.w fw.alice in
  let cap =
    Result.get_ok
      (Capability.mint_via_kdc fw.w.W.net ~kdc:fw.w.W.kdc_name ~tgt ~end_server:fw.fileserver
         ~target:"file1" ~ops:[] ())
  in
  let now = W.now fw.w in
  let presented =
    Guard.present ~proxy:cap ~time:now ~server:fw.fileserver ~operation:"read" ~target:"file1" ()
  in
  (* Mallory reuses the captured certificates + proof for "delete". *)
  match
    Guard.decide fw.guard ~operation:"delete" ~target:"file1" ~proxies:[ presented ] ()
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "captured presentation replayed for another operation"

let test_revocation_via_grantor () =
  (* Removing alice from the ACL kills every capability she granted. *)
  let fw = fileserver_world () in
  let tgt = W.login fw.w fw.alice in
  let cap =
    Result.get_ok
      (Capability.mint_via_kdc fw.w.W.net ~kdc:fw.w.W.kdc_name ~tgt ~end_server:fw.fileserver
         ~target:"file1" ~ops:[ "read" ] ())
  in
  let presented =
    Guard.present ~proxy:cap ~time:(W.now fw.w) ~server:fw.fileserver ~operation:"read"
      ~target:"file1" ()
  in
  (match Guard.decide fw.guard ~operation:"read" ~target:"file1" ~proxies:[ presented ] () with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  Acl.remove_subject (Guard.acl fw.guard) ~target:"file1" (Acl.Principal_is fw.alice);
  match Guard.decide fw.guard ~operation:"read" ~target:"file1" ~proxies:[ presented ] () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "capability survived revocation of its grantor"

let test_expired_capability () =
  let fw = fileserver_world () in
  let tgt = W.login fw.w fw.alice in
  let cap =
    Result.get_ok
      (Capability.mint_via_kdc fw.w.W.net ~kdc:fw.w.W.kdc_name ~tgt ~end_server:fw.fileserver
         ~target:"file1" ~ops:[ "read" ] ~lifetime_us:W.hour ())
  in
  Sim.Clock.advance (Sim.Net.clock fw.w.W.net) (2 * W.hour);
  let presented =
    Guard.present ~proxy:cap ~time:(W.now fw.w) ~server:fw.fileserver ~operation:"read"
      ~target:"file1" ()
  in
  match Guard.decide fw.guard ~operation:"read" ~target:"file1" ~proxies:[ presented ] () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expired capability accepted"

(* --- authorization server (Fig. 3) --- *)

let test_authz_server_flow () =
  let w = world () in
  let carol, _ = W.enrol w "carol" in
  let authz, authz_key = W.enrol w "authz" in
  let appserver, app_key = W.enrol w "appserver" in
  (* The authorization server's database says carol may "run" job42 with a
     page quota, which must be copied into the proxy (Sec. 3.5). *)
  let db = Acl.create () in
  Acl.add db ~target:"job42"
    {
      Acl.subject = Acl.Principal_is carol;
      rights = [ "run" ];
      restrictions = [ R.Quota ("pages", 10) ];
    };
  let server =
    Result.get_ok
      (Authz_server.create w.W.net ~me:authz ~my_key:authz_key ~kdc:w.W.kdc_name ~database:db ())
  in
  Authz_server.install server;
  (* The app server's ACL delegates authorization to the authz server. *)
  let acl = Acl.create () in
  Acl.add acl ~target:"*" { Acl.subject = Acl.Principal_is authz; rights = []; restrictions = [] };
  let guard = Guard.create w.W.net ~me:appserver ~my_key:app_key ~acl () in
  (* Message 0-2 of Fig. 3. *)
  let tgt = W.login w carol in
  let creds_authz = W.credentials_for w ~tgt authz in
  let proxy =
    Result.get_ok
      (Authz_server.request_authorization w.W.net ~creds:creds_authz ~end_server:appserver
         ~target:"job42" ~operation:"run" ())
  in
  (* Message 3: present to the end-server. *)
  let now = W.now w in
  let presented =
    Guard.present ~proxy ~time:now ~server:appserver ~operation:"run" ~target:"job42" ()
  in
  (match Guard.decide guard ~operation:"run" ~target:"job42" ~presenter:carol ~proxies:[ presented ] () with
  | Ok d ->
      Alcotest.(check bool) "acting for authz server" true
        (List.exists (Principal.equal authz) d.Guard.acting_for)
  | Error e -> Alcotest.fail e);
  (* The copied quota restriction is live: an over-quota spend fails. *)
  let presented_big =
    Guard.present ~proxy ~time:now ~server:appserver ~operation:"run" ~target:"job42"
      ~spend:("pages", 100) ()
  in
  (match
     Guard.decide guard ~operation:"run" ~target:"job42" ~presenter:carol
       ~proxies:[ presented_big ] ~spend:("pages", 100) ()
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "ACL-entry quota not copied into proxy");
  (* An unauthorized principal is refused by the authorization server. *)
  let dave, _ = W.enrol w "dave" in
  let tgt_d = W.login w dave in
  let creds_d = W.credentials_for w ~tgt:tgt_d authz in
  match
    Authz_server.request_authorization w.W.net ~creds:creds_d ~end_server:appserver
      ~target:"job42" ~operation:"run" ()
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "authz server granted to an unlisted principal"

let test_authz_server_delegate_mode () =
  let w = world () in
  let carol, _ = W.enrol w "carol" in
  let eve, _ = W.enrol w "eve" in
  let authz, authz_key = W.enrol w "authz" in
  let appserver, app_key = W.enrol w "appserver" in
  let db = Acl.create () in
  Acl.add db ~target:"job"
    { Acl.subject = Acl.Principal_is carol; rights = [ "run" ]; restrictions = [] };
  let server =
    Result.get_ok
      (Authz_server.create w.W.net ~me:authz ~my_key:authz_key ~kdc:w.W.kdc_name ~database:db ())
  in
  Authz_server.install server;
  let acl = Acl.create () in
  Acl.add acl ~target:"*" { Acl.subject = Acl.Principal_is authz; rights = []; restrictions = [] };
  let guard = Guard.create w.W.net ~me:appserver ~my_key:app_key ~acl () in
  let tgt = W.login w carol in
  let creds = W.credentials_for w ~tgt authz in
  let proxy =
    Result.get_ok
      (Authz_server.request_authorization w.W.net ~creds ~end_server:appserver ~target:"job"
         ~operation:"run" ~delegate:true ())
  in
  let presented =
    Guard.present ~proxy ~time:(W.now w) ~server:appserver ~operation:"run" ~target:"job" ()
  in
  (* Carol herself: fine. *)
  (match
     Guard.decide guard ~operation:"run" ~target:"job" ~presenter:carol ~proxies:[ presented ] ()
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  (* Eve presenting the same (stolen, including key) delegate proxy: the
     grantee restriction stops her. *)
  match
    Guard.decide guard ~operation:"run" ~target:"job" ~presenter:eve ~proxies:[ presented ] ()
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "delegate proxy used by a non-grantee"

(* --- group server (Sec. 3.3) --- *)

type group_world = {
  gw : W.world;
  alice : Principal.t;
  bob : Principal.t;
  gserver : Group_server.t;
  gserver_name : Principal.t;
  doorserver : Principal.t;
  gguard : Guard.t;
}

let group_world () =
  let gw = world () in
  let alice, _ = W.enrol gw "alice" in
  let bob, _ = W.enrol gw "bob" in
  let gname, gkey = W.enrol gw "groups" in
  let doorserver, door_key = W.enrol gw "door" in
  let gserver =
    Result.get_ok (Group_server.create gw.W.net ~me:gname ~my_key:gkey ~kdc:gw.W.kdc_name ())
  in
  Group_server.install gserver;
  Group_server.add_member gserver ~group:"admins" alice;
  let acl = Acl.create () in
  Acl.add acl ~target:"machine-room"
    {
      Acl.subject = Acl.Group (Group_server.group_name gserver "admins");
      rights = [ "open" ];
      restrictions = [];
    };
  let gguard = Guard.create gw.W.net ~me:doorserver ~my_key:door_key ~acl () in
  { gw; alice; bob; gserver; gserver_name = gname; doorserver; gguard }

let test_group_membership_flow () =
  let g = group_world () in
  let tgt = W.login g.gw g.alice in
  let creds = W.credentials_for g.gw ~tgt g.gserver_name in
  let gproxy =
    Result.get_ok
      (Group_server.request_membership_proxy g.gw.W.net ~creds ~group:"admins"
         ~end_server:g.doorserver ())
  in
  let now = W.now g.gw in
  let presented =
    Guard.present ~proxy:gproxy ~time:now ~server:g.doorserver ~operation:"assert-membership"
      ~target:"admins" ()
  in
  (match
     Guard.decide g.gguard ~operation:"open" ~target:"machine-room" ~presenter:g.alice
       ~group_proxies:[ presented ] ()
   with
  | Ok d ->
      Alcotest.(check int) "one group used" 1 (List.length d.Guard.via_groups)
  | Error e -> Alcotest.fail e);
  (* Without the group proxy, alice's bare identity is not in the ACL. *)
  match Guard.decide g.gguard ~operation:"open" ~target:"machine-room" ~presenter:g.alice () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "door opened without membership proof"

let test_group_proxy_bound_to_member () =
  (* The group proxy is a delegate proxy naming alice: bob presenting it
     (even with the key) is refused. *)
  let g = group_world () in
  let tgt = W.login g.gw g.alice in
  let creds = W.credentials_for g.gw ~tgt g.gserver_name in
  let gproxy =
    Result.get_ok
      (Group_server.request_membership_proxy g.gw.W.net ~creds ~group:"admins"
         ~end_server:g.doorserver ())
  in
  let presented =
    Guard.present ~proxy:gproxy ~time:(W.now g.gw) ~server:g.doorserver
      ~operation:"assert-membership" ~target:"admins" ()
  in
  match
    Guard.decide g.gguard ~operation:"open" ~target:"machine-room" ~presenter:g.bob
      ~group_proxies:[ presented ] ()
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bob asserted alice's membership"

let test_group_nonmember_refused () =
  let g = group_world () in
  let tgt = W.login g.gw g.bob in
  let creds = W.credentials_for g.gw ~tgt g.gserver_name in
  match
    Group_server.request_membership_proxy g.gw.W.net ~creds ~group:"admins"
      ~end_server:g.doorserver ()
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "group server granted to a non-member"

let test_group_removal_blocks_new_proxies () =
  let g = group_world () in
  Group_server.remove_member g.gserver ~group:"admins" g.alice;
  let tgt = W.login g.gw g.alice in
  let creds = W.credentials_for g.gw ~tgt g.gserver_name in
  match
    Group_server.request_membership_proxy g.gw.W.net ~creds ~group:"admins"
      ~end_server:g.doorserver ()
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "removed member still got a proxy"

(* --- compound principals (Sec. 3.5) --- *)

let test_compound_concurrence () =
  let w = world () in
  let alice, _ = W.enrol w "alice" in
  let host, _ = W.enrol w "workstation7" in
  let svc, svc_key = W.enrol w "launcher" in
  (* Launching requires BOTH the user and the host to concur. *)
  let acl = Acl.create () in
  Acl.add acl ~target:"missile"
    {
      Acl.subject = Acl.Compound [ Acl.Principal_is alice; Acl.Principal_is host ];
      rights = [ "launch" ];
      restrictions = [];
    };
  let guard = Guard.create w.W.net ~me:svc ~my_key:svc_key ~acl () in
  (* Alice alone is refused. *)
  (match Guard.decide guard ~operation:"launch" ~target:"missile" ~presenter:alice () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "single principal satisfied a compound entry");
  (* The host concurs by granting alice a proxy for the operation. *)
  let tgt_host = W.login w host in
  let host_proxy =
    Result.get_ok
      (Capability.mint_via_kdc w.W.net ~kdc:w.W.kdc_name ~tgt:tgt_host ~end_server:svc
         ~target:"missile" ~ops:[ "launch" ] ())
  in
  let presented =
    Guard.present ~proxy:host_proxy ~time:(W.now w) ~server:svc ~operation:"launch"
      ~target:"missile" ()
  in
  match
    Guard.decide guard ~operation:"launch" ~target:"missile" ~presenter:alice
      ~proxies:[ presented ] ()
  with
  | Ok d -> Alcotest.(check int) "host authority used" 1 (List.length d.Guard.acting_for)
  | Error e -> Alcotest.fail e

(* --- cascaded authorization through the guard --- *)

let test_cascade_through_guard () =
  let fw = fileserver_world () in
  let tgt = W.login fw.w fw.alice in
  let cap =
    Result.get_ok
      (Capability.mint_via_kdc fw.w.W.net ~kdc:fw.w.W.kdc_name ~tgt ~end_server:fw.fileserver
         ~target:"file1" ~ops:[ "read"; "stat" ] ())
  in
  (* Bob (intermediate) narrows and passes to a print spooler; depth-2
     cascade verified by the guard in one shot. *)
  let now = W.now fw.w in
  let narrowed =
    Result.get_ok
      (Capability.narrow ~drbg:(Sim.Net.drbg fw.w.W.net) ~now ~expires:(now + W.hour)
         ~target:"file1" ~ops:[ "read" ] cap)
  in
  let presented =
    Guard.present ~proxy:narrowed ~time:now ~server:fw.fileserver ~operation:"read"
      ~target:"file1" ()
  in
  match Guard.decide fw.guard ~operation:"read" ~target:"file1" ~proxies:[ presented ] () with
  | Ok d -> Alcotest.(check int) "two serials in audit" 2 (List.length d.Guard.serials_used)
  | Error e -> Alcotest.fail e

(* Exact kernel cost of presenting a depth-2 capability through a file
   server, attach and read, twice. The first presentation opens bob's
   ticket at the server, alice's base ticket at the guard and both
   certificates; the server keeps all four opens, so the second one
   redoes none of them (two ticket-table hits, two link hits) and still
   checks every window, the head grantor and the proof of possession. *)
let test_capability_presentation_cost () =
  let w = world () in
  let alice, _ = W.enrol w "alice" in
  let bob, _ = W.enrol w "bob" in
  let fs_name, fs_key = W.enrol w "fileserver" in
  let acl = Acl.create () in
  Acl.add acl ~target:"file1"
    { Acl.subject = Acl.Principal_is alice; rights = []; restrictions = [] };
  let fs = File_server.create w.W.net ~me:fs_name ~my_key:fs_key ~acl () in
  File_server.install fs;
  File_server.put_direct fs ~path:"file1" "contents";
  let cap =
    Result.get_ok
      (Capability.mint_via_kdc w.W.net ~kdc:w.W.kdc_name ~tgt:(W.login w alice)
         ~end_server:fs_name ~target:"file1" ~ops:[ "read"; "stat" ] ())
  in
  let now = W.now w in
  let narrowed =
    Result.get_ok
      (Capability.narrow ~drbg:(Sim.Net.drbg w.W.net) ~now ~expires:(now + W.hour)
         ~target:"file1" ~ops:[ "read" ] cap)
  in
  let creds = W.credentials_for w ~tgt:(W.login w bob) fs_name in
  let present () =
    let p =
      File_server.attach w.W.net ~proxy:narrowed ~server:fs_name ~operation:"read" ~path:"file1"
    in
    match File_server.read w.W.net ~creds ~proxies:[ p ] ~path:"file1" () with
    | Ok "contents" -> ()
    | Ok other -> Alcotest.failf "read %S" other
    | Error e -> Alcotest.fail e
  in
  let metric name = Sim.Metrics.get (Sim.Net.metrics w.W.net) name in
  Alcotest.(check (list int)) "first: compressions, blocks, draws, rsa" [ 70; 18; 0; 0; 0; 0 ]
    (kernel_cost present);
  Alcotest.(check (list int)) "second: compressions, blocks, draws, rsa" [ 28; 4; 0; 0; 0; 0 ]
    (kernel_cost present);
  Alcotest.(check (list int)) "ticket-table hits, link hits, link misses" [ 2; 2; 2 ]
    [ metric "ticket_cache.hits"; metric "verify_cache.hits"; metric "verify_cache.misses" ]

(* --- accept-once through the guard --- *)

let test_accept_once_consumed () =
  let fw = fileserver_world () in
  let tgt = W.login fw.w fw.alice in
  let creds = W.credentials_for fw.w ~tgt fw.fileserver in
  let once =
    Proxy.grant_conventional ~drbg:(Sim.Net.drbg fw.w.W.net) ~now:(W.now fw.w)
      ~expires:(W.now fw.w + W.hour) ~grantor:fw.alice ~session_key:creds.Ticket.session_key
      ~base:creds.Ticket.ticket_blob
      ~restrictions:
        [ R.Authorized [ { R.target = "file1"; ops = [ "read" ] } ]; R.Accept_once "voucher-7" ]
  in
  let p1 =
    Guard.present ~proxy:once ~time:(W.now fw.w) ~server:fw.fileserver ~operation:"read"
      ~target:"file1" ()
  in
  (match Guard.decide fw.guard ~operation:"read" ~target:"file1" ~proxies:[ p1 ] () with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  (* Second use of the same accept-once identifier bounces. *)
  let p2 =
    Guard.present ~proxy:once ~time:(W.now fw.w) ~server:fw.fileserver ~operation:"read"
      ~target:"file1" ()
  in
  match Guard.decide fw.guard ~operation:"read" ~target:"file1" ~proxies:[ p2 ] () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accept-once proxy accepted twice"

let test_accept_once_unused_not_consumed () =
  (* When the presenter's own identity satisfies the ACL, an attached
     accept-once proxy contributed nothing and must NOT be consumed: the
     guard charges only the authority it actually used. *)
  let fw = fileserver_world () in
  let tgt = W.login fw.w fw.alice in
  let creds = W.credentials_for fw.w ~tgt fw.fileserver in
  let once =
    Proxy.grant_conventional ~drbg:(Sim.Net.drbg fw.w.W.net) ~now:(W.now fw.w)
      ~expires:(W.now fw.w + W.hour) ~grantor:fw.alice ~session_key:creds.Ticket.session_key
      ~base:creds.Ticket.ticket_blob
      ~restrictions:
        [ R.Authorized [ { R.target = "file1"; ops = [ "read" ] } ]; R.Accept_once "spare" ]
  in
  let present () =
    Guard.present ~proxy:once ~time:(W.now fw.w) ~server:fw.fileserver ~operation:"read"
      ~target:"file1" ()
  in
  (* Alice presents her own proxy alongside her own identity: granted via
     identity, proxy untouched. *)
  (match
     Guard.decide fw.guard ~operation:"read" ~target:"file1" ~presenter:fw.alice
       ~proxies:[ present () ] ()
   with
  | Ok d -> Alcotest.(check int) "granted directly, no proxy used" 0 (List.length d.Guard.acting_for)
  | Error e -> Alcotest.fail e);
  (* The accept-once id is still fresh: an anonymous bearer can use the
     proxy once. *)
  (match Guard.decide fw.guard ~operation:"read" ~target:"file1" ~proxies:[ present () ] () with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  (* ...and exactly once. *)
  match Guard.decide fw.guard ~operation:"read" ~target:"file1" ~proxies:[ present () ] () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accept-once consumed twice"

let () =
  Alcotest.run "authz"
    [ ( "secure-rpc",
        [ ("roundtrip", `Quick, test_secure_rpc_roundtrip);
          ("wrong service", `Quick, test_secure_rpc_wrong_service);
          ("via fails over once to the next replica", `Quick, test_secure_rpc_via_failover);
          ("warm call kernel cost", `Quick, test_secure_rpc_warm_cost);
          ("ticket table: tampered or expired refused", `Quick,
           test_secure_rpc_ticket_table_refusals);
          ("short service key refused at the ticket", `Quick, test_secure_rpc_short_key);
          ("replay absorbed, handler once", `Quick, test_secure_rpc_replay_absorbed);
          ("response cache bounded", `Quick, test_secure_rpc_cache_eviction);
          ("future-stamped replay answered from cache", `Quick,
           test_secure_rpc_future_stamp_replay) ] );
      ( "guard+capabilities",
        [ ("direct identity", `Quick, test_guard_direct_identity);
          ("capability flow", `Quick, test_capability_flow);
          ("anonymous bearer", `Quick, test_capability_anonymous_bearer);
          ("short guard key refuses the base ticket", `Quick, test_guard_short_key);
          ("narrowing", `Quick, test_capability_narrowing);
          ("stolen presentation useless", `Quick, test_stolen_presentation_useless);
          ("revocation via grantor", `Quick, test_revocation_via_grantor);
          ("expiry", `Quick, test_expired_capability);
          ("cascade through guard", `Quick, test_cascade_through_guard);
          ("depth-2 presentation kernel cost", `Quick, test_capability_presentation_cost);
          ("accept-once consumed", `Quick, test_accept_once_consumed);
          ("unused accept-once not consumed", `Quick, test_accept_once_unused_not_consumed) ] );
      ( "authorization-server",
        [ ("figure-3 flow", `Quick, test_authz_server_flow);
          ("delegate mode", `Quick, test_authz_server_delegate_mode) ] );
      ( "group-server",
        [ ("membership flow", `Quick, test_group_membership_flow);
          ("proxy bound to member", `Quick, test_group_proxy_bound_to_member);
          ("non-member refused", `Quick, test_group_nonmember_refused);
          ("removal blocks new proxies", `Quick, test_group_removal_blocks_new_proxies) ] );
      ("compound", [ ("user+host concurrence", `Quick, test_compound_concurrence) ]) ]
