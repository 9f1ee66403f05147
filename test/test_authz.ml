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
  | Ok (Wire.L [ client; payload ]) ->
      let client = Result.get_ok (Principal.of_wire client) in
      Alcotest.(check bool) "server saw alice" true (Principal.equal client alice);
      Alcotest.(check (result string string)) "payload echoed" (Ok "ping") (Wire.to_string payload)
  | Ok _ -> Alcotest.fail "malformed echo"

let kernel_cost f =
  let before = Crypto.Cost.read () in
  f ();
  let c = Crypto.Cost.diff ~before ~after:(Crypto.Cost.read ()) in
  [ c.Crypto.Cost.sha256_compressions; c.chacha20_blocks; c.poly1305_blocks; c.drbg_draws;
    c.rsa_sign; c.rsa_verify; c.rsa_keygen ]

(* Exact kernel cost of a call, credentials in hand and server up. In
   the first call the client seals an authenticator over the payload and
   opens the reply; the server opens the ticket, digests it (the session
   a binding names), prepares its session key (4 compressions), opens the
   authenticator, keys the response cache by its tag and seals the reply.
   Each seal or open is one ChaCha20 block for its MAC key, the keystream
   blocks and the Poly1305 blocks of its associated data, ciphertext and
   lengths; no SHA-256. The server keeps the opened ticket, its digest and
   the prepared key, so every later call skips the ticket open, the
   digest and the preparation, and makes no compression at all. Seal
   nonces are counted per net, so no call draws from a DRBG; drawing its
   two nonces would cost 2 draws and 20 compressions more. *)
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
  Alcotest.(check (list int))
    "cold: compressions, blocks, poly1305 blocks, draws, rsa" [ 7; 11; 32; 0; 0; 0; 0 ]
    (kernel_cost call);
  Alcotest.(check (list int))
    "warm: compressions, blocks, poly1305 blocks, draws, rsa" [ 0; 8; 22; 0; 0; 0; 0 ]
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
          Alcotest.(check bool) "cached sealed reply" true
            (match Wire.decode reply with
            | Ok (Wire.L [ Wire.S "sealed"; Wire.S _ ]) -> true
            | _ -> false);
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
  (* The evicted reply is gone while its authenticator is still fresh:
     replaying the first raw request reads forgotten and is refused before
     the handler, so it does not run a second time. *)
  (match !first with
  | None -> Alcotest.fail "nothing captured"
  | Some raw -> (
      match Sim.Net.rpc w.W.net ~src:"mallory" ~dst:(Principal.to_string svc) raw with
      | Ok reply ->
          Alcotest.(check bool) "evicted request refused, not re-executed" true
            (match Wire.decode reply with
            | Ok (Wire.L [ Wire.S "err"; Wire.S e ]) ->
                String.starts_with ~prefix:"authenticator forgotten" e
            | _ -> false);
          Alcotest.(check int) "handler still ran three times" 3 !hits
      | Error e -> Alcotest.fail e));
  Alcotest.(check int) "no re-insert, no second eviction" 1 (evictions ());
  Alcotest.(check int) "no dedup hits" 0 (Sim.Metrics.get (Sim.Net.metrics w.W.net) "rpc.dedup")

(* The raw request a client whose clock reads [timestamp] would send: the
   envelope carries the payload's exact bytes, and the authenticator
   covers them. *)
let stamped_request w ~creds ~timestamp payload =
  let payload = Wire.encode payload in
  let auth =
    Ticket.seal_authenticator ~session_key:(Crypto.Aead.prepare creds.Ticket.session_key)
      ~nonce:(Sim.Net.fresh_nonce w.W.net) ~covers:payload
      { Ticket.auth_client = creds.Ticket.cred_client; timestamp; subkey = None; auth_data = [] }
  in
  Wire.encode
    (Wire.L [ Wire.S "secure"; Wire.S creds.Ticket.ticket_blob; Wire.S auth; Wire.S payload ])

(* Deliver raw request bytes; [Ok ()] when the server answered with a
   sealed reply, [Error] carrying its in-band refusal otherwise. *)
let deliver w ~svc raw =
  match Sim.Net.rpc w.W.net ~src:"client" ~dst:(Principal.to_string svc) raw with
  | Error e -> Alcotest.fail e
  | Ok reply -> (
      match Wire.decode reply with
      | Ok (Wire.L [ Wire.S "sealed"; Wire.S _ ]) -> Ok ()
      | Ok (Wire.L [ Wire.S "err"; Wire.S e ]) -> Error e
      | _ -> Alcotest.fail "malformed reply")

let counting_service w ~skew ~capacity =
  let svc, svc_key = W.enrol w "svc" in
  let hits = ref 0 in
  Secure_rpc.serve w.W.net ~me:svc ~my_key:svc_key ~max_skew_us:skew
    ~cache:(Secure_rpc.create_cache ~capacity ())
    (fun _ _ ->
      incr hits;
      Ok (Wire.I !hits));
  (svc, hits)

(* A client clock running ahead of the server's: the authenticator stays
   fresh until its own timestamp + skew, so its cached reply must live that
   long too — otherwise a replay after now + skew, once a later insert has
   purged the entry, runs the handler a second time. *)
let test_secure_rpc_future_stamp_replay () =
  let w = world () in
  let alice, _ = W.enrol w "alice" in
  let skew = 1_000_000 in
  let svc, hits = counting_service w ~skew ~capacity:2 in
  let creds = W.credentials_for w ~tgt:(W.login w alice) svc in
  let raw = stamped_request w ~creds ~timestamp:(Sim.Net.now w.W.net + (skew / 2)) (Wire.I 0) in
  let send () = Result.iter_error Alcotest.fail (deliver w ~svc raw) in
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

let forgotten = function
  | Error e -> String.starts_with ~prefix:"authenticator forgotten" e
  | Ok () -> false

(* One client floods the cache with requests stamped at the far edge of
   the freshness window, until its own replies are evicted. Only its floor
   rises: another client's calls keep running, while a replay of an
   evicted flood request is still refused. *)
let test_secure_rpc_flood_spares_other_clients () =
  let w = world () in
  let alice, _ = W.enrol w "alice" and mallory, _ = W.enrol w "mallory" in
  let skew = 1_000_000 in
  let svc, hits = counting_service w ~skew ~capacity:2 in
  let mallory_creds = W.credentials_for w ~tgt:(W.login w mallory) svc in
  let alice_creds = W.credentials_for w ~tgt:(W.login w alice) svc in
  let edge = Sim.Net.now w.W.net + skew - 1 in
  let flood =
    List.init 3 (fun i -> stamped_request w ~creds:mallory_creds ~timestamp:edge (Wire.I i))
  in
  List.iter (fun raw -> Result.iter_error Alcotest.fail (deliver w ~svc raw)) flood;
  Alcotest.(check int) "the flood evicted one of its own replies" 1
    (Sim.Metrics.get (Sim.Net.metrics w.W.net) "rpc.cache_evictions");
  for i = 1 to 4 do
    match Secure_rpc.call w.W.net ~creds:alice_creds (Wire.I i) with
    | Ok _ -> ()
    | Error e -> Alcotest.fail ("alice refused after mallory's flood: " ^ e)
  done;
  Alcotest.(check bool) "the evicted flood request is refused" true
    (forgotten (deliver w ~svc (List.hd flood)));
  Alcotest.(check int) "every distinct request ran once" 7 !hits

(* A client whose clock lags far behind the cache's turnover: each of its
   replies is the soonest to expire, so the cache evicts them first, yet
   its timestamps only increase, so none of its fresh requests reaches
   its floor. A replay of an evicted one still does. *)
let test_secure_rpc_lagging_client_served () =
  let w = world () in
  let alice, _ = W.enrol w "alice" and bob, _ = W.enrol w "bob" in
  let skew = 1_000_000 in
  let svc, hits = counting_service w ~skew ~capacity:2 in
  let alice_creds = W.credentials_for w ~tgt:(W.login w alice) svc in
  let bob_creds = W.credentials_for w ~tgt:(W.login w bob) svc in
  let lagging i =
    stamped_request w ~creds:alice_creds ~timestamp:(Sim.Net.now w.W.net - (skew / 2)) (Wire.I i)
  in
  let first = lagging 0 in
  Result.iter_error Alcotest.fail (deliver w ~svc first);
  for i = 1 to 4 do
    (match Secure_rpc.call w.W.net ~creds:bob_creds (Wire.I i) with
    | Ok _ -> ()
    | Error e -> Alcotest.fail ("bob refused: " ^ e));
    match deliver w ~svc (lagging i) with
    | Ok () -> ()
    | Error e -> Alcotest.fail (Printf.sprintf "lagging alice refused at call %d: %s" i e)
  done;
  Alcotest.(check int) "the cache turned over" 7
    (Sim.Metrics.get (Sim.Net.metrics w.W.net) "rpc.cache_evictions");
  Alcotest.(check bool) "a replay of alice's evicted first request is refused" true
    (forgotten (deliver w ~svc first));
  Alcotest.(check int) "every distinct request ran once" 9 !hits

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

(* Two entries for carol's "run" on one target: the first is issued for
   another server, so the second, unrestricted, grants. When every
   entry's restrictions refuse, the first entry's refusal is the
   reason. *)
let test_later_acl_entry_grants () =
  let w = world () in
  let carol, _ = W.enrol w "carol" in
  let other, _ = W.enrol w "other" in
  let jobserver, key = W.enrol w "jobserver" in
  let acl = Acl.create () in
  let elsewhere =
    {
      Acl.subject = Acl.Principal_is carol;
      rights = [ "run" ];
      restrictions = [ R.Issued_for [ other ] ];
    }
  in
  let here = { elsewhere with Acl.restrictions = [] } in
  Acl.add acl ~target:"job" elsewhere;
  Acl.add acl ~target:"job" here;
  Acl.add acl ~target:"batch" elsewhere;
  Acl.add acl ~target:"batch" { elsewhere with Acl.restrictions = [ R.Quota ("pages", 1) ] };
  let guard = Guard.create w.W.net ~me:jobserver ~my_key:key ~acl () in
  (match Guard.decide guard ~operation:"run" ~target:"job" ~presenter:carol () with
  | Ok d -> Alcotest.(check bool) "granted by the second entry" true (d.Guard.granted_by = here)
  | Error e -> Alcotest.fail e);
  Alcotest.(check (result unit string)) "no entry passes: the first one's refusal"
    (Error
       "access denied by ACL entry restriction: issued-for: example.org/jobserver may not \
        accept this proxy")
    (Result.map ignore
       (Guard.decide guard ~operation:"run" ~target:"batch" ~presenter:carol
          ~spend:("pages", 5) ()))

let test_capability_flow () =
  let fw = fileserver_world () in
  let tgt = W.login fw.w fw.alice in
  (* Alice mints a read capability for file1 and passes it to bob. *)
  let cap =
    Result.get_ok
      (Capability.mint_via_kdc fw.w.W.net ~kdc:fw.w.W.kdc_name ~tgt ~end_server:fw.fileserver
         ~target:"file1" ~ops:[ "read" ] ())
  in
  let presented = Guard.bind ~server:fw.fileserver ~ticket:W.ticket cap in
  (match
     Guard.decide fw.guard ~ticket:W.ticket ~operation:"read" ~target:"file1" ~presenter:fw.bob
       ~proxies:[ presented ] ()
   with
  | Ok d ->
      Alcotest.(check int) "acting for alice" 1 (List.length d.Guard.acting_for);
      Alcotest.(check bool) "grantor is alice" true
        (Principal.equal (List.hd d.Guard.acting_for) fw.alice)
  | Error e -> Alcotest.fail e);
  (* The same capability does not authorize writing. *)
  (match
     Guard.decide fw.guard ~ticket:W.ticket ~operation:"write" ~target:"file1" ~presenter:fw.bob
       ~proxies:[ presented ] ()
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "write granted through a read capability");
  (* Nor reading another file. *)
  match
    Guard.decide fw.guard ~ticket:W.ticket ~operation:"read" ~target:"file2" ~presenter:fw.bob
      ~proxies:[ presented ] ()
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
  let presented = Guard.bind ~server:fw.fileserver ~ticket:W.ticket cap in
  match Guard.decide guard ~ticket:W.ticket ~operation:"read" ~target:"file1"
      ~proxies:[ presented ] () with
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
  let presented = Guard.bind ~server:fw.fileserver ~ticket:W.ticket cap in
  match Guard.decide fw.guard ~ticket:W.ticket ~operation:"read" ~target:"file1"
      ~proxies:[ presented ] () with
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
  let ok_stat = Guard.bind ~server:fw.fileserver ~ticket:W.ticket narrowed in
  (match Guard.decide fw.guard ~ticket:W.ticket ~operation:"stat" ~target:"file1"
      ~proxies:[ ok_stat ] () with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  let try_read = Guard.bind ~server:fw.fileserver ~ticket:W.ticket narrowed in
  match Guard.decide fw.guard ~ticket:W.ticket ~operation:"read" ~target:"file1"
      ~proxies:[ try_read ] () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "narrowed capability still reads"

let test_stolen_presentation_useless () =
  (* The eavesdropper captures a full presentation (certificates and
     binding) and presents it on a request of her own, which rides her own
     ticket: the binding names the ticket it was made for, so it proves
     nothing there. (Rewriting the captured request itself is the
     authenticator's to stop; see test_proxy "proof binds request".) *)
  let fw = fileserver_world () in
  let tgt = W.login fw.w fw.alice in
  let cap =
    Result.get_ok
      (Capability.mint_via_kdc fw.w.W.net ~kdc:fw.w.W.kdc_name ~tgt ~end_server:fw.fileserver
         ~target:"file1" ~ops:[] ())
  in
  let presented = Guard.bind ~server:fw.fileserver ~ticket:W.ticket cap in
  let mallorys_ticket = Ticket.digest "mallory's own ticket" in
  match
    Guard.decide fw.guard ~ticket:mallorys_ticket ~operation:"delete" ~target:"file1"
      ~proxies:[ presented ] ()
  with
  | Error e ->
      Alcotest.(check string) "refused at the binding"
        "access denied: no ACL entry permits delete on \"file1\" (no presented proxy was \
         usable: session binding: invalid)"
        e
  | Ok _ -> Alcotest.fail "captured presentation used over another ticket"

let test_revocation_via_grantor () =
  (* Removing alice from the ACL kills every capability she granted. *)
  let fw = fileserver_world () in
  let tgt = W.login fw.w fw.alice in
  let cap =
    Result.get_ok
      (Capability.mint_via_kdc fw.w.W.net ~kdc:fw.w.W.kdc_name ~tgt ~end_server:fw.fileserver
         ~target:"file1" ~ops:[ "read" ] ())
  in
  let presented = Guard.bind ~server:fw.fileserver ~ticket:W.ticket cap in
  (match Guard.decide fw.guard ~ticket:W.ticket ~operation:"read" ~target:"file1"
      ~proxies:[ presented ] () with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  Acl.remove_subject (Guard.acl fw.guard) ~target:"file1" (Acl.Principal_is fw.alice);
  match Guard.decide fw.guard ~ticket:W.ticket ~operation:"read" ~target:"file1"
      ~proxies:[ presented ] () with
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
  let presented = Guard.bind ~server:fw.fileserver ~ticket:W.ticket cap in
  match Guard.decide fw.guard ~ticket:W.ticket ~operation:"read" ~target:"file1"
      ~proxies:[ presented ] () with
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
  let presented = Guard.bind ~server:appserver ~ticket:W.ticket proxy in
  (match Guard.decide guard ~ticket:W.ticket ~operation:"run" ~target:"job42" ~presenter:carol
      ~proxies:[ presented ] () with
  | Ok d ->
      Alcotest.(check bool) "acting for authz server" true
        (List.exists (Principal.equal authz) d.Guard.acting_for)
  | Error e -> Alcotest.fail e);
  (* The copied quota restriction is live: an over-quota spend fails. *)
  let presented_big = Guard.bind ~server:appserver ~ticket:W.ticket proxy in
  (match
     Guard.decide guard ~ticket:W.ticket ~operation:"run" ~target:"job42" ~presenter:carol
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
  let presented = Guard.bind ~server:appserver ~ticket:W.ticket proxy in
  (* Carol herself: fine. *)
  (match
     Guard.decide guard ~ticket:W.ticket ~operation:"run" ~target:"job" ~presenter:carol
         ~proxies:[ presented ] ()
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  (* Eve presenting the same (stolen, including key) delegate proxy: the
     grantee restriction stops her. *)
  match
    Guard.decide guard ~ticket:W.ticket ~operation:"run" ~target:"job" ~presenter:eve
        ~proxies:[ presented ] ()
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "delegate proxy used by a non-grantee"

(* Two entries for carol on one target: the proxy granted for "run"
   carries the "run" entry's quota, not the restrictions of the first
   entry naming carol. *)
let test_authz_server_copies_matched_entry () =
  let w = world () in
  let carol, _ = W.enrol w "carol" in
  let authz, authz_key = W.enrol w "authz" in
  let appserver, app_key = W.enrol w "appserver" in
  let db = Acl.create () in
  Acl.add db ~target:"job42"
    { Acl.subject = Acl.Principal_is carol; rights = [ "read" ]; restrictions = [] };
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
  let acl = Acl.create () in
  Acl.add acl ~target:"*" { Acl.subject = Acl.Principal_is authz; rights = []; restrictions = [] };
  let guard = Guard.create w.W.net ~me:appserver ~my_key:app_key ~acl () in
  let creds = W.credentials_for w ~tgt:(W.login w carol) authz in
  let proxy =
    Result.get_ok
      (Authz_server.request_authorization w.W.net ~creds ~end_server:appserver ~target:"job42"
         ~operation:"run" ())
  in
  let run pages =
    Result.map ignore
      (Guard.decide guard ~ticket:W.ticket ~operation:"run" ~target:"job42" ~presenter:carol
         ~proxies:[ Guard.bind ~server:appserver ~ticket:W.ticket proxy ]
         ~spend:("pages", pages) ())
  in
  Alcotest.(check (result unit string)) "10 pages" (Ok ()) (run 10);
  Alcotest.(check (result unit string)) "100 pages: the run entry's quota"
    (Error
       "access denied: no ACL entry permits run on \"job42\" (no presented proxy was usable: \
        quota: 100 pages exceeds limit 10)")
    (run 100)

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
  let presented = Guard.bind ~server:g.doorserver ~ticket:W.ticket gproxy in
  (match
     Guard.decide g.gguard ~ticket:W.ticket ~operation:"open" ~target:"machine-room"
         ~presenter:g.alice
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
  let presented = Guard.bind ~server:g.doorserver ~ticket:W.ticket gproxy in
  match
    Guard.decide g.gguard ~ticket:W.ticket ~operation:"open" ~target:"machine-room" ~presenter:g.bob
      ~group_proxies:[ presented ] ()
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bob asserted alice's membership"

(* A group proxy's sequence is read from the guard's progress like any
   other chain's, and written when the membership is used: a one-step
   sequence lets the membership open the door once, and the second
   denial says why. *)
let test_group_proxy_sequence_runs_once () =
  let g = group_world () in
  let tgt = W.login g.gw g.alice in
  let creds = W.credentials_for g.gw ~tgt g.gserver_name in
  let gproxy =
    Result.get_ok
      (Group_server.request_membership_proxy g.gw.W.net ~creds ~group:"admins"
         ~end_server:g.doorserver ())
  in
  let once =
    Result.get_ok
      (Proxy.restrict_conventional ~drbg:(Sim.Net.drbg g.gw.W.net) ~now:(W.now g.gw)
         ~expires:(W.now g.gw + W.hour)
         ~restrictions:
           [ R.Sequence
               [ { R.step_op = R.assert_membership; step_server = None; step_target = None } ] ]
         gproxy)
  in
  let journal = ref [] in
  Guard.set_journal g.gguard (Some (fun c -> journal := !journal @ [ c ]));
  let open_door () =
    Result.map ignore
      (Guard.decide g.gguard ~ticket:W.ticket ~operation:"open" ~target:"machine-room"
         ~presenter:g.alice
         ~group_proxies:[ Guard.bind ~server:g.doorserver ~ticket:W.ticket once ] ())
  in
  Alcotest.(check (result unit string)) "first use" (Ok ()) (open_door ());
  let progress () =
    List.map (function Guard.Seq_progress { progress; _ } -> progress | Guard.Accept_once _ -> -1)
      !journal
  in
  Alcotest.(check (list int)) "its one step is recorded" [ 1 ] (progress ());
  Alcotest.(check (result unit string)) "second use: the step is spent"
    (Error
       "access denied: no ACL entry permits open on \"machine-room\" (no presented proxy was \
        usable: sequence: all 1 steps already consumed)")
    (open_door ());
  Alcotest.(check (list int)) "and nothing more is written" [ 1 ] (progress ())

(* A for-use-by-group proxy (Section 7.2) is usable with a membership
   proof for its group, whether or not any ACL entry names that group: the
   membership proxy says which group it proves. bob's capability for the
   rack names only "ops"; alice is in both groups, and the door's ACL
   names only "admins". *)
let test_for_use_by_group_unnamed_in_acl () =
  let g = group_world () in
  Group_server.add_member g.gserver ~group:"ops" g.alice;
  Acl.add (Guard.acl g.gguard) ~target:"rack"
    { Acl.subject = Acl.Principal_is g.bob; rights = [ "open" ]; restrictions = [] };
  let cap =
    Result.get_ok
      (Capability.mint_via_kdc g.gw.W.net ~kdc:g.gw.W.kdc_name ~tgt:(W.login g.gw g.bob)
         ~end_server:g.doorserver ~target:"rack" ~ops:[ "open" ] ())
  in
  let for_ops =
    Result.get_ok
      (Proxy.restrict_conventional ~drbg:(Sim.Net.drbg g.gw.W.net) ~now:(W.now g.gw)
         ~expires:(W.now g.gw + W.hour)
         ~restrictions:[ R.For_use_by_group ([ Group_server.group_name g.gserver "ops" ], 1) ]
         cap)
  in
  let creds = W.credentials_for g.gw ~tgt:(W.login g.gw g.alice) g.gserver_name in
  let open_rack group =
    let gproxy =
      Result.get_ok
        (Group_server.request_membership_proxy g.gw.W.net ~creds ~group
           ~end_server:g.doorserver ())
    in
    let bind = Guard.bind ~server:g.doorserver ~ticket:W.ticket in
    Result.map ignore
      (Guard.decide g.gguard ~ticket:W.ticket ~operation:"open" ~target:"rack"
         ~presenter:g.alice ~proxies:[ bind for_ops ] ~group_proxies:[ bind gproxy ] ())
  in
  Alcotest.(check (result unit string)) "with an ops proof" (Ok ()) (open_rack "ops");
  Alcotest.(check (result unit string)) "with an admins proof"
    (Error
       "access denied: no ACL entry permits open on \"rack\" (no presented proxy was usable: \
        for-use-by-group: 0 of the named groups asserted, 1 required)")
    (open_rack "admins")

(* A group proxy is verified once per decision, however many groups the
   ACL names: warm, its one base ticket and one link come from the tables,
   before and after eight groups are added on other targets. *)
let test_group_proxy_verified_once () =
  let g = group_world () in
  let creds = W.credentials_for g.gw ~tgt:(W.login g.gw g.alice) g.gserver_name in
  let gproxy =
    Result.get_ok
      (Group_server.request_membership_proxy g.gw.W.net ~creds ~group:"admins"
         ~end_server:g.doorserver ())
  in
  let presented = Guard.bind ~server:g.doorserver ~ticket:W.ticket gproxy in
  let metrics = Sim.Net.metrics g.gw.W.net in
  let hits () =
    [ Sim.Metrics.get metrics "verify_cache.hits"; Sim.Metrics.get metrics "ticket_cache.hits" ]
  in
  let open_door () =
    let before = hits () in
    (match
       Guard.decide g.gguard ~ticket:W.ticket ~operation:"open" ~target:"machine-room"
         ~presenter:g.alice ~group_proxies:[ presented ] ()
     with
    | Ok _ -> ()
    | Error e -> Alcotest.fail e);
    List.map2 ( - ) (hits ()) before
  in
  ignore (open_door ());
  Alcotest.(check (list int)) "verify and ticket hits, one group named" [ 1; 1 ] (open_door ());
  for i = 1 to 8 do
    Acl.add (Guard.acl g.gguard)
      ~target:(Printf.sprintf "room-%d" i)
      {
        Acl.subject = Acl.Group (Group_server.group_name g.gserver (Printf.sprintf "team-%d" i));
        rights = [ "open" ];
        restrictions = [];
      }
  done;
  Alcotest.(check (list int)) "verify and ticket hits, nine groups named" [ 1; 1 ] (open_door ())

(* The empty name is no group: a self-granted proxy listing it in its
   group-membership restriction, presented as a group proxy, is refused
   with the decoder's reason, and the guard raises nothing. *)
let test_group_proxy_empty_name_refused () =
  let g = group_world () in
  let creds = W.credentials_for g.gw ~tgt:(W.login g.gw g.alice) g.doorserver in
  let forged =
    Proxy.grant_conventional ~drbg:(Sim.Net.drbg g.gw.W.net) ~now:(W.now g.gw)
      ~expires:(W.now g.gw + W.hour) ~grantor:g.alice ~session_key:creds.Ticket.session_key
      ~base:creds.Ticket.ticket_blob ~restrictions:[ R.Group_membership [ "" ] ]
  in
  Alcotest.(check (result unit string)) "denied"
    (Error
       "access denied: no ACL entry permits open on \"machine-room\" (no presented proxy was \
        usable: group-membership: empty group name)")
    (Result.map ignore
       (Guard.decide g.gguard ~ticket:W.ticket ~operation:"open" ~target:"machine-room"
          ~presenter:g.alice
          ~group_proxies:[ Guard.bind ~server:g.doorserver ~ticket:W.ticket forged ]
          ()))

(* A group proxy's refusal is cited only when no group was asserted: beside
   a valid admins proof, a proof issued for another server says nothing
   about why the ACL denies. *)
let test_group_refusal_cited_without_groups () =
  let g = group_world () in
  let creds = W.credentials_for g.gw ~tgt:(W.login g.gw g.alice) g.gserver_name in
  let admins =
    Result.get_ok
      (Group_server.request_membership_proxy g.gw.W.net ~creds ~group:"admins"
         ~end_server:g.doorserver ())
  in
  let elsewhere =
    Result.get_ok
      (Proxy.restrict_conventional ~drbg:(Sim.Net.drbg g.gw.W.net) ~now:(W.now g.gw)
         ~expires:(W.now g.gw + W.hour) ~restrictions:[ R.Issued_for [ g.bob ] ] admins)
  in
  let decide operation group_proxies =
    Result.map ignore
      (Guard.decide g.gguard ~ticket:W.ticket ~operation ~target:"machine-room"
         ~presenter:g.alice
         ~group_proxies:(List.map (Guard.bind ~server:g.doorserver ~ticket:W.ticket) group_proxies)
         ())
  in
  Alcotest.(check (result unit string)) "alone: its refusal is cited"
    (Error
       (Printf.sprintf
          "access denied: no ACL entry permits open on \"machine-room\" (no presented proxy was \
           usable: issued-for: %s may not accept this proxy)"
          (Principal.to_string g.doorserver)))
    (decide "open" [ elsewhere ]);
  Alcotest.(check (result unit string)) "beside a valid proof: not cited"
    (Error "access denied: no ACL entry permits close on \"machine-room\"")
    (decide "close" [ admins; elsewhere ])

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
  let presented = Guard.bind ~server:svc ~ticket:W.ticket host_proxy in
  match
    Guard.decide guard ~ticket:W.ticket ~operation:"launch" ~target:"missile" ~presenter:alice
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
  let presented = Guard.bind ~server:fw.fileserver ~ticket:W.ticket narrowed in
  match Guard.decide fw.guard ~ticket:W.ticket ~operation:"read" ~target:"file1"
      ~proxies:[ presented ] () with
  | Ok d -> Alcotest.(check int) "two serials in audit" 2 (List.length d.Guard.serials_used)
  | Error e -> Alcotest.fail e

(* Exact kernel cost of presenting a depth-2 capability through a file
   server, attach and read, twice. The first presentation makes bob's
   binding (his ticket's digest and one HMAC), opens bob's ticket at the
   server, alice's base ticket at the guard and both certificates, and
   checks the binding; the client keeps the binding and the server all
   four opens and the binding's verdict, so the second one redoes none of
   them (two ticket-table hits, two link hits and a binding hit) and still
   checks every window and the head grantor: no compression, and the
   call's four seals and opens. What both pay on top of the call itself
   is the authenticator covering the payload, mostly the two sealed
   certificates: 112 Poly1305 blocks against a warm echo call's 22. *)
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
  Alcotest.(check (list int))
    "first: compressions, blocks, poly1305 blocks, draws, rsa" [ 31; 26; 164; 0; 0; 0; 0 ]
    (kernel_cost present);
  Alcotest.(check (list int))
    "second: compressions, blocks, poly1305 blocks, draws, rsa" [ 0; 8; 112; 0; 0; 0; 0 ]
    (kernel_cost present);
  Alcotest.(check (list int)) "ticket-table hits, verify-cache hits, misses" [ 2; 3; 3 ]
    [ metric "ticket_cache.hits"; metric "verify_cache.hits"; metric "verify_cache.misses" ]

(* What a warm, untraced decision over a depth-2 public-key bearer chain
   allocates, when both links and the binding are verify-cache hits. The
   certificates were not decoded through the guard, so each link
   re-encodes the bytes its signature covers and compares them, and its
   signer's key bytes, with the verdict its signature finds; the keys
   carry those bytes, so none is converted from its numbers (five
   conversions, about 1.9 KB). An untraced net opens no span, so neither
   the decision's span nor any certificate's builds its attributes (a
   link's four-byte serial alone was four [Printf.sprintf] calls). The
   decision allocates about 6.7 KB, under a 10 KB bound: 9.5 KB while
   each verdict was keyed by all three strings framed into one and each
   counter was looked up twice, 14.8 KB while keys were converted and
   attributes built. *)
let test_pk_decide_allocation () =
  if Sys.backend_type = Sys.Native then begin
    let w = world () in
    let drbg = Crypto.Drbg.create ~seed:"pk decide allocation" in
    let alice, _ = W.enrol w "alice" in
    let bob, _ = W.enrol w "bob" in
    let fileserver, fs_key = W.enrol w "fileserver" in
    let alice_kp = Crypto.Rsa.generate drbg ~bits:512 in
    let acl = Acl.create () in
    Acl.add acl ~target:"file1"
      { Acl.subject = Acl.Principal_is alice; rights = []; restrictions = [] };
    let lookup_pub p = if Principal.equal p alice then Some alice_kp.Crypto.Rsa.pub else None in
    let guard = Guard.create w.W.net ~me:fileserver ~my_key:fs_key ~lookup_pub ~acl () in
    let now = W.now w and read_file1 = R.Authorized [ { R.target = "file1"; ops = [ "read" ] } ] in
    let chain =
      Result.get_ok
        (Proxy.restrict_pk ~drbg ~now ~expires:(now + W.hour) ~restrictions:[]
           (Proxy.grant_pk ~drbg ~now ~expires:(now + W.hour) ~grantor:alice ~grantor_key:alice_kp
              ~restrictions:[ read_file1 ] ()))
    in
    let presented = Guard.bind ~server:fileserver ~ticket:W.ticket chain in
    let decide () =
      match
        Guard.decide guard ~ticket:W.ticket ~operation:"read" ~target:"file1" ~presenter:bob
          ~proxies:[ presented ] ()
      with
      | Ok d -> d
      | Error e -> Alcotest.fail e
    in
    ignore (decide ());
    let metric name = Sim.Metrics.get (Sim.Net.metrics w.W.net) name in
    let hits = metric "verify_cache.hits" and misses = metric "verify_cache.misses" in
    let used = Testkit.alloc_bytes_per_call decide in
    Alcotest.(check (list int)) "every link and the binding hit; nothing missed" [ 3 * 21; 0 ]
      [ metric "verify_cache.hits" - hits; metric "verify_cache.misses" - misses ];
    Alcotest.(check bool)
      (Printf.sprintf "%.0f B per decision <= 10,240" used)
      true (used <= 10240.)
  end

(* What a warm, untraced read through a file server allocates when it
   presents a depth-2 public-key bearer chain, client and server: the
   call, both seals and opens, and the decision. The server decodes the
   chain through its guard's verify cache, so a certificate whose verdict
   holds its decoded form is not parsed again (no key read, no bytes
   re-encoded) and both links hit by identity. About 24.4 KB, under a
   26 KB bound; 31.1 KB while each read parsed both certificates and keyed
   their verdicts by what they cover. *)
let test_pk_read_allocation () =
  if Sys.backend_type = Sys.Native then begin
    let w = world () in
    let drbg = Crypto.Drbg.create ~seed:"pk read allocation" in
    let alice, _ = W.enrol w "alice" in
    let bob, _ = W.enrol w "bob" in
    let fs_name, fs_key = W.enrol w "fileserver" in
    let alice_kp = Crypto.Rsa.generate drbg ~bits:512 in
    let acl = Acl.create () in
    Acl.add acl ~target:"file1"
      { Acl.subject = Acl.Principal_is alice; rights = []; restrictions = [] };
    let lookup_pub p = if Principal.equal p alice then Some alice_kp.Crypto.Rsa.pub else None in
    let fs = File_server.create w.W.net ~me:fs_name ~my_key:fs_key ~lookup_pub ~acl () in
    File_server.install fs;
    File_server.put_direct fs ~path:"file1" "contents";
    let now = W.now w and read_file1 = R.Authorized [ { R.target = "file1"; ops = [ "read" ] } ] in
    let chain =
      Result.get_ok
        (Proxy.restrict_pk ~drbg ~now ~expires:(now + W.hour) ~restrictions:[]
           (Proxy.grant_pk ~drbg ~now ~expires:(now + W.hour) ~grantor:alice ~grantor_key:alice_kp
              ~restrictions:[ read_file1 ] ()))
    in
    let creds = W.credentials_for w ~tgt:(W.login w bob) fs_name in
    let read () =
      match File_server.read w.W.net ~creds ~proxies:[ chain ] ~path:"file1" () with
      | Ok "contents" -> ()
      | Ok other -> Alcotest.failf "read %S" other
      | Error e -> Alcotest.fail e
    in
    read ();
    let metric name = Sim.Metrics.get (Sim.Net.metrics w.W.net) name in
    let hits = metric "verify_cache.hits" and misses = metric "verify_cache.misses" in
    let used = Testkit.alloc_bytes_per_call read in
    Alcotest.(check (list int)) "every link and the binding hit; nothing missed" [ 3 * 21; 0 ]
      [ metric "verify_cache.hits" - hits; metric "verify_cache.misses" - misses ];
    Alcotest.(check bool)
      (Printf.sprintf "%.0f B per read <= 26,624" used)
      true (used <= 26624.)
  end

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
  let p1 = Guard.bind ~server:fw.fileserver ~ticket:W.ticket once in
  (match Guard.decide fw.guard ~ticket:W.ticket ~operation:"read" ~target:"file1"
      ~proxies:[ p1 ] () with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  (* Second use of the same accept-once identifier bounces. *)
  let p2 = Guard.bind ~server:fw.fileserver ~ticket:W.ticket once in
  match Guard.decide fw.guard ~ticket:W.ticket ~operation:"read" ~target:"file1"
      ~proxies:[ p2 ] () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accept-once proxy accepted twice"

(* Each grantor's accept-once records have their own floor. A flood that
   pushes out one of alice's live records makes her unspent vouchers that
   expire no later unprovable, so they are refused; bob's are not hers,
   and a voucher of his that expires just as soon is still accepted. *)
let test_accept_once_flood_spares_other_grantors () =
  let fw = fileserver_world () in
  Acl.add (Guard.acl fw.guard) ~target:"file1"
    { Acl.subject = Acl.Principal_is fw.bob; rights = []; restrictions = [] };
  let now = W.now fw.w in
  let voucher grantor id =
    let creds = W.credentials_for fw.w ~tgt:(W.login fw.w grantor) fw.fileserver in
    Guard.bind ~server:fw.fileserver ~ticket:W.ticket
      (Proxy.grant_conventional ~drbg:(Sim.Net.drbg fw.w.W.net) ~now ~expires:(now + W.hour)
         ~grantor ~session_key:creds.Ticket.session_key ~base:creds.Ticket.ticket_blob
         ~restrictions:
           [ R.Authorized [ { R.target = "file1"; ops = [ "read" ] } ]; R.Accept_once id ])
  in
  let read p =
    Guard.decide fw.guard ~ticket:W.ticket ~operation:"read" ~target:"file1" ~proxies:[ p ] ()
  in
  let spent = voucher fw.alice "alice-1" in
  Result.iter_error Alcotest.fail (Result.map ignore (read spent));
  for i = 1 to 1 lsl 17 do
    Guard.apply_change fw.guard ~now
      (Guard.Accept_once { id = Printf.sprintf "flood-%d" i; expires = max_int; tag = "flood" })
  done;
  Alcotest.(check int) "alice's record was evicted" 1
    (Sim.Metrics.get (Sim.Net.metrics fw.w.W.net) "replay_cache.evictions");
  (match read (voucher fw.bob "bob-1") with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("bob's voucher refused after a flood that evicted alice's: " ^ e));
  List.iter
    (fun (what, p) ->
      match read p with
      | Error e ->
          Alcotest.(check bool) (what ^ " refused as forgotten") true
            (String.ends_with ~suffix:"record forgotten under capacity pressure)" e)
      | Ok _ -> Alcotest.fail (what ^ " accepted"))
    [ ("alice's spent voucher", spent); ("alice's unspent voucher", voucher fw.alice "alice-2") ]

(* A stateful restriction binds wherever it applies: inside a
   Limit_restriction naming this server it is recorded like a top-level
   one, so a second use is refused, while one scoped to another server is
   not this server's to record. *)
let limit_scoped_read fw restrictions =
  let creds = W.credentials_for fw.w ~tgt:(W.login fw.w fw.alice) fw.fileserver in
  let proxy =
    Proxy.grant_conventional ~drbg:(Sim.Net.drbg fw.w.W.net) ~now:(W.now fw.w)
      ~expires:(W.now fw.w + W.hour) ~grantor:fw.alice ~session_key:creds.Ticket.session_key
      ~base:creds.Ticket.ticket_blob
      ~restrictions:(R.Authorized [ { R.target = "file1"; ops = [ "read" ] } ] :: restrictions)
  in
  fun () ->
    Result.map ignore
      (Guard.decide fw.guard ~ticket:W.ticket ~operation:"read" ~target:"file1"
         ~proxies:[ Guard.bind ~server:fw.fileserver ~ticket:W.ticket proxy ] ())

let unusable why =
  Error
    ("access denied: no ACL entry permits read on \"file1\" (no presented proxy was usable: "
    ^ why ^ ")")

let test_limit_scoped_accept_once () =
  let fw = fileserver_world () in
  let scoped server id =
    limit_scoped_read fw [ R.Limit_restriction ([ server ], [ R.Accept_once id ]) ]
  in
  let read = scoped fw.fileserver "v-9" in
  Alcotest.(check (result unit string)) "first use" (Ok ()) (read ());
  Alcotest.(check (result unit string)) "second use"
    (unusable "accept-once: v-9 already used") (read ());
  let elsewhere = Principal.make ~realm:fw.w.W.realm "elsewhere" in
  let away = scoped elsewhere "v-10" in
  Alcotest.(check (result unit string)) "scoped away: first" (Ok ()) (away ());
  Alcotest.(check (result unit string)) "scoped away: second" (Ok ()) (away ())

let test_limit_scoped_sequence () =
  let fw = fileserver_world () in
  let one_read = { R.step_op = "read"; step_server = None; step_target = None } in
  let read =
    limit_scoped_read fw [ R.Limit_restriction ([ fw.fileserver ], [ R.Sequence [ one_read ] ]) ]
  in
  Alcotest.(check (result unit string)) "first use" (Ok ()) (read ());
  Alcotest.(check (result unit string)) "second use"
    (unusable "sequence: all 1 steps already consumed") (read ())

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
    Guard.bind ~server:fw.fileserver ~ticket:W.ticket once
  in
  (* Alice presents her own proxy alongside her own identity: granted via
     identity, proxy untouched. *)
  (match
     Guard.decide fw.guard ~ticket:W.ticket ~operation:"read" ~target:"file1" ~presenter:fw.alice
       ~proxies:[ present () ] ()
   with
  | Ok d -> Alcotest.(check int) "granted directly, no proxy used" 0 (List.length d.Guard.acting_for)
  | Error e -> Alcotest.fail e);
  (* The accept-once id is still fresh: an anonymous bearer can use the
     proxy once. *)
  (match Guard.decide fw.guard ~ticket:W.ticket ~operation:"read" ~target:"file1"
      ~proxies:[ present () ] () with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  (* ...and exactly once. *)
  match Guard.decide fw.guard ~ticket:W.ticket ~operation:"read" ~target:"file1"
      ~proxies:[ present () ] () with
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
           test_secure_rpc_future_stamp_replay);
          ("one client's flood refuses no other client", `Quick,
           test_secure_rpc_flood_spares_other_clients);
          ("a lagging client is served while the cache turns over", `Quick,
           test_secure_rpc_lagging_client_served) ] );
      ( "guard+capabilities",
        [ ("direct identity", `Quick, test_guard_direct_identity);
          ("a later ACL entry grants when the first refuses", `Quick, test_later_acl_entry_grants);
          ("capability flow", `Quick, test_capability_flow);
          ("anonymous bearer", `Quick, test_capability_anonymous_bearer);
          ("short guard key refuses the base ticket", `Quick, test_guard_short_key);
          ("narrowing", `Quick, test_capability_narrowing);
          ("stolen presentation useless", `Quick, test_stolen_presentation_useless);
          ("revocation via grantor", `Quick, test_revocation_via_grantor);
          ("expiry", `Quick, test_expired_capability);
          ("cascade through guard", `Quick, test_cascade_through_guard);
          ("depth-2 presentation kernel cost", `Quick, test_capability_presentation_cost);
          ("a warm public-key decision's allocation", `Quick, test_pk_decide_allocation);
          ("a warm public-key read's allocation", `Quick, test_pk_read_allocation);
          ("accept-once consumed", `Quick, test_accept_once_consumed);
          ("a flood's floor is its victims' grantors' alone", `Slow,
           test_accept_once_flood_spares_other_grantors);
          ("unused accept-once not consumed", `Quick, test_accept_once_unused_not_consumed);
          ("limit-scoped accept-once consumed once", `Quick, test_limit_scoped_accept_once);
          ("limit-scoped sequence runs once", `Quick, test_limit_scoped_sequence) ] );
      ( "authorization-server",
        [ ("figure-3 flow", `Quick, test_authz_server_flow);
          ("delegate mode", `Quick, test_authz_server_delegate_mode);
          ("two entries for one subject: the matched one is copied", `Quick,
           test_authz_server_copies_matched_entry) ] );
      ( "group-server",
        [ ("membership flow", `Quick, test_group_membership_flow);
          ("proxy bound to member", `Quick, test_group_proxy_bound_to_member);
          ("non-member refused", `Quick, test_group_nonmember_refused);
          ("a group proxy's sequence runs once", `Quick, test_group_proxy_sequence_runs_once);
          ("for-use-by-group needs no ACL entry naming the group", `Quick,
           test_for_use_by_group_unnamed_in_acl);
          ("a group proxy is verified once per decision", `Quick, test_group_proxy_verified_once);
          ("an empty group name is refused, not raised", `Quick,
           test_group_proxy_empty_name_refused);
          ("a group refusal is cited only without groups", `Quick,
           test_group_refusal_cited_without_groups);
          ("removal blocks new proxies", `Quick, test_group_removal_blocks_new_proxies) ] );
      ("compound", [ ("user+host concurrence", `Quick, test_compound_concurrence) ]) ]
