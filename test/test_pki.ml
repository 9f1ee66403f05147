(* PKI substrate: CA certificates and the networked name server. *)

let realm = "pki.test"
let p name = Principal.make ~realm name

let drbg = Crypto.Drbg.create ~seed:"pki tests"
let alice = p "alice"
let alice_kp = Crypto.Rsa.generate drbg ~bits:512

let make_ca () = Ca.create drbg ~name:(p "ca") ~bits:512

let test_issue_verify () =
  let ca = make_ca () in
  let cert = Ca.issue ca ~now:100 ~lifetime:1000 alice alice_kp.Crypto.Rsa.pub in
  (match Ca.verify ~ca_pub:(Ca.ca_pub ca) ~now:500 cert with
  | Ok binding ->
      Alcotest.(check bool) "subject" true (Principal.equal binding.Ca.subject alice)
  | Error e -> Alcotest.fail e);
  (* Expired and not-yet-valid are refused. *)
  Alcotest.(check bool) "expired" true
    (Result.is_error (Ca.verify ~ca_pub:(Ca.ca_pub ca) ~now:1100 cert));
  Alcotest.(check bool) "not yet valid" true
    (Result.is_error (Ca.verify ~ca_pub:(Ca.ca_pub ca) ~now:50 cert));
  (* A different CA's key does not verify it. *)
  let other = Ca.create drbg ~name:(p "other-ca") ~bits:512 in
  Alcotest.(check bool) "wrong CA" true
    (Result.is_error (Ca.verify ~ca_pub:(Ca.ca_pub other) ~now:500 cert))

let test_cert_wire () =
  let ca = make_ca () in
  let cert = Ca.issue ca ~now:0 ~lifetime:1000 alice alice_kp.Crypto.Rsa.pub in
  match Ca.cert_of_wire (Ca.cert_to_wire cert) with
  | Ok cert' ->
      Alcotest.(check bool) "roundtrip verifies" true
        (Result.is_ok (Ca.verify ~ca_pub:(Ca.ca_pub ca) ~now:500 cert'))
  | Error e -> Alcotest.fail e

(* The CA signs the subject key's bytes as they arrive, so a key with a
   trailing byte, the same numbers in other bytes, is refused at decode. *)
let test_cert_key_bytes_exact () =
  let ca = make_ca () in
  let cert = Ca.issue ca ~now:0 ~lifetime:1000 alice alice_kp.Crypto.Rsa.pub in
  let padded =
    match Ca.cert_to_wire cert with
    | Wire.L [ Wire.L [ subject; Wire.S key; issued; expires ]; signature ] ->
        Wire.L [ Wire.L [ subject; Wire.S (key ^ "\x00"); issued; expires ]; signature ]
    | _ -> Alcotest.fail "unexpected certificate shape"
  in
  Alcotest.(check (result unit string)) "trailing key byte" (Error "ca: malformed public key")
    (Result.map ignore (Ca.cert_of_wire padded))

let test_name_server () =
  let net = Sim.Net.create ~seed:"pki net" () in
  let ca = make_ca () in
  let ns_name = p "nameserver" in
  let ns = Name_server.create net ~name:ns_name ~ca_pub:(Ca.ca_pub ca) in
  Name_server.install ns;
  let cert = Ca.issue ca ~now:0 ~lifetime:1_000_000 alice alice_kp.Crypto.Rsa.pub in
  Name_server.publish ns cert;
  (match Name_server.lookup net ~server:ns_name ~ca_pub:(Ca.ca_pub ca) ~caller:"client" alice with
  | Ok pub ->
      let signature = Crypto.Rsa.sign alice_kp "probe" in
      Alcotest.(check bool) "returned key verifies alice" true
        (Crypto.Rsa.verify pub ~msg:"probe" ~signature)
  | Error e -> Alcotest.fail e);
  (* Unknown principal. *)
  Alcotest.(check bool) "unknown" true
    (Result.is_error
       (Name_server.lookup net ~server:ns_name ~ca_pub:(Ca.ca_pub ca) ~caller:"client" (p "bob")));
  (* Revocation removes the binding. *)
  Name_server.revoke ns alice;
  Alcotest.(check bool) "revoked" true
    (Result.is_error
       (Name_server.lookup net ~server:ns_name ~ca_pub:(Ca.ca_pub ca) ~caller:"client" alice))

let test_name_server_tamper () =
  (* A tampering adversary substituting certificate bytes is caught by the
     CA signature check in the client. *)
  let net = Sim.Net.create ~seed:"pki tamper" () in
  let ca = make_ca () in
  let ns_name = p "nameserver" in
  let ns = Name_server.create net ~name:ns_name ~ca_pub:(Ca.ca_pub ca) in
  Name_server.install ns;
  Name_server.publish ns (Ca.issue ca ~now:0 ~lifetime:1_000_000 alice alice_kp.Crypto.Rsa.pub);
  Sim.Net.set_tap net (fun ~dir ~src:_ ~dst:_ payload ->
      match dir with
      | `Response ->
          let b = Bytes.of_string payload in
          let i = Bytes.length b / 2 in
          Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x20));
          Sim.Net.Replace (Bytes.to_string b)
      | `Request -> Sim.Net.Deliver);
  match Name_server.lookup net ~server:ns_name ~ca_pub:(Ca.ca_pub ca) ~caller:"client" alice with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "tampered name-server reply accepted"

let test_resolver_caching () =
  let net = Sim.Net.create ~seed:"pki resolver" () in
  let ca = make_ca () in
  let ns_name = p "nameserver" in
  let ns = Name_server.create net ~name:ns_name ~ca_pub:(Ca.ca_pub ca) in
  Name_server.install ns;
  Name_server.publish ns (Ca.issue ca ~now:0 ~lifetime:max_int alice alice_kp.Crypto.Rsa.pub);
  let resolver =
    Resolver.create net ~name_server:ns_name ~ca_pub:(Ca.ca_pub ca) ~caller:"guard"
      ~ttl_us:1_000_000 ()
  in
  let messages () = Sim.Metrics.get (Sim.Net.metrics net) "net.messages" in
  let m0 = messages () in
  Alcotest.(check bool) "first lookup hits the network" true (Resolver.lookup resolver alice <> None);
  Alcotest.(check int) "2 messages" (m0 + 2) (messages ());
  Alcotest.(check bool) "second lookup cached" true (Resolver.lookup resolver alice <> None);
  Alcotest.(check int) "no more messages" (m0 + 2) (messages ());
  Alcotest.(check int) "one entry" 1 (Resolver.cached resolver);
  (* After the TTL the binding refreshes — and revocation takes effect. *)
  Name_server.revoke ns alice;
  Alcotest.(check bool) "still cached within TTL" true (Resolver.lookup resolver alice <> None);
  Sim.Clock.advance (Sim.Net.clock net) 2_000_000;
  Alcotest.(check bool) "revocation visible after TTL" true (Resolver.lookup resolver alice = None);
  Alcotest.(check int) "entry dropped" 0 (Resolver.cached resolver);
  (* Unknown principals resolve to None without raising. *)
  Alcotest.(check bool) "unknown" true (Resolver.lookup resolver (p "nobody") = None)

let test_resolver_flush () =
  let net = Sim.Net.create ~seed:"pki flush" () in
  let ca = make_ca () in
  let ns_name = p "nameserver" in
  let ns = Name_server.create net ~name:ns_name ~ca_pub:(Ca.ca_pub ca) in
  Name_server.install ns;
  Name_server.publish ns (Ca.issue ca ~now:0 ~lifetime:max_int alice alice_kp.Crypto.Rsa.pub);
  let resolver =
    Resolver.create net ~name_server:ns_name ~ca_pub:(Ca.ca_pub ca) ~caller:"guard" ()
  in
  ignore (Resolver.lookup resolver alice);
  Name_server.revoke ns alice;
  Resolver.flush resolver;
  Alcotest.(check bool) "flush forces refetch" true (Resolver.lookup resolver alice = None)

let test_resolver_metrics () =
  (* Cache behaviour is observable in Sim.Metrics: fresh hits, fetches, and
     TTL expiries each tick their own counter. *)
  let net = Sim.Net.create ~seed:"pki resolver metrics" () in
  let ca = make_ca () in
  let ns_name = p "nameserver" in
  let ns = Name_server.create net ~name:ns_name ~ca_pub:(Ca.ca_pub ca) in
  Name_server.install ns;
  Name_server.publish ns (Ca.issue ca ~now:0 ~lifetime:max_int alice alice_kp.Crypto.Rsa.pub);
  let resolver =
    Resolver.create net ~name_server:ns_name ~ca_pub:(Ca.ca_pub ca) ~caller:"guard"
      ~ttl_us:1_000_000 ()
  in
  let count name = Sim.Metrics.get (Sim.Net.metrics net) name in
  ignore (Resolver.lookup resolver alice);
  Alcotest.(check int) "cold lookup: one miss" 1 (count "resolver.misses");
  Alcotest.(check int) "cold lookup: no hit" 0 (count "resolver.hits");
  ignore (Resolver.lookup resolver alice);
  ignore (Resolver.lookup resolver alice);
  Alcotest.(check int) "warm lookups hit" 2 (count "resolver.hits");
  Alcotest.(check int) "no extra misses" 1 (count "resolver.misses");
  Alcotest.(check int) "nothing expired yet" 0 (count "resolver.expired");
  Sim.Clock.advance (Sim.Net.clock net) 2_000_000;
  ignore (Resolver.lookup resolver alice);
  Alcotest.(check int) "TTL expiry counted" 1 (count "resolver.expired");
  Alcotest.(check int) "expiry is also a miss" 2 (count "resolver.misses");
  (* An unknown principal is a plain miss, not an expiry. *)
  ignore (Resolver.lookup resolver (p "nobody"));
  Alcotest.(check int) "unknown principal: miss" 3 (count "resolver.misses");
  Alcotest.(check int) "unknown principal: no expiry" 1 (count "resolver.expired")

let () =
  Alcotest.run "pki"
    [ ( "ca",
        [ ("issue/verify", `Slow, test_issue_verify);
          ("wire", `Slow, test_cert_wire);
          ("subject key bytes take one shape", `Slow, test_cert_key_bytes_exact) ] );
      ( "name-server",
        [ ("lookup/revoke", `Slow, test_name_server);
          ("tamper detected", `Slow, test_name_server_tamper) ] );
      ( "resolver",
        [ ("caching and TTL", `Slow, test_resolver_caching);
          ("flush", `Slow, test_resolver_flush);
          ("metrics counters", `Slow, test_resolver_metrics) ] ) ]
