(* Verification memo-cache: repeated presentations of an immutable
   certificate chain must hit the cache instead of redoing RSA, while
   tampered certificates, TTL-expired entries, out-of-window certificates
   and signatures under a key the directory no longer binds must never be
   served from it. *)

module R = Restriction

let realm = "r"
let p name = Principal.make ~realm name
let alice = p "alice"

let drbg = Crypto.Drbg.create ~seed:"verify cache tests"
let hour = 3_600_000_000
let t_exp = 10 * hour

let alice_kp = Crypto.Rsa.generate drbg ~bits:512
let lookup q = if Principal.equal q alice then Some alice_kp.Crypto.Rsa.pub else None

let grant_proxy ?(expires = t_exp) ~depth () =
  let proxy =
    Proxy.grant_pk ~drbg ~now:0 ~expires ~grantor:alice ~grantor_key:alice_kp ~proxy_bits:512
      ~restrictions:[ R.Authorized [ { R.target = "file1"; ops = [ "read" ] } ] ]
      ()
  in
  let rec extend proxy = function
    | 1 -> proxy
    | n ->
        extend
          (Result.get_ok
             (Proxy.restrict_pk ~drbg ~now:0 ~expires ~proxy_bits:512
                ~restrictions:[ R.Quota ("pages", n) ] proxy))
          (n - 1)
  in
  extend proxy depth

let grant_chain ?expires ~depth () =
  match (grant_proxy ?expires ~depth ()).Proxy.flavor with
  | Proxy.Public_key certs -> certs
  | _ -> Alcotest.fail "expected public-key chain"

let with_tally f =
  let counts = Hashtbl.create 8 in
  let tally name = Hashtbl.replace counts name (1 + Option.value
      ~default:0 (Hashtbl.find_opt counts name)) in
  let result = f tally in
  (result, fun name -> Option.value ~default:0 (Hashtbl.find_opt counts name))

let check_stats label (want_hits, want_misses, want_size) cache =
  let s = Verify_cache.stats cache in
  Alcotest.(check int) (label ^ ": hits") want_hits s.Verify_cache.hits;
  Alcotest.(check int) (label ^ ": misses") want_misses s.Verify_cache.misses;
  Alcotest.(check int) (label ^ ": size") want_size s.Verify_cache.size

let test_repeat_presentation_hits () =
  let depth = 3 in
  let certs = grant_chain ~depth () in
  let cache = Verify_cache.create () in
  let (r1, count1) =
    with_tally (fun tally -> Verifier.verify_pk ~lookup ~tally ~cache ~now:100 certs)
  in
  Alcotest.(check bool) "first presentation verifies" true (Result.is_ok r1);
  Alcotest.(check int) "first presentation pays full RSA" depth (count1 "crypto.rsa_verify");
  check_stats "after first" (0, depth, depth) cache;
  let (r2, count2) =
    with_tally (fun tally -> Verifier.verify_pk ~lookup ~tally ~cache ~now:200 certs)
  in
  Alcotest.(check bool) "re-presentation verifies" true (Result.is_ok r2);
  Alcotest.(check int) "re-presentation pays no RSA" 0 (count2 "crypto.rsa_verify");
  Alcotest.(check int) "all signatures served from cache" depth (count2 "verify_cache.hits");
  check_stats "after second" (depth, depth, depth) cache;
  (* Without a cache argument, metering is the plain pre-cache metering. *)
  let (r3, count3) = with_tally (fun tally -> Verifier.verify_pk ~lookup ~tally ~now:300 certs) in
  Alcotest.(check bool) "uncached path still verifies" true (Result.is_ok r3);
  Alcotest.(check int) "uncached path pays full RSA" depth (count3 "crypto.rsa_verify")

let test_tampered_cert_never_hits () =
  let certs = grant_chain ~depth:1 () in
  let cache = Verify_cache.create () in
  Alcotest.(check bool) "honest chain verifies" true
    (Result.is_ok (Verifier.verify_pk ~lookup ~cache ~now:100 certs));
  check_stats "warm" (0, 1, 1) cache;
  let tamper cert =
    let b = Bytes.of_string cert.Proxy_cert.signature in
    Bytes.set b 7 (Char.chr (Char.code (Bytes.get b 7) lxor 0x20));
    { cert with Proxy_cert.signature = Bytes.to_string b }
  in
  let tampered = List.map tamper certs in
  let (r, count) =
    with_tally (fun tally -> Verifier.verify_pk ~lookup ~tally ~cache ~now:100 tampered)
  in
  Alcotest.(check bool) "tampered chain refused" true (Result.is_error r);
  Alcotest.(check int) "tampered cert was a miss, not a hit" 0 (count "verify_cache.hits");
  Alcotest.(check int) "tampered cert re-ran RSA" 1 (count "crypto.rsa_verify");
  (* The failed verification is not recorded: the cache still holds only the
     honest entry, and re-presenting the tampered chain fails again. *)
  check_stats "after tamper" (0, 2, 1) cache;
  Alcotest.(check bool) "tampered chain refused again" true
    (Result.is_error (Verifier.verify_pk ~lookup ~cache ~now:100 tampered));
  (* The honest chain still hits. *)
  let (r2, count2) =
    with_tally (fun tally -> Verifier.verify_pk ~lookup ~tally ~cache ~now:100 certs)
  in
  Alcotest.(check bool) "honest chain fine" true (Result.is_ok r2);
  Alcotest.(check int) "honest chain hits" 1 (count2 "verify_cache.hits")

let test_ttl_expiry_reverifies () =
  let certs = grant_chain ~depth:1 () in
  let ttl = hour in
  let cache = Verify_cache.create () in
  Alcotest.(check bool) "verifies" true
    (Result.is_ok (Verifier.verify_pk ~lookup ~cache ~now:100 certs));
  let (within, count_within) =
    with_tally (fun tally -> Verifier.verify_pk ~lookup ~tally ~cache ~now:(99 + ttl) certs)
  in
  Alcotest.(check bool) "within ttl ok" true (Result.is_ok within);
  Alcotest.(check int) "within ttl: cache hit" 1 (count_within "verify_cache.hits");
  let (after, count_after) =
    with_tally (fun tally -> Verifier.verify_pk ~lookup ~tally ~cache ~now:(100 + ttl) certs)
  in
  Alcotest.(check bool) "after ttl ok" true (Result.is_ok after);
  Alcotest.(check int) "after ttl: entry expired, miss" 0 (count_after "verify_cache.hits");
  Alcotest.(check int) "after ttl: RSA re-run" 1 (count_after "crypto.rsa_verify")

let test_expired_cert_refused_despite_warm_cache () =
  (* Certificate window: 0 .. 1000. TTL is much longer, so the signature
     entry is still "fresh" when the certificate itself has expired — the
     time-window check must refuse anyway. *)
  let certs = grant_chain ~expires:1000 ~depth:1 () in
  let cache = Verify_cache.create () in
  Alcotest.(check bool) "within window ok" true
    (Result.is_ok (Verifier.verify_pk ~lookup ~cache ~now:100 certs));
  match Verifier.verify_pk ~lookup ~cache ~now:2000 certs with
  | Ok _ -> Alcotest.fail "expired certificate served from warm cache"
  | Error _ -> ()

let test_capacity_bound_and_evictions () =
  let evictions = ref 0 in
  let cap = 4 in
  let cache = Verify_cache.create ~capacity:cap ~on_evict:(fun () -> incr evictions) () in
  (* Verdict [i]: certificate [i]'s bytes under its own signature. *)
  let check cache ~now i =
    Verify_cache.check cache ~now ~signed_bytes:(Printf.sprintf "cert-%d" i)
      ~signature:(Printf.sprintf "sig-%d" i) ~signer:"key"
  and record cache ~now i =
    Verify_cache.record cache ~now ~signed_bytes:(Printf.sprintf "cert-%d" i)
      ~signature:(Printf.sprintf "sig-%d" i) ~signer:"key"
  in
  for i = 1 to 25 do
    Alcotest.(check bool) "fresh entry misses" false (check cache ~now:i i);
    record cache ~now:i i;
    Alcotest.(check bool) "bounded" true (Verify_cache.size cache <= cap)
  done;
  Alcotest.(check int) "size = capacity" cap (Verify_cache.size cache);
  Alcotest.(check int) "evictions counted" (25 - cap) !evictions;
  Alcotest.(check int) "stats agree" (25 - cap) (Verify_cache.stats cache).Verify_cache.evictions;
  (* One TTL for every entry, so soonest-expiring is oldest-recorded: the
     survivors are the newest four. *)
  Alcotest.(check bool) "oldest evicted" false (check cache ~now:26 1);
  Alcotest.(check bool) "newest retained" true (check cache ~now:26 25);
  (* At capacity with one entry past its TTL, a new record purges the
     expired entry and evicts nothing live. *)
  let small = Verify_cache.create ~capacity:2 () in
  record small ~now:0 1;
  record small ~now:(hour / 2) 2;
  record small ~now:(hour + 20) 3;
  Alcotest.(check int) "purge, no eviction" 0 (Verify_cache.stats small).Verify_cache.evictions;
  Alcotest.(check int) "still at capacity" 2 (Verify_cache.size small);
  Alcotest.(check bool) "live entry kept" true (check small ~now:(hour + 20) 2);
  Alcotest.(check bool) "new entry kept" true (check small ~now:(hour + 20) 3)

(* --- accept-once table bounds (the long-lived caches) --- *)

let test_replay_cache_bound () =
  let evictions = ref 0 in
  let cap = 8 in
  let rc = Expiring.create ~capacity:cap ~on_evict:(fun () -> incr evictions) () in
  let expiry i = 1000 + i and id i = Printf.sprintf "check-%d" i in
  let status i = Expiring.lookup rc ~now:0 ~expires:(expiry i) (id i) in
  (* Fill with live entries, then flood: the cache must stay bounded and
     evict the soonest-expiring identifier. *)
  for i = 1 to 30 do
    Expiring.add rc ~now:0 ~expires:(expiry i) (id i) ();
    Alcotest.(check bool) "bounded" true (Expiring.size rc <= cap)
  done;
  Alcotest.(check int) "size = capacity" cap (Expiring.size rc);
  Alcotest.(check int) "flood evictions" (30 - cap) !evictions;
  (* Soonest-expiry-first: the longest-lived identifiers survive, so the
     replay window stays closed for the checks that matter longest. *)
  Alcotest.(check bool) "longest-lived still seen" true (status 30 = Expiring.Live ());
  (* An evicted identifier is not unseen: it reads forgotten, and so does
     any new one that would expire no later than it. *)
  Alcotest.(check bool) "soonest-expiring dropped" true (status 1 = Expiring.Forgotten);
  Alcotest.(check bool) "a later expiry reads absent" true
    (Expiring.lookup rc ~now:0 ~expires:2000 "check-new" = Expiring.Absent);
  (* Expired entries are purged before anything live is evicted. *)
  let rc2 = Expiring.create ~capacity:2 ~on_evict:(fun () -> incr evictions) () in
  let before = !evictions in
  Expiring.add rc2 ~now:0 ~expires:10 "stale" ();
  Expiring.add rc2 ~now:0 ~expires:1000 "live" ();
  Expiring.add rc2 ~now:500 ~expires:1000 "new" ();
  Alcotest.(check int) "no eviction when purge suffices" before !evictions;
  Alcotest.(check bool) "live entry kept" true (Expiring.find rc2 ~now:500 "live" = Some ());
  Alcotest.(check bool) "an expired entry is not forgotten" true
    (Expiring.lookup rc2 ~now:500 ~expires:10 "stale" = Expiring.Absent)

(* --- Retirement on revocation (bump_generation) --- *)

let test_bump_generation_exact () =
  let invalidated = ref 0 in
  let cache = Verify_cache.create ~on_invalidate:(fun () -> incr invalidated) () in
  let check ~now i =
    Verify_cache.check cache ~now ~signed_bytes:(Printf.sprintf "c%d" i)
      ~signature:(Printf.sprintf "s%d" i) ~signer:"k"
  and record ~now i =
    Verify_cache.record cache ~now ~signed_bytes:(Printf.sprintf "c%d" i)
      ~signature:(Printf.sprintf "s%d" i) ~signer:"k"
  in
  for i = 1 to 5 do
    record ~now:0 i
  done;
  Alcotest.(check int) "five live" 5 (Verify_cache.size cache);
  Alcotest.(check int) "first bump retires all five" 5 (Verify_cache.bump_generation cache);
  Alcotest.(check int) "on_invalidate fired per entry" 5 !invalidated;
  Alcotest.(check int) "size reflects retirement immediately" 0 (Verify_cache.size cache);
  Alcotest.(check int) "invalidations exact" 5
    (Verify_cache.stats cache).Verify_cache.invalidations;
  (* Retired entries are gone: lookups miss, and the miss does not
     resurrect anything. *)
  Alcotest.(check bool) "retired entry misses" false (check ~now:1 1);
  (* Bumping an empty cache retires and charges nothing. *)
  for _ = 1 to 100 do
    Alcotest.(check int) "empty bump is free" 0 (Verify_cache.bump_generation cache)
  done;
  Alcotest.(check int) "storm charged no phantom invalidations" 5
    (Verify_cache.stats cache).Verify_cache.invalidations;
  (* Entries recorded after a bump live normally and are charged exactly
     on the next one. *)
  record ~now:2 9;
  Alcotest.(check bool) "new entry hits" true (check ~now:2 9);
  Alcotest.(check int) "next bump retires exactly the new entry" 1
    (Verify_cache.bump_generation cache);
  Alcotest.(check int) "total invalidations exact" 6
    (Verify_cache.stats cache).Verify_cache.invalidations

(* --- Key rebinding: a warm cache never outlives the signer's key --- *)

(* A key directory whose bindings can change between presentations. *)
let directory bindings =
  let keys = Hashtbl.create 4 in
  let rebind q kp = Hashtbl.replace keys (Principal.to_string q) kp.Crypto.Rsa.pub in
  List.iter (fun (q, kp) -> rebind q kp) bindings;
  ((fun q -> Hashtbl.find_opt keys (Principal.to_string q)), rebind)

(* After the rebinding, the first certificate under the old key must miss,
   pay its RSA check, fail it, and stop the walk. *)
let check_rebound_denied label ~lookup ~cache ~want_hits certs =
  let (r, count) =
    with_tally (fun tally -> Verifier.verify_pk ~lookup ~tally ~cache ~now:200 certs)
  in
  (match r with
  | Ok _ -> Alcotest.failf "%s: chain signed under a rebound key granted" label
  | Error e -> Alcotest.(check string) (label ^ ": denial") "pk proxy-cert: bad signature" e);
  Alcotest.(check int) (label ^ ": hits") want_hits (count "verify_cache.hits");
  Alcotest.(check int) (label ^ ": one miss") 1 (count "verify_cache.misses");
  Alcotest.(check int) (label ^ ": one RSA verify") 1 (count "crypto.rsa_verify")

let test_rebind_bearer_head () =
  let lookup, rebind = directory [ (alice, alice_kp) ] in
  let certs = grant_chain ~depth:2 () in
  let cache = Verify_cache.create () in
  Alcotest.(check bool) "warm" true
    (Result.is_ok (Verifier.verify_pk ~lookup ~cache ~now:100 certs));
  rebind alice (Crypto.Rsa.generate drbg ~bits:512);
  check_rebound_denied "bearer head" ~lookup ~cache ~want_hits:0 certs

let test_rebind_delegate_intermediate () =
  (* alice -> bob (named grantee, signs By_principal) -> bearer tail. *)
  let bob = p "bob" in
  let bob_kp = Crypto.Rsa.generate drbg ~bits:512 in
  let lookup, rebind = directory [ (alice, alice_kp); (bob, bob_kp) ] in
  let proxy =
    Proxy.grant_pk ~drbg ~now:0 ~expires:t_exp ~grantor:alice ~grantor_key:alice_kp
      ~proxy_bits:512
      ~restrictions:
        [ R.Grantee ([ bob ], 1); R.Authorized [ { R.target = "file1"; ops = [ "read" ] } ] ]
      ()
  in
  let proxy =
    Result.get_ok
      (Proxy.delegate_pk ~drbg ~now:0 ~expires:t_exp ~intermediate:bob ~intermediate_key:bob_kp
         ~proxy_bits:512 ~restrictions:[] proxy)
  in
  let proxy =
    Result.get_ok
      (Proxy.restrict_pk ~drbg ~now:0 ~expires:t_exp ~proxy_bits:512 ~restrictions:[] proxy)
  in
  let certs =
    match proxy.Proxy.flavor with
    | Proxy.Public_key certs -> certs
    | _ -> Alcotest.fail "expected public-key chain"
  in
  let cache = Verify_cache.create () in
  Alcotest.(check bool) "warm" true
    (Result.is_ok (Verifier.verify_pk ~lookup ~cache ~now:100 certs));
  rebind bob (Crypto.Rsa.generate drbg ~bits:512);
  (* alice's head still hits; bob's certificate is the one that misses. *)
  check_rebound_denied "delegate intermediate" ~lookup ~cache ~want_hits:1 certs

let test_rebind_guard_default_cache () =
  let net = Sim.Net.create ~seed:"verify-cache-rebind" () in
  let fs = p "fileserver" in
  let lookup, rebind = directory [ (alice, alice_kp) ] in
  let acl = Acl.create () in
  Acl.add acl ~target:"file1"
    { Acl.subject = Acl.Principal_is alice; rights = [ "read" ]; restrictions = [] };
  let guard = Guard.create net ~me:fs ~my_key:"k" ~lookup_pub:lookup ~acl () in
  let proxy =
    Proxy.grant_pk ~drbg ~now:0 ~expires:t_exp ~grantor:alice ~grantor_key:alice_kp
      ~proxy_bits:512
      ~restrictions:[ R.Authorized [ { R.target = "file1"; ops = [ "read" ] } ] ]
      ()
  in
  let decide () =
    let presented = Guard.bind ~server:fs ~ticket:Testkit.ticket proxy in
    Guard.decide guard ~ticket:Testkit.ticket ~operation:"read" ~target:"file1"
      ~presenter:(p "carol") ~proxies:[ presented ] ()
  in
  let metric name = Sim.Metrics.get (Sim.Net.metrics net) name in
  Alcotest.(check bool) "granted under the bound key" true (Result.is_ok (decide ()));
  (* The certificate's signature and the binding's are both remembered. *)
  Alcotest.(check bool) "re-presentation hits" true
    (Result.is_ok (decide ()) && metric "verify_cache.hits" = 2);
  rebind alice (Crypto.Rsa.generate drbg ~bits:512);
  let rsa = metric "crypto.rsa_verify" in
  (match decide () with
  | Ok _ -> Alcotest.fail "guard granted a chain signed under a rebound key"
  | Error e ->
      Alcotest.(check string) "denial"
        "access denied: no ACL entry permits read on \"file1\" (no presented proxy was usable: \
         pk proxy-cert: bad signature)"
        e);
  Alcotest.(check int) "no hit after rebinding" 2 (metric "verify_cache.hits");
  Alcotest.(check int) "one RSA verify" (rsa + 1) (metric "crypto.rsa_verify")

(* --- Conventional links: the open is remembered, never the checks --- *)

let session_key = Crypto.Drbg.generate drbg 32
let other_session_key = Crypto.Drbg.generate drbg 32

(* Two base tickets of alice's, under different session keys. *)
let open_base blob =
  let base key =
    Ok
      {
        Verifier.base_client = alice;
        base_session_key = key;
        base_expires = max_int;
        base_restrictions = [];
      }
  in
  match blob with
  | "base" -> base session_key
  | "other base" -> base other_session_key
  | _ -> Error "unknown base"

(* A depth-2 conventional chain on "base"; its second certificate's window
   ends at [expires]. *)
let conventional_chain ~expires =
  let head =
    Proxy.grant_conventional ~drbg ~now:0 ~expires:t_exp ~grantor:alice ~session_key ~base:"base"
      ~restrictions:[ R.Authorized [ { R.target = "file1"; ops = [ "read" ] } ] ]
  in
  match
    Proxy.restrict_conventional ~drbg ~now:0 ~expires ~restrictions:[ R.Quota ("pages", 2) ] head
  with
  | Ok { Proxy.flavor = Proxy.Conventional chain; _ } -> chain
  | Ok _ -> Alcotest.fail "expected a conventional chain"
  | Error e -> Alcotest.fail e

let verify_conv ?revocation ~cache ~now chain =
  with_tally (fun tally ->
      Verifier.verify_conventional ~open_base ~tally ~cache ?revocation ~now chain)

(* Warm the cache with one presentation, check the second is all hits and
   no opens, and return the chain's serials. *)
let warm ~cache chain =
  let r1, count1 = verify_conv ~cache ~now:100 chain in
  let serials = match r1 with Ok v -> v.Verifier.serials | Error e -> Alcotest.fail e in
  Alcotest.(check (list int)) "cold: opens, misses, hits" [ 2; 2; 0 ]
    [ count1 "crypto.open"; count1 "verify_cache.misses"; count1 "verify_cache.hits" ];
  let r2, count2 = verify_conv ~cache ~now:200 chain in
  Alcotest.(check bool) "warm presentation verifies" true (Result.is_ok r2);
  Alcotest.(check (list int)) "warm: opens, misses, hits" [ 0; 0; 2 ]
    [ count2 "crypto.open"; count2 "verify_cache.misses"; count2 "verify_cache.hits" ];
  Alcotest.(check int) "both hits were link hits" 2
    (Verify_cache.stats cache).Verify_cache.link_hits;
  serials

(* A refusal that comes after the walk's links were answered from the
   cache: the check that refuses runs on every presentation. *)
let refused_on_hits label want ~hits (r, count) =
  (match r with
  | Ok _ -> Alcotest.failf "%s: granted from a warm cache" label
  | Error e -> Alcotest.(check string) label want e);
  Alcotest.(check (list int)) (label ^ ": opens, hits") [ 0; hits ]
    [ count "crypto.open"; count "verify_cache.hits" ]

let test_link_revoked_after_hit () =
  let chain = conventional_chain ~expires:t_exp in
  let cache = Verify_cache.create () in
  let serials = warm ~cache chain in
  let authority = p "bulletin-board" in
  let ra_kp = Crypto.Rsa.generate drbg ~bits:512 in
  let revocation = Revocation.create ~issuer:authority ~issuer_pub:ra_kp.Crypto.Rsa.pub ~now:0 () in
  let bulletin =
    Revocation.sign ~key:ra_kp ~issuer:authority ~epoch:2 ~issued_at:0
      [ Revocation.By_serial (List.nth serials 1) ]
  in
  Alcotest.(check bool) "bulletin applies" true
    (Result.is_ok (Revocation.apply revocation bulletin));
  (* No generation bump here, so both opens are still remembered. *)
  refused_on_hits "revoked serial"
    (Printf.sprintf "certificate %s.. is revoked" (String.sub (List.nth serials 1) 0 8))
    ~hits:2
    (verify_conv ~revocation ~cache ~now:300 chain)

let test_link_window_after_hit () =
  let chain = conventional_chain ~expires:1000 in
  let cache = Verify_cache.create () in
  ignore (warm ~cache chain);
  refused_on_hits "window ended" "proxy-cert: expired" ~hits:2
    (verify_conv ~cache ~now:1000 chain)

let test_link_other_base_misses () =
  let chain = conventional_chain ~expires:t_exp in
  let cache = Verify_cache.create () in
  ignore (warm ~cache chain);
  let r, count = verify_conv ~cache ~now:300 { chain with Proxy.base = "other base" } in
  (match r with
  | Ok _ -> Alcotest.fail "certificates granted under another base ticket"
  | Error e ->
      Alcotest.(check string) "refused at the head" "proxy-cert: seal verification failed" e);
  Alcotest.(check (list int)) "one miss, one open, no hit" [ 1; 1; 0 ]
    [ count "verify_cache.misses"; count "crypto.open"; count "verify_cache.hits" ]

(* A link is found by its box's tag, and a hit compares the sealing key
   and the box the entry holds. A box that carries the remembered tag
   over other ciphertext finds that entry and misses, and its open fails;
   so does a box too short to carry a tag. The genuine chain still hits. *)
let test_link_copied_tag_misses () =
  let chain = conventional_chain ~expires:t_exp in
  let cache = Verify_cache.create () in
  ignore (warm ~cache chain);
  let head, tail =
    match chain.Proxy.cert_blobs with [ h; t ] -> (h, t) | _ -> Alcotest.fail "expected two links"
  in
  let last = String.length tail - 1 in
  let flipped =
    String.mapi (fun i c -> if i = last then Char.chr (Char.code c lxor 1) else c) tail
  in
  Alcotest.(check string) "the same tag" (Crypto.Aead.tag ~prefix:"" tail) (Crypto.Aead.tag ~prefix:"" flipped);
  let refused label blob want =
    let r, count = verify_conv ~cache ~now:300 { chain with Proxy.cert_blobs = [ head; blob ] } in
    (match r with
    | Ok _ -> Alcotest.failf "%s: granted" label
    | Error e -> Alcotest.(check string) label want e);
    Alcotest.(check (list int)) (label ^ ": hits, misses, opens") [ 1; 1; 1 ]
      [ count "verify_cache.hits"; count "verify_cache.misses"; count "crypto.open" ]
  in
  refused "another ciphertext under the remembered tag" flipped
    "proxy-cert: seal verification failed";
  refused "a box too short for a tag" (String.sub tail 0 (Crypto.Aead.overhead - 1))
    "proxy-cert: malformed blob";
  let r, count = verify_conv ~cache ~now:400 chain in
  Alcotest.(check bool) "the genuine chain verifies" true (Result.is_ok r);
  Alcotest.(check (list int)) "from two hits" [ 2; 0 ]
    [ count "verify_cache.hits"; count "verify_cache.misses" ]

(* --- Decoded certificates: a guard parses a verified certificate once --- *)

(* A file server's guard, keyed by a directory that can rebind alice, and
   what it is handed: a proxy presented to it, as wire. *)
type decoding = {
  guard : Guard.t;
  rebind : Principal.t -> Crypto.Rsa.private_ -> unit;
  metric : string -> int;
  wire : Proxy.t -> Wire.t;
}

let decoding () =
  let net = Sim.Net.create ~seed:"verify-cache-decode" () in
  let fs = p "fileserver" in
  let lookup, rebind = directory [ (alice, alice_kp) ] in
  let acl = Acl.create () in
  Acl.add acl ~target:"file1"
    { Acl.subject = Acl.Principal_is alice; rights = [ "read" ]; restrictions = [] };
  let guard = Guard.create net ~me:fs ~my_key:"k" ~lookup_pub:lookup ~acl () in
  {
    guard;
    rebind;
    metric = Sim.Metrics.get (Sim.Net.metrics net);
    wire = (fun proxy -> Guard.presented_to_wire (Guard.bind ~server:fs ~ticket:Testkit.ticket proxy));
  }

let decode d wire =
  match Guard.decode_presented d.guard wire with
  | Ok ({ Guard.pres = Proxy.Public_key certs; _ } as presented) -> (presented, certs)
  | Ok _ -> Alcotest.fail "expected a public-key presentation"
  | Error e -> Alcotest.fail e

(* Decode what the guard is handed, decide on it, and say what the
   decision cost: (hits, misses, RSA verifies). *)
let decide d wire =
  let before = List.map d.metric [ "verify_cache.hits"; "verify_cache.misses"; "crypto.rsa_verify" ] in
  let r =
    Result.bind (Guard.decode_presented d.guard wire) (fun presented ->
        Guard.decide d.guard ~ticket:Testkit.ticket ~operation:"read" ~target:"file1"
          ~presenter:(p "carol") ~proxies:[ presented ] ())
  in
  let after = List.map d.metric [ "verify_cache.hits"; "verify_cache.misses"; "crypto.rsa_verify" ] in
  (Result.map ignore r, List.map2 ( - ) after before)

let granted label (r, cost) want =
  (match r with Ok () -> () | Error e -> Alcotest.failf "%s: %s" label e);
  Alcotest.(check (list int)) (label ^ ": hits, misses, RSA verifies") want cost

let bad_signature label (r, cost) want =
  (match r with
  | Ok () -> Alcotest.failf "%s: granted" label
  | Error e ->
      Alcotest.(check string) (label ^ ": denial")
        "access denied: no ACL entry permits read on \"file1\" (no presented proxy was usable: \
         pk proxy-cert: bad signature)"
        e);
  Alcotest.(check (list int)) (label ^ ": hits, misses, RSA verifies") want cost

let same_certs a b = List.length a = List.length b && List.for_all2 ( == ) a b

let test_decoded_once () =
  let d = decoding () in
  let wire = d.wire (grant_proxy ~depth:2 ()) in
  (* Nothing is verified yet, so nothing is kept: each decode is afresh. *)
  let _, cold = decode d wire in
  Alcotest.(check bool) "cold decodes are fresh" false (same_certs cold (snd (decode d wire)));
  granted "first presentation" (decide d wire) [ 0; 3; 3 ];
  (* The first decode after the verdicts keeps its certificates, and the
     next returns those very values: decoding counts nothing. *)
  let _, first = decode d wire in
  let _, second = decode d wire in
  Alcotest.(check bool) "a warm decode returns the same certificates" true
    (same_certs first second);
  Alcotest.(check bool) "and not the cold ones" false (same_certs cold second);
  Alcotest.(check (list int)) "decoding counts no hit and no miss" [ 0; 3 ]
    [ d.metric "verify_cache.hits"; d.metric "verify_cache.misses" ];
  granted "warm presentation" (decide d wire) [ 3; 0; 0 ]

let test_copied_signature_misses () =
  let d = decoding () in
  let proxy = grant_proxy ~depth:2 () in
  let wire = d.wire proxy in
  granted "cold" (decide d wire) [ 0; 3; 3 ];
  let presented, certs = decode d wire in
  let head, tail = match certs with h :: t -> (h, t) | [] -> Alcotest.fail "empty chain" in
  let present certs =
    Guard.presented_to_wire { presented with Guard.pres = Proxy.Public_key certs }
  in
  (* The head's signature on a body that lives one microsecond longer. *)
  let body = head.Proxy_cert.pk_body in
  let forged =
    { head with Proxy_cert.pk_body = { body with Proxy_cert.expires = body.Proxy_cert.expires + 1 } }
  in
  bad_signature "copied onto another body" (decide d (present (forged :: tail))) [ 0; 1; 1 ];
  granted "genuine after a copied signature" (decide d wire) [ 3; 0; 0 ];
  (* The tail under another head of alice's: the guard hands back the very
     certificate it kept, and its verdict's signer is the first head's
     proxy key, not this one's. *)
  let other_head =
    match (grant_proxy ~depth:1 ()).Proxy.flavor with
    | Proxy.Public_key [ h ] -> h
    | _ -> Alcotest.fail "expected a one-certificate chain"
  in
  let _, moved = decode d (present (other_head :: tail)) in
  Alcotest.(check bool) "the tail decodes to the kept certificate" true
    (same_certs (List.tl moved) (List.tl (snd (decode d wire))));
  bad_signature "under another signer" (decide d (present (other_head :: tail))) [ 0; 2; 2 ];
  granted "genuine after another signer" (decide d wire) [ 3; 0; 0 ];
  (* alice's key rebound: the kept head is known by identity, and its
     signer is compared all the same. *)
  d.rebind alice (Crypto.Rsa.generate drbg ~bits:512);
  bad_signature "under a rebound key" (decide d wire) [ 0; 1; 1 ];
  d.rebind alice alice_kp;
  granted "genuine once the key is back" (decide d wire) [ 3; 0; 0 ]

let test_bump_drops_decoded () =
  let d = decoding () in
  let wire = d.wire (grant_proxy ~depth:2 ()) in
  granted "cold" (decide d wire) [ 0; 3; 3 ];
  let _, kept = decode d wire in
  Alcotest.(check bool) "kept" true (same_certs kept (snd (decode d wire)));
  Alcotest.(check int) "two links and a binding retired" 3
    (Verify_cache.bump_generation (Guard.verify_cache d.guard));
  let _, after = decode d wire in
  Alcotest.(check bool) "no certificate survives the bump" false
    (List.exists2 ( == ) kept after);
  granted "re-verified in full" (decide d wire) [ 0; 3; 3 ]

(* Over the fuzz harness's mutants of its pk-certificate seed, decoding
   through a cache that keeps the seed's decoded certificate, or through
   one that holds only its verdict, gives what decoding afresh gives: an
   equal certificate, or the same error. The seed still decodes to its
   kept certificate after each. *)
let prop_decode_agrees =
  let seed = lazy (
    let seeds, _ = Mbt.Fuzz.build () in
    let _, genuine, _ = List.find (fun (name, _, _) -> name = "pk-cert") seeds in
    let cert = Result.get_ok (Proxy_cert.pk_cert_of_wire genuine) in
    let verdict () =
      let cache = Verify_cache.create () in
      Verify_cache.record cache ~now:0 ~signed_bytes:(Proxy_cert.pk_signed_bytes cert)
        ~signature:cert.Proxy_cert.signature ~signer:"u0's key";
      cache
    in
    let warm = verdict () in
    let kept = Result.get_ok (Verify_cache.decode_cert warm ~now:0 genuine) in
    (genuine, verdict, warm, kept))
  in
  let same a b =
    match (a, b) with
    | Ok a, Ok b -> Wire.equal (Proxy_cert.pk_cert_to_wire a) (Proxy_cert.pk_cert_to_wire b)
    | Error a, Error b -> String.equal a b
    | Ok _, Error _ | Error _, Ok _ -> false
  in
  QCheck.Test.make ~name:"warm and fresh decodes agree on mutants" ~count:1000 QCheck.int
    (fun i ->
      let genuine, verdict, warm, kept = Lazy.force seed in
      let mutant =
        Mbt.Fuzz.mutate (Crypto.Drbg.create ~seed:(string_of_int i)) (Wire.encode genuine)
      in
      match Wire.decode mutant with
      | Error _ -> true
      | Ok v ->
          let fresh = Proxy_cert.pk_cert_of_wire v and cold = verdict () in
          let keeps cache =
            match Verify_cache.decode_cert cache ~now:0 genuine with
            | Ok c -> c == kept
            | Error _ -> false
          in
          same (Verify_cache.decode_cert warm ~now:0 v) fresh
          && same (Verify_cache.decode_cert cold ~now:0 v) fresh
          && same (Verify_cache.decode_cert cold ~now:0 v) fresh
          && keeps warm
          && same (Verify_cache.decode_cert cold ~now:0 genuine) (Ok kept))

(* --- Session bindings: a verdict holds what the binding binds --- *)

(* A binding's verdict holds the server, the ticket digest and the proxy
   key, and a hit compares all three. The binding a client made for one
   server over one ticket, presented over another ticket, or to another
   server that shares the cache, finds that verdict, misses, and is
   refused by the real check; the genuine presentation still hits. *)
let test_binding_elsewhere_misses () =
  let net = Sim.Net.create ~seed:"verify-cache-binding" () in
  let cache = Verify_cache.create () in
  let lookup, _ = directory [ (alice, alice_kp) ] in
  let acl = Acl.create () in
  Acl.add acl ~target:"file1"
    { Acl.subject = Acl.Principal_is alice; rights = [ "read" ]; restrictions = [] };
  let guard name =
    Guard.create net ~me:(p name) ~my_key:"k" ~lookup_pub:lookup ~verify_cache:cache ~acl ()
  in
  let fileserver = guard "fileserver" and elsewhere = guard "elsewhere" in
  let presented = Guard.bind ~server:(p "fileserver") ~ticket:Testkit.ticket (grant_proxy ~depth:1 ()) in
  let metric = Sim.Metrics.get (Sim.Net.metrics net) in
  let decide guard ~ticket =
    let counts () = List.map metric [ "verify_cache.hits"; "verify_cache.misses"; "crypto.rsa_verify" ] in
    let before = counts () in
    let r =
      Guard.decide guard ~ticket ~operation:"read" ~target:"file1" ~presenter:(p "carol")
        ~proxies:[ presented ] ()
    in
    (Result.map ignore r, List.map2 ( - ) (counts ()) before)
  in
  let refused label (r, cost) =
    (match r with
    | Ok () -> Alcotest.failf "%s: granted" label
    | Error e ->
        Alcotest.(check string) (label ^ ": denial")
          "access denied: no ACL entry permits read on \"file1\" (no presented proxy was usable: \
           session binding: invalid)"
          e);
    Alcotest.(check (list int)) (label ^ ": hits, misses, RSA verifies") [ 1; 1; 1 ] cost
  in
  granted "cold" (decide fileserver ~ticket:Testkit.ticket) [ 0; 2; 2 ];
  granted "warm" (decide fileserver ~ticket:Testkit.ticket) [ 2; 0; 0 ];
  refused "over another ticket" (decide fileserver ~ticket:(Ticket.digest "another ticket"));
  refused "at another server" (decide elsewhere ~ticket:Testkit.ticket);
  granted "genuine after both" (decide fileserver ~ticket:Testkit.ticket) [ 2; 0; 0 ]

let () =
  Alcotest.run "verify_cache"
    [ ( "memoized verification",
        [ ("repeat presentation hits", `Quick, test_repeat_presentation_hits);
          ("tampered cert never hits", `Quick, test_tampered_cert_never_hits);
          ("ttl expiry re-verifies", `Quick, test_ttl_expiry_reverifies);
          ("expired cert refused despite warm cache", `Quick,
           test_expired_cert_refused_despite_warm_cache);
          ("capacity bound + evictions", `Quick, test_capacity_bound_and_evictions);
          ("bump_generation is exact", `Quick, test_bump_generation_exact) ] );
      ( "key rebinding",
        [ ("bearer head denied", `Quick, test_rebind_bearer_head);
          ("delegate intermediate denied", `Quick, test_rebind_delegate_intermediate);
          ("guard default cache denies", `Quick, test_rebind_guard_default_cache) ] );
      ( "conventional links",
        [ ("revoked serial refused after a hit", `Quick, test_link_revoked_after_hit);
          ("ended window refused after a hit", `Quick, test_link_window_after_hit);
          ("another base ticket misses", `Quick, test_link_other_base_misses);
          ("a copied tag misses", `Quick, test_link_copied_tag_misses) ] );
      ( "session bindings",
        [ ("another ticket or server misses", `Quick, test_binding_elsewhere_misses) ] );
      ( "decoded certificates",
        [ ("a warm guard decodes a certificate once", `Quick, test_decoded_once);
          ("a copied signature misses", `Quick, test_copied_signature_misses);
          ("bump_generation drops decoded certificates", `Quick, test_bump_drops_decoded);
          QCheck_alcotest.to_alcotest prop_decode_agrees ] );
      ("replay cache", [ ("bounded under flood", `Quick, test_replay_cache_bound) ]) ]
