(* Revocation: signed epoch bulletins, subscriber staleness, explicit
   verify-cache invalidation, and the storm scenario end to end. *)

open Cluster
module R = Restriction

let realm = "r"
let p name = Principal.make ~realm name
let authority = p "bulletin-board"
let gina = p "gina"
let drbg = Crypto.Drbg.create ~seed:"revocation tests"
let minute = 60_000_000
let hour = 3_600_000_000

let ra_kp = Crypto.Rsa.generate drbg ~bits:512
let gina_kp = Crypto.Rsa.generate drbg ~bits:512
let other_kp = Crypto.Rsa.generate drbg ~bits:512

let lookup q = if Principal.equal q gina then Some gina_kp.Crypto.Rsa.pub else None

let grant ?(now = 0) ?(expires = 10 * hour) () =
  Proxy.grant_pk ~drbg ~now ~expires ~grantor:gina ~grantor_key:gina_kp ~proxy_bits:512
    ~restrictions:[ R.Authorized [ { R.target = "file1"; ops = [ "read" ] } ] ]
    ()

let certs_of proxy =
  match proxy.Proxy.flavor with
  | Proxy.Public_key certs -> certs
  | _ -> Alcotest.fail "expected public-key chain"

let head_body proxy = (List.hd (certs_of proxy)).Proxy_cert.pk_body

let sign ?(epoch = 2) ?(issued_at = 0) entries =
  Revocation.sign ~key:ra_kp ~issuer:authority ~epoch ~issued_at entries

let subscriber ?staleness_bound_us ?(now = 0) () =
  Revocation.create ~issuer:authority ~issuer_pub:ra_kp.Crypto.Rsa.pub ?staleness_bound_us ~now ()

(* --- bulletins --- *)

let test_bulletin_roundtrip () =
  let b =
    sign
      [ Revocation.By_serial "abc123";
        Revocation.By_grantor_epoch { grantor = gina; not_before = 42 } ]
  in
  Alcotest.(check bool) "authentic" true
    (Result.is_ok (Revocation.verify ra_kp.Crypto.Rsa.pub b));
  let b' = Result.get_ok (Revocation.of_wire (Revocation.to_wire b)) in
  Alcotest.(check bool) "wire roundtrip preserves authenticity" true
    (Result.is_ok (Revocation.verify ra_kp.Crypto.Rsa.pub b'));
  Alcotest.(check int) "epoch" b.Revocation.epoch b'.Revocation.epoch;
  Alcotest.(check int) "entries" 2 (List.length b'.Revocation.items)

let test_bulletin_forgery_refused () =
  let b = sign [ Revocation.By_serial "abc123" ] in
  (* Wrong key. *)
  Alcotest.(check bool) "wrong authority key" true
    (Result.is_error (Revocation.verify other_kp.Crypto.Rsa.pub b));
  (* Tampered content: an attacker cannot strip an entry. *)
  let stripped = { b with Revocation.items = [] } in
  Alcotest.(check bool) "stripped entries refused" true
    (Result.is_error (Revocation.verify ra_kp.Crypto.Rsa.pub stripped));
  (* Nor replay the signature onto a higher epoch. *)
  let bumped = { b with Revocation.epoch = 99 } in
  Alcotest.(check bool) "epoch splice refused" true
    (Result.is_error (Revocation.verify ra_kp.Crypto.Rsa.pub bumped))

let test_apply_is_monotonic () =
  let t = subscriber () in
  let b2 = sign ~epoch:2 ~issued_at:100 [ Revocation.By_serial "s1" ] in
  let b3 = sign ~epoch:3 ~issued_at:200 [ Revocation.By_serial "s1" ] in
  (match Revocation.apply t b3 with
  | Ok (Revocation.Applied { fresh; _ }) -> Alcotest.(check int) "b3 fresh" 1 fresh
  | _ -> Alcotest.fail "b3 should apply");
  Alcotest.(check int) "epoch" 3 (Revocation.epoch t);
  Alcotest.(check int) "as_of" 200 (Revocation.as_of t);
  (* An older bulletin is a replay: ignored, state untouched. *)
  (match Revocation.apply t b2 with
  | Ok Revocation.Ignored -> ()
  | _ -> Alcotest.fail "b2 is old news");
  Alcotest.(check int) "epoch unchanged" 3 (Revocation.epoch t);
  Alcotest.(check int) "as_of unchanged" 200 (Revocation.as_of t);
  (* A heartbeat (same entries, newer epoch) applies with nothing fresh. *)
  let b4 = sign ~epoch:4 ~issued_at:300 [ Revocation.By_serial "s1" ] in
  (match Revocation.apply t b4 with
  | Ok (Revocation.Applied { fresh; _ }) -> Alcotest.(check int) "heartbeat fresh" 0 fresh
  | _ -> Alcotest.fail "heartbeat should apply");
  Alcotest.(check int) "as_of advanced by heartbeat" 300 (Revocation.as_of t);
  (* A bulletin signed by the wrong key never applies. *)
  let forged =
    Revocation.sign ~key:other_kp ~issuer:authority ~epoch:9 ~issued_at:900
      [ Revocation.By_serial "s2" ]
  in
  Alcotest.(check bool) "forged refused" true (Result.is_error (Revocation.apply t forged));
  Alcotest.(check int) "forged did not advance" 4 (Revocation.epoch t)

(* --- revocation semantics --- *)

let test_revoked_by_serial_and_epoch () =
  let t = subscriber () in
  let victim = grant ~now:50 () in
  let body = head_body victim in
  Alcotest.(check bool) "clean body passes" true (Result.is_ok (Revocation.revoked t body));
  let _ =
    Result.get_ok
      (Revocation.apply t (sign ~epoch:2 [ Revocation.By_serial body.Proxy_cert.serial ]))
  in
  Alcotest.(check bool) "serial revoked" true (Result.is_error (Revocation.revoked t body));
  (* Grantor-epoch: everything gina signed before 100 dies; a cert re-issued
     at 100 or later (the refresh path) survives. *)
  let t2 = subscriber () in
  let _ =
    Result.get_ok
      (Revocation.apply t2
         (sign ~epoch:2
            [ Revocation.By_grantor_epoch { grantor = gina; not_before = 100 } ]))
  in
  Alcotest.(check bool) "old issue revoked" true (Result.is_error (Revocation.revoked t2 body));
  let refreshed = head_body (grant ~now:100 ()) in
  Alcotest.(check bool) "re-issued cert survives" true
    (Result.is_ok (Revocation.revoked t2 refreshed))

let test_stale_fails_closed () =
  let bound = 10 * minute in
  let t = subscriber ~staleness_bound_us:bound ~now:0 () in
  let body = head_body (grant ()) in
  Alcotest.(check bool) "fresh at creation" false (Revocation.stale t ~now:bound);
  Alcotest.(check bool) "inside bound: clean cert passes" true
    (Result.is_ok (Revocation.check t ~now:bound body));
  Alcotest.(check bool) "past bound: stale" true (Revocation.stale t ~now:(bound + 1));
  Alcotest.(check bool) "past bound: even a clean cert is refused" true
    (Result.is_error (Revocation.check t ~now:(bound + 1) body));
  (* A heartbeat refreshes the anchor and reopens service. *)
  let _ = Result.get_ok (Revocation.apply t (sign ~epoch:2 ~issued_at:(bound + 1) [])) in
  Alcotest.(check bool) "heartbeat unstales" true
    (Result.is_ok (Revocation.check t ~now:(2 * bound) body))

(* --- verify-cache invalidation --- *)

let test_cache_explicit_invalidation () =
  let invalidated = ref 0 in
  let cache = Verify_cache.create ~on_invalidate:(fun () -> incr invalidated) () in
  let certs = certs_of (grant ()) in
  Alcotest.(check bool) "verifies" true
    (Result.is_ok (Verifier.verify_pk ~lookup ~cache ~now:100 certs));
  let s = Verify_cache.stats cache in
  Alcotest.(check int) "cached" 1 s.Verify_cache.size;
  let n = Verify_cache.bump_generation cache in
  Alcotest.(check int) "bump retires every entry" 1 n;
  Alcotest.(check int) "observer fired per entry" 1 !invalidated;
  let s = Verify_cache.stats cache in
  Alcotest.(check int) "empty" 0 s.Verify_cache.size;
  Alcotest.(check int) "invalidations counted" 1 s.Verify_cache.invalidations;
  (* Re-presentation is a miss — it must re-run RSA, not re-hit. *)
  Alcotest.(check bool) "re-verifies" true
    (Result.is_ok (Verifier.verify_pk ~lookup ~cache ~now:100 certs));
  let s = Verify_cache.stats cache in
  Alcotest.(check int) "no hit after bump" 0 s.Verify_cache.hits

let test_revoked_link_never_served_from_cache () =
  (* The storm path in miniature: a chain is verified and cached, then a
     bulletin revokes its head. The cached entry must not shield it. *)
  let t = subscriber () in
  let cache = Verify_cache.create () in
  let proxy = grant ~now:0 () in
  let certs = certs_of proxy in
  Alcotest.(check bool) "warm" true
    (Result.is_ok (Verifier.verify_pk ~lookup ~cache ~revocation:t ~now:100 certs));
  let serial = (head_body proxy).Proxy_cert.serial in
  let _ = Result.get_ok (Revocation.apply t (sign ~epoch:2 [ Revocation.By_serial serial ])) in
  (* Even with the stale cached signature entry still present, the verifier
     consults revocation on every link. *)
  (match Verifier.verify_pk ~lookup ~cache ~revocation:t ~now:100 certs with
  | Error e ->
      let contains hay needle =
        let nl = String.length needle and hl = String.length hay in
        let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) ("names revocation: " ^ e) true
        (contains e "revoked" || contains e "revocation")
  | Ok _ -> Alcotest.fail "revoked chain served")

let test_guard_bulletin_invalidates_and_meters () =
  let net = Sim.Net.create ~seed:"guard-bulletin" () in
  let fs = p "fileserver" in
  let acl = Acl.create () in
  Acl.add acl ~target:"*"
    { Acl.subject = Acl.Principal_is gina; rights = [ "read" ]; restrictions = [] };
  let guard =
    Guard.create net ~me:fs ~my_key:"k" ~lookup_pub:lookup ~revocation:(subscriber ()) ~acl ()
  in
  let proxy = grant () in
  let decide () =
    let presented =
      Guard.present ~proxy ~time:(Sim.Net.now net) ~server:fs ~operation:"read" ~target:"file1" ()
    in
    Guard.decide guard ~operation:"read" ~target:"file1" ~presenter:(p "carol")
      ~proxies:[ presented ] ()
  in
  Alcotest.(check bool) "granted while clean" true (Result.is_ok (decide ()));
  Alcotest.(check bool) "cache warm" true
    ((Verify_cache.stats (Guard.verify_cache guard)).Verify_cache.size > 0);
  let serial = (head_body proxy).Proxy_cert.serial in
  (* A heartbeat applies without touching the cache... *)
  (match Guard.apply_bulletin guard (sign ~epoch:2 []) with
  | Ok true -> ()
  | _ -> Alcotest.fail "heartbeat should advance");
  Alcotest.(check int) "heartbeat does not bump"
    0
    (Sim.Metrics.get (Sim.Net.metrics net) "verify_cache.generation_bumps");
  (* ...while fresh coverage retires the generation and meters it. *)
  (match Guard.apply_bulletin guard (sign ~epoch:3 [ Revocation.By_serial serial ]) with
  | Ok true -> ()
  | _ -> Alcotest.fail "revoking bulletin should advance");
  let m = Sim.Net.metrics net in
  Alcotest.(check int) "generation bumped" 1 (Sim.Metrics.get m "verify_cache.generation_bumps");
  Alcotest.(check bool) "invalidations metered into Sim.Metrics" true
    (Sim.Metrics.get m "verify_cache.invalidations" > 0);
  Alcotest.(check bool) "bulletins applied metered" true
    (Sim.Metrics.get m "revocation.bulletins_applied" >= 2);
  Alcotest.(check bool) "revoked after bulletin" true (Result.is_error (decide ()));
  Alcotest.(check bool) "denial metered" true (Sim.Metrics.get m "revocation.denials" > 0);
  (* Replaying the old bulletin is ignored and does not resurrect anything. *)
  (match Guard.apply_bulletin guard (sign ~epoch:2 []) with
  | Ok false -> ()
  | _ -> Alcotest.fail "old bulletin must be ignored");
  Alcotest.(check bool) "still revoked" true (Result.is_error (decide ()))

let test_shed_frees_reissued_accept_once () =
  (* Section 7.7 meets revocation: a check's accept-once record outlives
     the revocation of the grantor who wrote it. The bulletin must shed
     the dead grantor's records, or a legitimately re-issued check reusing
     the identifier bounces against a record that can never be redeemed. *)
  let net = Sim.Net.create ~seed:"guard-shed" () in
  let fs = p "fileserver" in
  let acl = Acl.create () in
  Acl.add acl ~target:"*"
    { Acl.subject = Acl.Principal_is gina; rights = [ "read" ]; restrictions = [] };
  let guard =
    Guard.create net ~me:fs ~my_key:"k" ~lookup_pub:lookup ~revocation:(subscriber ()) ~acl ()
  in
  let check_no = "check-0042" in
  let issue ~now () =
    Proxy.grant_pk ~drbg ~now ~expires:(10 * hour) ~grantor:gina ~grantor_key:gina_kp
      ~proxy_bits:512
      ~restrictions:
        [ R.Authorized [ { R.target = "file1"; ops = [ "read" ] } ]; R.Accept_once check_no ]
      ()
  in
  let decide proxy =
    let presented =
      Guard.present ~proxy ~time:(Sim.Net.now net) ~server:fs ~operation:"read" ~target:"file1" ()
    in
    Guard.decide guard ~operation:"read" ~target:"file1" ~presenter:(p "carol")
      ~proxies:[ presented ] ()
  in
  let original = issue ~now:0 () in
  Alcotest.(check bool) "original check accepted" true (Result.is_ok (decide original));
  Alcotest.(check bool) "identifier recorded" true
    (Replay_cache.seen (Guard.replay_cache guard) ~now:(Sim.Net.now net) check_no);
  Alcotest.(check bool) "second presentation bounces" true (Result.is_error (decide original));
  (* Gina is revoked by grantor epoch; her accept-once records are shed
     with her. *)
  (match
     Guard.apply_bulletin guard
       (sign ~epoch:2 [ Revocation.By_grantor_epoch { grantor = gina; not_before = 100 } ])
   with
  | Ok true -> ()
  | _ -> Alcotest.fail "revoking bulletin should advance");
  Alcotest.(check bool) "records shed and metered" true
    (Sim.Metrics.get (Sim.Net.metrics net) "replay_cache.shed" > 0);
  Alcotest.(check bool) "identifier no longer held" false
    (Replay_cache.seen (Guard.replay_cache guard) ~now:(Sim.Net.now net) check_no);
  Alcotest.(check bool) "revoked check refused" true (Result.is_error (decide original));
  (* The re-issued check — same number, fresh post-revocation grant — must
     not collide with the dead record... *)
  Sim.Clock.advance (Sim.Net.clock net) 100;
  let reissued = issue ~now:100 () in
  Alcotest.(check bool) "re-issued check accepted" true (Result.is_ok (decide reissued));
  (* ...and accept-once still holds for the new incarnation. *)
  Alcotest.(check bool) "re-issued check is still accept-once" true
    (Result.is_error (decide reissued))

(* --- the storm scenario --- *)

let test_storm () =
  let cfg = Revocation_storm.default in
  let o = Revocation_storm.run cfg in
  (* Warm phase: every proxy works everywhere (2 passes x 2 servers x
     (grants + 1 hugh read)) + the voucher. *)
  Alcotest.(check int) "warm reads" ((2 * 2 * (cfg.Revocation_storm.grants + 1)) + 1)
    o.Revocation_storm.warm_reads;
  Alcotest.(check int) "revocations accepted" (cfg.Revocation_storm.grants + 1)
    o.Revocation_storm.revocations;
  Alcotest.(check bool) "epoch advanced" true (o.Revocation_storm.final_epoch > 1);
  (* Fresh server: revocation effective within one bulletin epoch. *)
  Alcotest.(check int) "fresh denials" cfg.Revocation_storm.grants
    o.Revocation_storm.fresh_denials;
  (* Partitioned server: degradation window, then fail closed. *)
  Alcotest.(check int) "degradation window serves" cfg.Revocation_storm.grants
    o.Revocation_storm.stale_window_served;
  Alcotest.(check int) "fail closed past bound" (cfg.Revocation_storm.grants + 1)
    o.Revocation_storm.stale_denials;
  Alcotest.(check int) "direct ACL still served while stale" 1
    o.Revocation_storm.direct_reads_while_stale;
  (* Refresh: the healthy lease renews, the revoked one is refused. *)
  Alcotest.(check bool) "refresh ok" true o.Revocation_storm.refresh_ok;
  Alcotest.(check bool) "revoked refresh refused" true
    o.Revocation_storm.refresh_refused_revoked;
  (* Heal: recovery, revoked stays revoked, accept-once state preserved. *)
  Alcotest.(check int) "healed denials" cfg.Revocation_storm.grants
    o.Revocation_storm.healed_denials;
  Alcotest.(check bool) "healed serves refreshed chain" true o.Revocation_storm.healed_serves;
  Alcotest.(check bool) "replay refused after heal" true o.Revocation_storm.replay_refused;
  (* The invalidation storm: generation bumps retired at least every warm
     chain on the synced server. *)
  Alcotest.(check bool) "generation bumps happened" true
    (o.Revocation_storm.generation_bumps > 0);
  Alcotest.(check bool) "storm retired the warm cache" true
    (o.Revocation_storm.invalidations >= cfg.Revocation_storm.grants + 1);
  (* Cluster: the bulletin reached the un-promoted standby too. *)
  Alcotest.(check bool) "bulletin on both replicas" true
    o.Revocation_storm.bulletin_on_standby;
  Alcotest.(check bool) "pre-storm check cleared" true o.Revocation_storm.check_cleared;
  Alcotest.(check bool) "post-storm check bounced" true o.Revocation_storm.check_bounced;
  (match o.Revocation_storm.conserved with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("conservation: " ^ e));
  Alcotest.(check bool) "stale denials metered" true
    (List.assoc "revocation.stale_denials" o.Revocation_storm.metrics > 0)

let test_storm_deterministic () =
  let a = Revocation_storm.run Revocation_storm.default in
  let b = Revocation_storm.run Revocation_storm.default in
  Alcotest.(check string) "digest (metrics and trace) byte-identical"
    a.Revocation_storm.digest b.Revocation_storm.digest

let () =
  Alcotest.run "revocation"
    [ ( "bulletins",
        [ ("roundtrip", `Quick, test_bulletin_roundtrip);
          ("forgery refused", `Quick, test_bulletin_forgery_refused);
          ("apply is monotonic", `Quick, test_apply_is_monotonic) ] );
      ( "semantics",
        [ ("by serial and grantor epoch", `Quick, test_revoked_by_serial_and_epoch);
          ("stale fails closed", `Quick, test_stale_fails_closed) ] );
      ( "verify cache",
        [ ("explicit invalidation", `Quick, test_cache_explicit_invalidation);
          ("revoked link never served from cache", `Quick,
           test_revoked_link_never_served_from_cache);
          ("guard bulletin invalidates and meters", `Quick,
           test_guard_bulletin_invalidates_and_meters);
          ("shed frees re-issued accept-once identifiers", `Quick,
           test_shed_frees_reissued_accept_once) ] );
      ( "storm",
        [ ("revocation storm under churn", `Quick, test_storm);
          ("same seed, same bytes", `Quick, test_storm_deterministic) ] ) ]
