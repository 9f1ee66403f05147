(* The hybrid realization (Section 6.1): RSA-signed certificates carrying a
   symmetric proxy key encrypted to the end-server. *)

module R = Restriction

let realm = "h"
let p name = Principal.make ~realm name
let alice = p "alice"
let server = p "server"
let other_server = p "other"

let drbg = Crypto.Drbg.create ~seed:"hybrid tests"
let alice_rsa = Crypto.Rsa.generate drbg ~bits:512
let server_rsa = Crypto.Rsa.generate drbg ~bits:512
let other_rsa = Crypto.Rsa.generate drbg ~bits:512

let lookup q = if Principal.equal q alice then Some alice_rsa.Crypto.Rsa.pub else None
let decrypt_server = Crypto.Rsa.decrypt server_rsa
let decrypt_other = Crypto.Rsa.decrypt other_rsa

let t_exp = 10_000_000

let read_obj = [ R.Authorized [ { R.target = "obj"; ops = [ "read" ] } ] ]

let grant ?(restrictions = read_obj) () =
  Result.get_ok
    (Proxy.grant_hybrid ~drbg ~now:0 ~expires:t_exp ~grantor:alice ~grantor_key:alice_rsa
       ~end_server:server ~end_server_pub:server_rsa.Crypto.Rsa.pub ~restrictions ())

let parts proxy =
  match proxy.Proxy.flavor with
  | Proxy.Hybrid (head, blobs) -> (head, blobs)
  | Proxy.Conventional _ | Proxy.Public_key _ -> Alcotest.fail "expected hybrid"

let verify ?(decrypt = decrypt_server) ?me proxy =
  Verifier.verify_hybrid ~lookup ~decrypt ?me ~now:100 (parts proxy)

let req ?(operation = "read") ?(target = "obj") () =
  R.request ~server ~time:100 ~operation ~target ()

let prove proxy r =
  Presentation.prove ~key:proxy.Proxy.key ~time:100
    ~request_digest:(Presentation.digest_request r)

let test_grant_verify () =
  let proxy = grant () in
  match verify proxy with
  | Error e -> Alcotest.fail e
  | Ok v ->
      Alcotest.(check bool) "grantor" true (Principal.equal v.Verifier.grantor alice);
      Alcotest.(check int) "chain of 1" 1 v.Verifier.chain_length;
      (* Possession proof is a cheap HMAC under the recovered sym key. *)
      let r = req () in
      Alcotest.(check bool) "authorize with PoP" true
        (Verifier.authorize v ~req:r ~proof:(prove proxy r) ~max_skew:1_000_000 = Ok ());
      Alcotest.(check bool) "restriction enforced" true
        (Result.is_error
           (Verifier.authorize v
              ~req:(req ~operation:"write" ())
              ~proof:(prove proxy (req ~operation:"write" ()))
              ~max_skew:1_000_000))

let test_only_named_server_can_use () =
  let proxy = grant () in
  (* A different server's key cannot recover the proxy key. *)
  Alcotest.(check bool) "other server fails to decrypt" true
    (Result.is_error (verify ~decrypt:decrypt_other proxy));
  (* And the me check pins the certificate to its named target. *)
  Alcotest.(check bool) "me mismatch refused" true
    (Result.is_error (verify ~me:other_server proxy));
  Alcotest.(check bool) "me match accepted" true (Result.is_ok (verify ~me:server proxy))

let test_third_party_verifiable () =
  (* Anyone can check the SIGNATURE without decrypting (world-readable
     certificate) — but cannot produce the commitment. *)
  let proxy = grant () in
  let head, _ = parts proxy in
  Alcotest.(check bool) "signature verifies publicly" true
    (Proxy_cert.verify_hybrid_signature alice_rsa.Crypto.Rsa.pub head = Ok ());
  (* The certificate bytes do not contain the proxy key in clear. *)
  (match proxy.Proxy.key with
  | Proxy.Sym k ->
      let bytes = Wire.encode (Proxy_cert.hybrid_cert_to_wire head) in
      let contains hay needle =
        let nh = String.length hay and nn = String.length needle in
        let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
        at 0
      in
      Alcotest.(check bool) "proxy key not in clear" false (contains bytes k)
  | Proxy.Keypair _ | Proxy.No_key -> Alcotest.fail "sym expected")

let test_forged_signature () =
  let mallory = Crypto.Rsa.generate drbg ~bits:512 in
  let forged =
    Result.get_ok
      (Proxy.grant_hybrid ~drbg ~now:0 ~expires:t_exp ~grantor:alice ~grantor_key:mallory
         ~end_server:server ~end_server_pub:server_rsa.Crypto.Rsa.pub ~restrictions:read_obj ())
  in
  Alcotest.(check bool) "forged grantor rejected" true (Result.is_error (verify forged))

let test_tampered_ciphertext () =
  let proxy = grant () in
  let head, blobs = parts proxy in
  let bad_key = Bytes.of_string head.Proxy_cert.h_enc_key in
  Bytes.set bad_key 3 (Char.chr (Char.code (Bytes.get bad_key 3) lxor 1));
  let tampered = { head with Proxy_cert.h_enc_key = Bytes.to_string bad_key } in
  Alcotest.(check bool) "ciphertext tamper breaks the signature" true
    (Result.is_error (Verifier.verify_hybrid ~lookup ~decrypt:decrypt_server ~now:100 (tampered, blobs)))

let test_cascade () =
  let proxy = grant () in
  let narrowed =
    Result.get_ok
      (Proxy.restrict_hybrid ~drbg ~now:0 ~expires:(t_exp / 2)
         ~restrictions:[ R.Quota ("pages", 2) ] proxy)
  in
  match verify narrowed with
  | Error e -> Alcotest.fail e
  | Ok v ->
      Alcotest.(check int) "chain of 2" 2 v.Verifier.chain_length;
      Alcotest.(check int) "restrictions accumulate" 2 (List.length v.Verifier.restrictions);
      Alcotest.(check int) "expiry tightens" (t_exp / 2) v.Verifier.expires;
      let r = req () in
      Alcotest.(check bool) "new key proves" true
        (Verifier.authorize v ~req:r ~proof:(prove narrowed r) ~max_skew:1_000_000 = Ok ());
      let stale_proof =
        Presentation.prove ~key:proxy.Proxy.key ~time:100
          ~request_digest:(Presentation.digest_request r)
      in
      Alcotest.(check bool) "old key refused" true
        (Result.is_error
           (Verifier.authorize v ~req:r ~proof:stale_proof ~max_skew:1_000_000));
      (* Cross-flavor cascading is refused. *)
      Alcotest.(check bool) "restrict_conventional refuses hybrid" true
        (Result.is_error
           (Proxy.restrict_conventional ~drbg ~now:0 ~expires:t_exp ~restrictions:[] narrowed));
      Alcotest.(check bool) "restrict_pk refuses hybrid" true
        (Result.is_error
           (Proxy.restrict_pk ~drbg ~now:0 ~expires:t_exp ~restrictions:[] narrowed))

let test_wire_roundtrip () =
  let proxy =
    Result.get_ok
      (Proxy.restrict_hybrid ~drbg ~now:0 ~expires:t_exp ~restrictions:[ R.Accept_once "x" ]
         (grant ()))
  in
  let pres = Proxy.presentation proxy in
  (match Proxy.presentation_of_wire (Proxy.presentation_to_wire pres) with
  | Ok pres' ->
      Alcotest.(check bool) "roundtrip verifies" true
        (Result.is_ok
           (Verifier.verify
              ~open_base:(fun _ -> Error "no base")
              ~lookup ~decrypt:decrypt_server ~now:100 pres'))
  | Error e -> Alcotest.fail e);
  (* Transfer (with key) roundtrips too. *)
  match Proxy.transfer_of_wire (Proxy.transfer_to_wire proxy) with
  | Ok proxy' ->
      let v = Result.get_ok (verify proxy') in
      let r = req () in
      Alcotest.(check bool) "transferred key proves" true
        (Verifier.authorize v ~req:r ~proof:(prove proxy' r) ~max_skew:1_000_000 = Ok ())
  | Error e -> Alcotest.fail e

let test_guard_integration () =
  (* A guard equipped with its RSA key accepts hybrid capabilities like any
     other; one without refuses them. *)
  let net = Sim.Net.create ~seed:"hybrid guard" () in
  let acl = Acl.create () in
  Acl.add acl ~target:"obj" { Acl.subject = Acl.Principal_is alice; rights = []; restrictions = [] };
  let guard_with =
    Guard.create net ~me:server ~my_key:(Sim.Net.fresh_key net) ~lookup_pub:lookup
      ~my_rsa:server_rsa ~acl ()
  in
  let guard_without =
    Guard.create net ~me:server ~my_key:(Sim.Net.fresh_key net) ~lookup_pub:lookup ~acl ()
  in
  let proxy = grant () in
  let presented =
    Guard.present ~proxy ~time:100 ~server ~operation:"read" ~target:"obj" ()
  in
  (match Guard.decide guard_with ~operation:"read" ~target:"obj" ~proxies:[ presented ] () with
  | Ok d -> Alcotest.(check bool) "acting for alice" true
      (List.exists (Principal.equal alice) d.Guard.acting_for)
  | Error e -> Alcotest.fail e);
  match Guard.decide guard_without ~operation:"read" ~target:"obj" ~proxies:[ presented ] () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "guard without a decryption key accepted a hybrid proxy"

let prop_hybrid_tamper =
  QCheck.Test.make ~name:"hybrid: any byte flip is detected" ~count:60
    (QCheck.pair (QCheck.int_bound 100_000) (QCheck.int_range 1 255))
    (fun (pos_seed, delta) ->
      let proxy = grant () in
      let head, _ = parts proxy in
      let bytes = Wire.encode (Proxy_cert.hybrid_cert_to_wire head) in
      let pos = pos_seed mod String.length bytes in
      let b = Bytes.of_string bytes in
      Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor delta));
      match Proxy_cert.hybrid_cert_of_wire (Result.get_ok (Wire.decode bytes)) with
      | exception _ -> true
      | Ok _ -> (
          match Wire.decode (Bytes.to_string b) with
          | Error _ -> true
          | Ok v -> (
              match Proxy_cert.hybrid_cert_of_wire v with
              | Error _ -> true
              | Ok mutant ->
                  Result.is_error
                    (Verifier.verify_hybrid ~lookup ~decrypt:decrypt_server ~now:100 (mutant, []))))
      | Error _ -> true)

let () =
  Alcotest.run "hybrid"
    [ ( "hybrid realization",
        [ ("grant/verify", `Slow, test_grant_verify);
          ("pinned to the named server", `Slow, test_only_named_server_can_use);
          ("third-party verifiable, key confidential", `Slow, test_third_party_verifiable);
          ("forged signature", `Slow, test_forged_signature);
          ("tampered ciphertext", `Slow, test_tampered_ciphertext);
          ("cascade", `Slow, test_cascade);
          ("wire roundtrips", `Slow, test_wire_roundtrip);
          ("guard integration", `Slow, test_guard_integration) ] );
      ("properties", List.map QCheck_alcotest.to_alcotest [ prop_hybrid_tamper ]) ]
