(* The audit trail: chain inspection and the bearer/delegate contrast of
   Section 3.4. *)

module R = Restriction

let realm = "a"
let p name = Principal.make ~realm name
let alice = p "alice"
let bob = p "bob"
let carol = p "carol"

let drbg = Crypto.Drbg.create ~seed:"audit tests"
let alice_rsa = Crypto.Rsa.generate drbg ~bits:512
let bob_rsa = Crypto.Rsa.generate drbg ~bits:512
let carol_rsa = Crypto.Rsa.generate drbg ~bits:512

let test_delegate_chain_identifies_intermediates () =
  (* alice -> bob -> carol, both hops delegate-style. *)
  let proxy =
    Proxy.grant_pk ~drbg ~now:0 ~expires:1000 ~grantor:alice ~grantor_key:alice_rsa
      ~proxy_bits:512
      ~restrictions:[ R.Grantee ([ bob ], 1) ]
      ()
  in
  let proxy =
    Result.get_ok
      (Proxy.delegate_pk ~drbg ~now:0 ~expires:1000 ~intermediate:bob ~intermediate_key:bob_rsa
         ~proxy_bits:512
         ~restrictions:[ R.Grantee ([ carol ], 1) ]
         proxy)
  in
  let proxy =
    Result.get_ok
      (Proxy.delegate_pk ~drbg ~now:0 ~expires:1000 ~intermediate:carol
         ~intermediate_key:carol_rsa ~proxy_bits:512 ~restrictions:[] proxy)
  in
  let pres = Proxy.presentation proxy in
  let intermediates = Audit.identified_intermediates pres in
  Alcotest.(check int) "both intermediates identified" 2 (List.length intermediates);
  Alcotest.(check bool) "bob named" true (List.exists (Principal.equal bob) intermediates);
  Alcotest.(check bool) "carol named" true (List.exists (Principal.equal carol) intermediates);
  let chain = Audit.chain_of_presentation pres in
  Alcotest.(check int) "three links" 3 (List.length chain);
  Alcotest.(check string) "head kind" "signed-by-grantor" (List.hd chain).Audit.kind;
  (* The rendering is total. *)
  let rendered = Format.asprintf "%a" Audit.pp_chain chain in
  Alcotest.(check bool) "renders" true (String.length rendered > 0)

let test_bearer_chain_is_anonymous () =
  let proxy =
    Proxy.grant_pk ~drbg ~now:0 ~expires:1000 ~grantor:alice ~grantor_key:alice_rsa
      ~proxy_bits:512 ~restrictions:[] ()
  in
  let proxy =
    Result.get_ok
      (Proxy.restrict_pk ~drbg ~now:0 ~expires:1000 ~proxy_bits:512
         ~restrictions:[ R.Quota ("x", 1) ] proxy)
  in
  Alcotest.(check int) "no identified intermediates" 0
    (List.length (Audit.identified_intermediates (Proxy.presentation proxy)))

let test_conventional_chain_is_opaque () =
  let session_key = Crypto.Drbg.generate drbg 32 in
  let proxy =
    Proxy.grant_conventional ~drbg ~now:0 ~expires:1000 ~grantor:alice ~session_key ~base:"b"
      ~restrictions:[]
  in
  let proxy =
    Result.get_ok (Proxy.restrict_conventional ~drbg ~now:0 ~expires:1000 ~restrictions:[] proxy)
  in
  let chain = Audit.chain_of_presentation (Proxy.presentation proxy) in
  Alcotest.(check int) "base + two sealed" 3 (List.length chain);
  Alcotest.(check bool) "sealed links are opaque" true
    (List.for_all
       (fun (l : Audit.link) -> l.Audit.restriction_count = None)
       (List.tl chain))

let () =
  Alcotest.run "audit"
    [ ( "audit",
        [ ("delegate chain identifies intermediates", `Slow,
           test_delegate_chain_identifies_intermediates);
          ("bearer chain is anonymous", `Slow, test_bearer_chain_is_anonymous);
          ("conventional chain is opaque", `Quick, test_conventional_chain_is_opaque) ] ) ]
