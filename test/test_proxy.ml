(* The core proxy machinery: granting, cascading, presentation, and
   end-server verification for both realizations (paper Sections 2-3, 6). *)

module R = Restriction

let realm = "r"
let p name = Principal.make ~realm name
let alice = p "alice"
let bob = p "bob"
let server = p "server"

let drbg = Crypto.Drbg.create ~seed:"proxy tests"
let hour = 3_600_000_000
let t0 = 0
let t_exp = 10 * hour

(* A fake base credential: the glue normally opens a real ticket; here we
   hand the verifier the base facts directly. *)
let base_key = Crypto.Drbg.generate drbg 32
let base_blob = "opaque-ticket-for-alice"

let open_base ?(base_restrictions = []) () blob =
  if blob = base_blob then
    Ok
      {
        Verifier.base_client = alice;
        base_session_key = base_key;
        base_expires = t_exp;
        base_restrictions;
      }
  else Error "unknown base credentials"

let read_file1 = R.Authorized [ { R.target = "file1"; ops = [ "read" ] } ]

let grant ?(restrictions = [ read_file1 ]) ?(expires = t_exp) () =
  Proxy.grant_conventional ~drbg ~now:t0 ~expires ~grantor:alice ~session_key:base_key
    ~base:base_blob ~restrictions

let req ?(time = 100) ?(operation = "read") ?(target = "file1") ?presenters () =
  R.request ~server ~time ~operation ~target ?presenters ()

let verify_c ?base_restrictions proxy =
  Verifier.verify_conventional ~open_base:(open_base ?base_restrictions ()) ~now:100
    (match proxy.Proxy.flavor with
    | Proxy.Conventional c -> c
    | Proxy.Public_key _ | Proxy.Hybrid _ -> Alcotest.fail "expected conventional")

(* The ticket the requests ride, and a proxy key's binding to it: a
   bearer proxy's proof of possession. *)
let ticket = Crypto.Sha256.digest "the ticket the requests ride"
let bind ?(server = server) ?(ticket = ticket) proxy =
  Presentation.bind proxy.Proxy.key ~server ~ticket

(* None of these chains carries a stateful restriction, so a verifier
   that keeps no records decides them. *)
let authorize ?(ticket = ticket) verified ~req:r ~binding =
  Result.map ignore
    (Verifier.authorize ~held:R.no_state verified ~req:r ~ticket:(Some ticket) ~binding)

(* --- conventional --- *)

let test_grant_and_verify () =
  let proxy = grant () in
  match verify_c proxy with
  | Error e -> Alcotest.fail e
  | Ok v ->
      Alcotest.(check bool) "grantor" true (Principal.equal v.Verifier.grantor alice);
      Alcotest.(check int) "chain length" 1 v.Verifier.chain_length;
      Alcotest.(check int) "one restriction" 1 (List.length v.Verifier.restrictions);
      Alcotest.(check int) "expiry" t_exp v.Verifier.expires;
      let r = req () in
      Alcotest.(check bool) "authorized with its binding" true
        (authorize v ~req:r ~binding:(bind proxy) = Ok ())

let test_bearer_requires_possession () =
  let proxy = grant () in
  let v = Result.get_ok (verify_c proxy) in
  let r = req () in
  (match authorize v ~req:r ~binding:None with
  | Error e -> Alcotest.(check string) "no proof" "bearer proxy requires proof of possession" e
  | Ok () -> Alcotest.fail "accepted without possession proof");
  (* A binding made with a different key must fail. *)
  let wrong = { proxy with Proxy.key = Proxy.Sym (Crypto.Drbg.generate drbg 32) } in
  Alcotest.(check (result unit string)) "wrong key rejected" (Error "session binding: invalid")
    (authorize v ~req:r ~binding:(bind wrong))

(* A binding names one server and one ticket; over any other it proves
   nothing. *)
let test_binding_names_session () =
  let proxy = grant ~restrictions:[] () in
  let v = Result.get_ok (verify_c proxy) in
  let r = req () in
  Alcotest.(check (result unit string)) "its own session" (Ok ())
    (authorize v ~req:r ~binding:(bind proxy));
  let other = Crypto.Sha256.digest "another ticket" in
  Alcotest.(check (result unit string)) "another ticket" (Error "session binding: invalid")
    (authorize ~ticket:other v ~req:r ~binding:(bind proxy));
  Alcotest.(check (result unit string)) "another server" (Error "session binding: invalid")
    (authorize v ~req:r ~binding:(bind ~server:(p "elsewhere") proxy));
  Alcotest.(check (result unit string)) "no ticket"
    (Error "session binding: the request rode no ticket")
    (Result.map ignore
       (Verifier.authorize ~held:R.no_state v ~req:r ~ticket:None ~binding:(bind proxy)))

(* Bob reads file1 with alice's capability over his own ticket; the
   binding rides every request. *)
type capability_world = {
  cw : Testkit.world;
  bob_creds : Ticket.credentials;
  fs_name : Principal.t;
  cap : Proxy.t;
}

let capability_world () =
  let cw = Testkit.create ~seed:"capability on the wire" () in
  let alice, _ = Testkit.enrol cw "alice" in
  let bob, _ = Testkit.enrol cw "bob" in
  let fs_name, fs_key = Testkit.enrol cw "files" in
  let acl = Acl.create () in
  Acl.add acl
      ~target:"file1" { Acl.subject = Acl.Principal_is alice; rights = []; restrictions = [] };
  let fs = File_server.create cw.Testkit.net ~me:fs_name ~my_key:fs_key ~acl () in
  File_server.install fs;
  File_server.put_direct fs ~path:"file1" "contents";
  let cap =
    Result.get_ok
      (Capability.mint_via_kdc cw.Testkit.net ~kdc:cw.Testkit.kdc_name
         ~tgt:(Testkit.login cw alice) ~end_server:fs_name ~target:"file1" ~ops:[] ())
  in
  let bob_creds = Testkit.credentials_for cw ~tgt:(Testkit.login cw bob) fs_name in
  { cw; bob_creds; fs_name; cap }

let bob_reads cw =
  File_server.read cw.cw.Testkit.net ~creds:cw.bob_creds ~proxies:[ cw.cap ] ~path:"file1" ()

(* The binding names a session, not a request: what keeps a captured
   request from being turned into another is the authenticator, which
   covers the payload. A tap that rewrites bob's read into a write leaves
   the binding intact and is still refused before the handler runs. *)
let test_proof_binds_request () =
  let cw = capability_world () in
  let net = cw.cw.Testkit.net in
  let into_write = function
    | Wire.L [ Wire.S "read"; path; _; proxies; groups ] ->
        Wire.L [ Wire.S "write"; path; Wire.S "HACKED"; proxies; groups ]
    | p -> p
  in
  Sim.Net.set_tap net (fun ~dir ~src:_ ~dst:_ payload ->
      match dir with
      | `Request -> Sim.Net.Replace (Testkit.rewrite_request into_write payload)
      | `Response -> Sim.Net.Deliver);
  let rewritten = bob_reads cw in
  Sim.Net.clear_tap net;
  Alcotest.(check (result string string)) "rewritten operation refused"
    (Error "authenticator: seal verification failed") rewritten;
  Alcotest.(check (result string string)) "file unchanged" (Ok "contents") (bob_reads cw)

(* Freshness is the authenticator's and the ticket's: a captured request
   replayed past the skew window is refused, and so is every request once
   the ticket it rides has expired. *)
let test_proof_freshness () =
  let cw = capability_world () in
  let net = cw.cw.Testkit.net in
  let captured = ref None in
  Sim.Net.set_tap net (fun ~dir ~src:_ ~dst:_ payload ->
      (match dir with `Request when !captured = None -> captured := Some payload | _ -> ());
      Sim.Net.Deliver);
  Alcotest.(check (result string string)) "bob reads" (Ok "contents") (bob_reads cw);
  Sim.Net.clear_tap net;
  Sim.Clock.advance (Sim.Net.clock net) (6 * 60 * 1_000_000);
  let replay = Sim.Net.rpc net ~src:"mallory" ~dst:(Principal.to_string cw.fs_name)
      (Option.get !captured) in
  Alcotest.(check (result string string)) "stale replay refused"
    (Ok (Wire.encode (Wire.L [ Wire.S "err"; Wire.S "authenticator outside freshness window" ])))
    replay;
  Sim.Clock.advance (Sim.Net.clock net) (cw.bob_creds.Ticket.cred_expires - Sim.Net.now net);
  Alcotest.(check (result string string)) "expired ticket refused" (Error "ticket expired")
    (bob_reads cw)

let test_restriction_enforced () =
  let proxy = grant () in
  let v = Result.get_ok (verify_c proxy) in
  let r = req ~operation:"write" () in
  Alcotest.(check bool) "write refused" true
    (Result.is_error (authorize v ~req:r ~binding:(bind proxy)))

let test_base_restrictions_apply () =
  (* Restrictions attached to the login credentials themselves (Section 6.3)
     constrain every proxy derived from them. *)
  let proxy = grant ~restrictions:[] () in
  let quota = [ R.Quota ("pages", 1) ] in
  let v = Result.get_ok (verify_c ~base_restrictions:quota proxy) in
  let r = { (req ()) with R.spend = Some ("pages", 5) } in
  Alcotest.(check bool) "base quota enforced" true
    (Result.is_error (authorize v ~req:r ~binding:(bind proxy)))

let test_cascade_accumulates () =
  let proxy = grant ~restrictions:[ read_file1 ] () in
  let step1 =
    Result.get_ok
      (Proxy.restrict_conventional ~drbg ~now:t0 ~expires:(t_exp / 2)
         ~restrictions:[ R.Quota ("pages", 3) ] proxy)
  in
  let step2 =
    Result.get_ok
      (Proxy.restrict_conventional ~drbg ~now:t0 ~expires:t_exp
         ~restrictions:[ R.Issued_for [ server ] ] step1)
  in
  match verify_c step2 with
  | Error e -> Alcotest.fail e
  | Ok v ->
      Alcotest.(check int) "chain length 3" 3 v.Verifier.chain_length;
      Alcotest.(check int) "restrictions union" 3 (List.length v.Verifier.restrictions);
      Alcotest.(check int) "tightest expiry wins" (t_exp / 2) v.Verifier.expires;
      Alcotest.(check int) "head expiry is the head's" t_exp v.Verifier.head_expires;
      Alcotest.(check int) "serials recorded" 3 (List.length v.Verifier.serials);
      (* The final key is the one that proves possession; earlier keys no
         longer suffice. *)
      let r = req () in
      Alcotest.(check bool) "final key works" true
        (authorize v ~req:r ~binding:(bind step2) = Ok ());
      Alcotest.(check bool) "head key no longer proves" true
        (Result.is_error (authorize v ~req:r ~binding:(bind proxy)))

let test_cascade_cannot_remove () =
  (* Deriving can only add restrictions: the original Authorized stays in
     force no matter what the intermediate writes. *)
  let proxy = grant ~restrictions:[ read_file1 ] () in
  let widened =
    Result.get_ok
      (Proxy.restrict_conventional ~drbg ~now:t0 ~expires:t_exp
         ~restrictions:[ R.Authorized [ { R.target = "file2"; ops = [] } ] ] proxy)
  in
  let v = Result.get_ok (verify_c widened) in
  let r = req ~target:"file2" ~operation:"read" () in
  Alcotest.(check bool) "file2 still refused (intersection, not union)" true
    (Result.is_error (authorize v ~req:r ~binding:(bind widened)))

let test_wrong_session_key_fails () =
  let stranger_key = Crypto.Drbg.generate drbg 32 in
  let proxy =
    Proxy.grant_conventional ~drbg ~now:t0 ~expires:t_exp ~grantor:alice
      ~session_key:stranger_key ~base:base_blob ~restrictions:[]
  in
  Alcotest.(check bool) "seal under wrong key fails" true (Result.is_error (verify_c proxy))

let test_tampered_cert_fails () =
  let proxy = grant () in
  match proxy.Proxy.flavor with
  | Proxy.Public_key _ | Proxy.Hybrid _ -> Alcotest.fail "conventional expected"
  | Proxy.Conventional chain ->
      let blob = List.hd chain.Proxy.cert_blobs in
      let tampered = Bytes.of_string blob in
      Bytes.set tampered 50 (Char.chr (Char.code (Bytes.get tampered 50) lxor 1));
      let chain' = { chain with Proxy.cert_blobs = [ Bytes.to_string tampered ] } in
      Alcotest.(check bool) "tamper detected" true
        (Result.is_error (Verifier.verify_conventional ~open_base:(open_base ()) ~now:100 chain'))

let test_bare_ticket_rejected () =
  let chain = { Proxy.base = base_blob; cert_blobs = [] } in
  match Verifier.verify_conventional ~open_base:(open_base ()) ~now:100 chain with
  | Error e -> Alcotest.(check bool) "explains" true (e <> "")
  | Ok _ -> Alcotest.fail "bare ticket accepted as proxy"

let test_expired_chain () =
  let proxy = grant ~expires:50 () in
  Alcotest.(check bool) "expired cert fails verification" true
    (Result.is_error (verify_c proxy))

let test_delegate_proxy () =
  let proxy = grant ~restrictions:[ R.Grantee ([ bob ], 1); read_file1 ] () in
  let v = Result.get_ok (verify_c proxy) in
  (* Bob authenticated himself to the end-server: no PoP needed. *)
  let r = req ~presenters:[ bob ] () in
  Alcotest.(check bool) "named delegate passes" true (authorize v ~req:r ~binding:None = Ok ());
  let r_carol = req ~presenters:[ p "carol" ] () in
  Alcotest.(check bool) "stranger refused" true
    (Result.is_error (authorize v ~req:r_carol ~binding:None));
  let r_nobody = req () in
  Alcotest.(check bool) "anonymous refused" true
    (Result.is_error (authorize v ~req:r_nobody ~binding:None))

let test_presentation_excludes_key () =
  let proxy = grant () in
  let wire = Proxy.presentation_to_wire (Proxy.presentation proxy) in
  let bytes = Wire.encode wire in
  (match proxy.Proxy.key with
  | Proxy.Sym k ->
      (* The secret key must not appear in the presented bytes. *)
      let contains hay needle =
        let nh = String.length hay and nn = String.length needle in
        let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
        at 0
      in
      Alcotest.(check bool) "proxy key not on the wire" false (contains bytes k)
  | Proxy.Keypair _ | Proxy.No_key -> Alcotest.fail "conventional expected");
  match Proxy.presentation_of_wire wire with
  | Ok pres ->
      Alcotest.(check bool) "roundtrip verifies" true
        (Result.is_ok
           (Verifier.verify ~open_base:(open_base ()) ~lookup:(fun _ -> None) ~now:100 pres))
  | Error e -> Alcotest.fail e

let test_transfer_roundtrip () =
  let proxy = grant () in
  match Proxy.transfer_of_wire (Proxy.transfer_to_wire proxy) with
  | Error e -> Alcotest.fail e
  | Ok proxy' ->
      let v = Result.get_ok (verify_c proxy') in
      let r = req () in
      Alcotest.(check bool) "transferred key still proves" true
        (authorize v ~req:r ~binding:(bind proxy') = Ok ())

(* --- public key --- *)

let pk_bits = 512
let alice_kp = Crypto.Rsa.generate drbg ~bits:512
let bob_kp = Crypto.Rsa.generate drbg ~bits:512

let lookup p =
  if Principal.equal p alice then Some alice_kp.Crypto.Rsa.pub
  else if Principal.equal p bob then Some bob_kp.Crypto.Rsa.pub
  else None

let grant_pk ?(restrictions = [ read_file1 ]) () =
  Proxy.grant_pk ~drbg ~now:t0 ~expires:t_exp ~grantor:alice ~grantor_key:alice_kp
    ~proxy_bits:pk_bits ~restrictions ()

let verify_pk proxy =
  match proxy.Proxy.flavor with
  | Proxy.Public_key certs -> Verifier.verify_pk ~lookup ~now:100 certs
  | Proxy.Conventional _ | Proxy.Hybrid _ -> Alcotest.fail "expected public-key"

let test_pk_grant_verify () =
  let proxy = grant_pk () in
  match verify_pk proxy with
  | Error e -> Alcotest.fail e
  | Ok v ->
      Alcotest.(check bool) "grantor" true (Principal.equal v.Verifier.grantor alice);
      let r = req () in
      Alcotest.(check bool) "authorized" true (authorize v ~req:r ~binding:(bind proxy) = Ok ())

let test_pk_unknown_grantor () =
  let mallory_kp = Crypto.Rsa.generate drbg ~bits:pk_bits in
  let proxy =
    Proxy.grant_pk ~drbg ~now:t0 ~expires:t_exp ~grantor:(p "mallory") ~grantor_key:mallory_kp
      ~proxy_bits:pk_bits ~restrictions:[] ()
  in
  Alcotest.(check bool) "no key binding, no trust" true (Result.is_error (verify_pk proxy))

let test_pk_signature_substitution () =
  (* Mallory signs a certificate claiming alice as grantor: the signature
     check against alice's real key must fail. *)
  let mallory_kp = Crypto.Rsa.generate drbg ~bits:512 in
  let proxy =
    Proxy.grant_pk ~drbg ~now:t0 ~expires:t_exp ~grantor:alice ~grantor_key:mallory_kp
      ~proxy_bits:pk_bits ~restrictions:[] ()
  in
  Alcotest.(check bool) "forged grantor rejected" true (Result.is_error (verify_pk proxy))

let test_pk_bearer_cascade () =
  let proxy = grant_pk () in
  let cascaded =
    Result.get_ok
      (Proxy.restrict_pk ~drbg ~now:t0 ~expires:t_exp ~proxy_bits:pk_bits
         ~restrictions:[ R.Quota ("pages", 2) ] proxy)
  in
  match verify_pk cascaded with
  | Error e -> Alcotest.fail e
  | Ok v ->
      Alcotest.(check int) "chain of 2" 2 v.Verifier.chain_length;
      Alcotest.(check int) "restrictions add" 2 (List.length v.Verifier.restrictions);
      let r = req () in
      Alcotest.(check bool) "new key proves" true
        (authorize v ~req:r ~binding:(bind cascaded) = Ok ());
      Alcotest.(check bool) "old key refused" true
        (Result.is_error (authorize v ~req:r ~binding:(bind proxy)))

let test_pk_delegate_cascade () =
  (* Alice grants to bob as a named delegate; bob extends the chain signing
     with his own long-term key, leaving an audit trail. *)
  let proxy = grant_pk ~restrictions:[ R.Grantee ([ bob ], 1); read_file1 ] () in
  let extended =
    Result.get_ok
      (Proxy.delegate_pk ~drbg ~now:t0 ~expires:t_exp ~intermediate:bob ~intermediate_key:bob_kp
         ~proxy_bits:pk_bits ~restrictions:[ R.Quota ("pages", 1) ] proxy)
  in
  match verify_pk extended with
  | Error e -> Alcotest.fail e
  | Ok v ->
      Alcotest.(check int) "chain of 2" 2 v.Verifier.chain_length;
      (* The audit trail: bob's name is in the chain's certificates. *)
      (match extended.Proxy.flavor with
      | Proxy.Public_key certs ->
          Alcotest.(check bool) "intermediate identified" true
            (List.exists
               (fun (c : Proxy_cert.pk_cert) ->
                 match c.Proxy_cert.pk_signer with
                 | Proxy_cert.By_principal q -> Principal.equal q bob
                 | _ -> false)
               certs)
      | Proxy.Conventional _ | Proxy.Hybrid _ -> Alcotest.fail "pk expected");
      let r = req () in
      Alcotest.(check bool) "possession of final key suffices with grantee still satisfied" true
        (authorize v ~req:{ r with R.presenters = [ bob ] } ~binding:(bind extended) = Ok ())

let test_pk_delegate_cascade_requires_naming () =
  (* Carol (not a named grantee) cannot extend a delegate chain under her
     own signature. *)
  let carol_kp = Crypto.Rsa.generate drbg ~bits:512 in
  let carol = p "carol" in
  let proxy = grant_pk ~restrictions:[ R.Grantee ([ bob ], 1) ] () in
  let extended =
    Result.get_ok
      (Proxy.delegate_pk ~drbg ~now:t0 ~expires:t_exp ~intermediate:carol
         ~intermediate_key:carol_kp ~proxy_bits:pk_bits ~restrictions:[] proxy)
  in
  Alcotest.(check bool) "unnamed intermediate rejected" true
    (Result.is_error (verify_pk extended));
  (* Likewise, delegate-extending a bearer chain is meaningless. *)
  let bearer = grant_pk ~restrictions:[] () in
  let bad =
    Result.get_ok
      (Proxy.delegate_pk ~drbg ~now:t0 ~expires:t_exp ~intermediate:bob ~intermediate_key:bob_kp
         ~proxy_bits:pk_bits ~restrictions:[] bearer)
  in
  Alcotest.(check bool) "bearer chain refuses delegate extension" true
    (Result.is_error (verify_pk bad))

let test_pk_cert_wire_roundtrip () =
  let proxy = grant_pk () in
  match proxy.Proxy.flavor with
  | Proxy.Public_key [ cert ] -> (
      match Proxy_cert.pk_cert_of_wire (Proxy_cert.pk_cert_to_wire cert) with
      | Ok cert' ->
          Alcotest.(check bool) "signature survives" true
            (Result.is_ok (Verifier.verify_pk ~lookup ~now:100 [ cert' ]))
      | Error e -> Alcotest.fail e)
  | _ -> Alcotest.fail "single pk cert expected"

(* The grantor signs the re-encoded fields, so a decoder that dropped an
   appended field would verify bytes the grantor never signed: a field
   appended to the certificate, its body, its signer, its grantor or a
   restriction is refused. *)
let test_pk_cert_trailing_fields () =
  let cert =
    match (grant_pk ~restrictions:[ R.Quota ("usd", 5) ] ()).Proxy.flavor with
    | Proxy.Public_key [ cert ] -> cert
    | _ -> Alcotest.fail "single pk cert expected"
  in
  let v = Proxy_cert.pk_cert_to_wire cert in
  let extra = function Wire.L items -> Wire.L (items @ [ Wire.S "extra" ]) | w -> w in
  let in_body f = function
    | Wire.L [ body; pub; signer; signature ] -> Wire.L [ f body; pub; signer; signature ]
    | w -> w
  in
  Alcotest.(check bool) "unmodified decodes" true (Result.is_ok (Proxy_cert.pk_cert_of_wire v));
  List.iter
    (fun (level, w) ->
      Alcotest.(check bool) (level ^ " extended") false (Wire.equal v w);
      Alcotest.(check bool) (level ^ " refused") true
        (Result.is_error (Proxy_cert.pk_cert_of_wire w)))
    [ ("certificate", extra v);
      ("body", in_body extra v);
      ( "signer",
        match v with
        | Wire.L [ body; pub; signer; signature ] -> Wire.L [ body; pub; extra signer; signature ]
        | w -> w );
      ("grantor", in_body (function Wire.L (g :: rest) -> Wire.L (extra g :: rest) | w -> w) v);
      ( "quota",
        in_body
          (function
            | Wire.L [ g; s; i; e; Wire.L [ q ] ] -> Wire.L [ g; s; i; e; Wire.L [ extra q ] ]
            | w -> w)
          v ) ]

(* The signature covers the proxy key's bytes as they arrived, so the key
   slot takes one spelling only: a trailing byte, or a modulus padded with
   a leading zero, names the same numbers in other bytes and is refused at
   decode. *)
let test_pk_cert_key_bytes_exact () =
  let cert =
    match (grant_pk ()).Proxy.flavor with
    | Proxy.Public_key [ cert ] -> cert
    | _ -> Alcotest.fail "single pk cert expected"
  in
  let with_key f =
    match Proxy_cert.pk_cert_to_wire cert with
    | Wire.L [ body; Wire.S key; signer; signature ] ->
        Wire.L [ body; Wire.S (f key); signer; signature ]
    | _ -> Alcotest.fail "keyed pk cert expected"
  in
  let be32 k = String.init 4 (fun i -> Char.chr ((k lsr (8 * (3 - i))) land 0xff)) in
  let lead_zero key =
    let nlen = Int32.to_int (String.get_int32_be key 0) in
    be32 (nlen + 1) ^ "\x00" ^ String.sub key 4 (String.length key - 4)
  in
  Alcotest.(check bool) "as signed, it verifies" true
    (Result.is_ok
       (Result.bind (Proxy_cert.pk_cert_of_wire (with_key Fun.id)) (fun c ->
            Verifier.verify_pk ~lookup ~now:100 [ c ])));
  List.iter
    (fun (what, f) ->
      Alcotest.(check (result unit string)) what (Error "pk proxy-cert: malformed proxy key")
        (Result.map ignore (Proxy_cert.pk_cert_of_wire (with_key f))))
    [ ("a trailing byte", fun key -> key ^ "\x00"); ("a leading zero in the modulus", lead_zero) ]

(* --- key-less delegate certificates --- *)

let keyless_no_grantee = "pk proxy-cert: key-less certificate names no grantee"

let grant_keyless ?(restrictions = [ R.Grantee ([ bob ], 1); read_file1 ]) () =
  Proxy.grant_keyless ~drbg ~now:t0 ~expires:t_exp ~grantor:alice ~grantor_key:alice_kp
    ~restrictions ()

let pk_certs proxy =
  match proxy.Proxy.flavor with
  | Proxy.Public_key certs -> certs
  | Proxy.Conventional _ | Proxy.Hybrid _ -> Alcotest.fail "expected public-key"

let test_keyless_needs_grantee () =
  (* Well signed, but with no proxy key and no grantee nobody could
     exercise it: the decoder, the verifier and both key-less constructors
     refuse it with one error. *)
  let body =
    { Proxy_cert.grantor = alice; serial = "s-1"; issued_at = t0; expires = t_exp;
      restrictions = [ read_file1 ] }
  in
  let cert =
    Proxy_cert.sign_pk ~key:alice_kp ~signer:Proxy_cert.By_grantor_key ~proxy_pub:None body
  in
  Alcotest.(check (result unit string)) "verifier refuses" (Error keyless_no_grantee)
    (Result.map ignore (Verifier.verify_pk ~lookup ~now:100 [ cert ]));
  Alcotest.(check (result unit string)) "decoder refuses" (Error keyless_no_grantee)
    (Result.map ignore (Proxy_cert.pk_cert_of_wire (Proxy_cert.pk_cert_to_wire cert)));
  Alcotest.check_raises "grant_keyless refuses"
    (Invalid_argument ("Proxy.grant_keyless: " ^ keyless_no_grantee)) (fun () ->
      ignore (grant_keyless ~restrictions:[ read_file1 ] ()));
  Alcotest.(check (result unit string)) "delegate_keyless refuses" (Error keyless_no_grantee)
    (Result.map ignore
       (Proxy.delegate_keyless ~drbg ~now:t0 ~expires:t_exp ~intermediate:bob
          ~intermediate_key:bob_kp ~restrictions:[] (grant_keyless ())))

let test_keyless_then_proxy_key () =
  (* A proxy-key signature needs the previous certificate's proxy key; after
     a key-less certificate there is none, whoever signed the link. *)
  let head = grant_keyless () in
  let body =
    { Proxy_cert.grantor = bob; serial = "s-2"; issued_at = t0; expires = t_exp;
      restrictions = [] }
  in
  let link =
    Proxy_cert.sign_pk ~key:alice_kp ~signer:Proxy_cert.By_proxy_key
      ~proxy_pub:(Some bob_kp.Crypto.Rsa.pub) body
  in
  Alcotest.(check (result unit string)) "refused"
    (Error "proxy-key signature after a key-less certificate")
    (Result.map ignore (Verifier.verify_pk ~lookup ~now:100 (pk_certs head @ [ link ])))

let test_keyless_key_slot_signed () =
  (* The signature covers the key slot: stripping the key from a keyed
     delegate certificate, or adding one to a key-less one, breaks it. *)
  let keyed = List.hd (pk_certs (grant_pk ~restrictions:[ R.Grantee ([ bob ], 1) ] ())) in
  let keyless = List.hd (pk_certs (grant_keyless ())) in
  let verify c = Result.map ignore (Verifier.verify_pk ~lookup ~now:100 [ c ]) in
  Alcotest.(check (result unit string)) "both verify as signed" (Ok ())
    (Result.bind (verify keyed) (fun () -> verify keyless));
  let bad = Error "pk proxy-cert: bad signature" in
  Alcotest.(check (result unit string)) "key removed" bad
    (verify { keyed with Proxy_cert.proxy_pub = None });
  Alcotest.(check (result unit string)) "key added" bad
    (verify { keyless with Proxy_cert.proxy_pub = keyed.Proxy_cert.proxy_pub })

let test_keyless_cannot_restrict () =
  Alcotest.(check (result unit string)) "restrict_pk refuses"
    (Error "restrict_pk: a key-less proxy has no proxy key to sign with")
    (Result.map ignore
       (Proxy.restrict_pk ~drbg ~now:t0 ~expires:t_exp ~restrictions:[] (grant_keyless ())))

let test_refresh_keeps_key_presence () =
  (* A grantor service that answers every refresh with the head of
     [!answer]: the grantee splices in only a head whose proxy key matches
     its own, present or absent. *)
  let w = World.create ~seed:"key-less refresh" () in
  let gina, gina_key, gina_rsa = World.enrol_pk w "gina" in
  let hugh, _ = World.enrol w "hugh" in
  let now = World.now w in
  let restrictions = [ R.Grantee ([ hugh ], 1); read_file1 ] in
  let keyed =
    Proxy.grant_pk ~drbg ~now ~expires:(now + hour) ~grantor:gina ~grantor_key:gina_rsa
      ~restrictions ()
  in
  let keyless =
    Proxy.grant_keyless ~drbg ~now ~expires:(now + hour) ~grantor:gina ~grantor_key:gina_rsa
      ~restrictions ()
  in
  let answer = ref keyless in
  Secure_rpc.serve w.World.net ~me:gina ~my_key:gina_key (fun _ _ ->
      Ok (Proxy_cert.pk_cert_to_wire (List.hd (pk_certs !answer))));
  let creds = World.credentials_for w ~tgt:(World.login w hugh) gina in
  let refresh proxy = Result.map ignore (Refresher.refresh w.World.net ~creds proxy) in
  let different = Error "refresh: returned head is bound to a different proxy key" in
  Alcotest.(check (result unit string)) "same head splices" (Ok ()) (refresh keyless);
  Alcotest.(check (result unit string)) "key dropped" different (refresh keyed);
  answer := keyed;
  Alcotest.(check (result unit string)) "key added" different (refresh keyless)

let test_keyless_check_clears () =
  (* A check written and endorsed twice carries no key material anywhere,
     gets no binding, and still clears at the drawee, which
     verifies all three signatures. *)
  let payee_bank = p "payee-bank" in
  let bank_kp = Crypto.Rsa.generate drbg ~bits:512 in
  let lookup q = if Principal.equal q payee_bank then Some bank_kp.Crypto.Rsa.pub else lookup q in
  let endorse ~endorser ~endorser_key ~next check =
    Result.get_ok
      (Check.endorse ~drbg ~now:t0 ~expires:t_exp ~endorser ~endorser_key ~next check)
  in
  let check =
    Check.write ~drbg ~now:t0 ~expires:t_exp ~payor:alice ~payor_key:alice_kp
      ~account:(Principal.Account.make ~server "alice") ~payee:bob ~currency:"usd" ~amount:25
      ()
    |> endorse ~endorser:bob ~endorser_key:bob_kp ~next:payee_bank
    |> endorse ~endorser:payee_bank ~endorser_key:bank_kp ~next:server
  in
  let check = Result.get_ok (Check.of_wire (Check.to_wire check)) in
  let proxy = check.Check.proxy in
  Alcotest.(check int) "three certificates" 3 (List.length (pk_certs proxy));
  Alcotest.(check bool) "no certificate binds a key" true
    (List.for_all (fun c -> c.Proxy_cert.proxy_pub = None) (pk_certs proxy));
  Alcotest.(check bool) "no key material held" true (proxy.Proxy.key = Proxy.No_key);
  Alcotest.(check bool) "transfer encodes no key" true
    (match Proxy.transfer_to_wire proxy with
    | Wire.L [ _; Wire.L [ Wire.S "no-key" ] ] -> true
    | _ -> false);
  let presented = Guard.bind ~server ~ticket:Testkit.ticket proxy in
  Alcotest.(check bool) "no binding" true (presented.Guard.pres_binding = None);
  let v = Result.get_ok (Verifier.verify_pk ~lookup ~now:100 (pk_certs proxy)) in
  Alcotest.(check bool) "no commitment" true (v.Verifier.commitment = Presentation.No_commit);
  let net = Sim.Net.create ~seed:"key-less check" () in
  let acl = Acl.create () in
  Acl.add acl ~target:"alice"
    { Acl.subject = Acl.Principal_is alice; rights = [ "debit" ]; restrictions = [] };
  let guard =
    Guard.create net ~me:server ~my_key:(Crypto.Drbg.generate drbg 32) ~lookup_pub:lookup ~acl
      ()
  in
  let debit () =
    Guard.decide guard ~ticket:Testkit.ticket ~operation:"debit" ~target:"alice"
        ~presenter:payee_bank
      ~extra_presenters:[ server ] ~proxies:[ presented ] ~spend:("usd", 25) ()
  in
  (* A forged binding does not make the key-less chain a bearer one: it
     still authorizes only its named grantee. *)
  Alcotest.(check bool) "a forged binding grants nothing" true
    (Result.is_error
       (Guard.decide guard ~ticket:Testkit.ticket ~operation:"debit" ~target:"alice"
          ~presenter:bob
          ~proxies:[ { presented with Guard.pres_binding = Some "forged" } ]
          ~spend:("usd", 25) ()));
  Alcotest.(check bool) "clears at the drawee" true (Result.is_ok (debit ()));
  Alcotest.(check bool) "and only once" true (Result.is_error (debit ()))

let test_classify () =
  Alcotest.(check bool) "bearer" true (Proxy.classify [ read_file1 ] = `Bearer);
  match Proxy.classify [ R.Grantee ([ alice ], 1); R.Grantee ([ bob ], 1) ] with
  | `Delegate ps -> Alcotest.(check int) "grantees union" 2 (List.length ps)
  | `Bearer -> Alcotest.fail "expected delegate"

(* --- accept-once records --- *)

(* Record-if-absent: [Guard.apply_change] journals a change only when it
   moved a table, so a live identifier is never recorded twice and a
   sequence line is never journaled at or behind where it stands. *)
let test_replay_cache () =
  let w = Testkit.create ~seed:"accept-once records" () in
  let me, my_key = Testkit.enrol w "guard" in
  let guard = Guard.create w.Testkit.net ~me ~my_key ~acl:(Acl.create ()) () in
  let recorded = ref 0 in
  Guard.set_journal guard (Some (fun _ -> incr recorded));
  let record ~now ~expires id =
    let before = !recorded in
    Guard.apply_change guard ~now (Guard.Accept_once { id; expires; tag = "g" });
    !recorded > before
  in
  let cache = Guard.accepted guard in
  let seen ~now id = Option.is_some (Expiring.find cache ~now id) in
  Alcotest.(check bool) "fresh unseen" false (seen ~now:0 "c1");
  Alcotest.(check bool) "record" true (record ~now:0 ~expires:100 "c1");
  Alcotest.(check bool) "now seen" true (seen ~now:50 "c1");
  Alcotest.(check bool) "double record fails" false (record ~now:50 ~expires:100 "c1");
  Alcotest.(check bool) "expired forgets" false (seen ~now:101 "c1");
  Alcotest.(check bool) "re-record after expiry" true (record ~now:101 ~expires:200 "c1");
  ignore (record ~now:101 ~expires:110 "c2");
  Expiring.purge cache ~now:150;
  Alcotest.(check int) "purged" 1 (Expiring.size cache);
  (* Sequence progress moves through the same path, max-monotone, and is
     journaled only when it moves the line. *)
  let advance progress =
    let before = !recorded in
    Guard.apply_change guard ~now:150
      (Guard.Seq_progress { key = "s"; progress; expires = 300; tag = "g" });
    !recorded > before
  in
  Alcotest.(check bool) "advance journals" true (advance 2);
  Alcotest.(check bool) "a step behind the line journals nothing" false (advance 1);
  Alcotest.(check bool) "nor does the line itself" false (advance 2);
  Alcotest.(check (option int)) "progress never rewinds" (Some 2)
    (Expiring.find (Guard.progress guard) ~now:150 "s")

(* --- properties --- *)

let prop_tamper_any_byte =
  (* Flipping any byte of any conventional certificate blob breaks
     verification. *)
  QCheck.Test.make ~name:"any single-byte tamper is detected" ~count:100
    (QCheck.pair (QCheck.int_bound 10_000) (QCheck.int_bound 255))
    (fun (pos_seed, delta) ->
      QCheck.assume (delta > 0);
      let proxy = grant () in
      match proxy.Proxy.flavor with
      | Proxy.Public_key _ | Proxy.Hybrid _ -> false
      | Proxy.Conventional chain ->
          let blob = List.hd chain.Proxy.cert_blobs in
          let pos = pos_seed mod String.length blob in
          let tampered = Bytes.of_string blob in
          Bytes.set tampered pos (Char.chr (Char.code (Bytes.get tampered pos) lxor delta));
          let chain' = { chain with Proxy.cert_blobs = [ Bytes.to_string tampered ] } in
          Result.is_error
            (Verifier.verify_conventional ~open_base:(open_base ()) ~now:100 chain'))

let prop_cascade_monotone =
  (* However many cascade steps are applied, every original restriction is
     still present in the verified set. *)
  QCheck.Test.make ~name:"cascading never drops restrictions" ~count:30
    (QCheck.int_range 0 5) (fun depth ->
      let original = [ read_file1; R.Quota ("pages", 7) ] in
      let proxy = ref (grant ~restrictions:original ()) in
      for i = 1 to depth do
        proxy :=
          Result.get_ok
            (Proxy.restrict_conventional ~drbg ~now:t0 ~expires:t_exp
               ~restrictions:[ R.Accept_once (string_of_int i) ] !proxy)
      done;
      match verify_c !proxy with
      | Error _ -> false
      | Ok v ->
          List.for_all (fun r -> List.exists (R.equal r) v.Verifier.restrictions) original
          && List.length v.Verifier.restrictions = List.length original + depth)

let gen_restriction =
  (* Random typed restriction sets, including the forward-compatibility
     cases: Unknown tags and server-scoped Limit_restriction wrappers. *)
  QCheck.Gen.(
    sized @@ fix (fun self n ->
        let leaf =
          oneof
            [ return (R.Grantee ([ bob ], 1));
              return (R.Issued_for [ server ]);
              map (fun q -> R.Quota ("pages", q)) (int_bound 50);
              map (fun i -> R.Accept_once (string_of_int i)) (int_bound 9);
              return read_file1;
              map (fun i -> R.Unknown ("x-future-" ^ string_of_int i)) (int_bound 3) ]
        in
        if n <= 0 then leaf
        else
          frequency
            [ (5, leaf);
              (1,
               map
                 (fun rs -> R.Limit_restriction ([ server ], rs))
                 (list_size (int_bound 2) (self (n / 2)))) ]))

let gen_rlist = QCheck.Gen.(list_size (int_bound 3) gen_restriction)

let arb_additivity =
  QCheck.make
    ~print:(fun (pk, levels) ->
      Format.asprintf "%s %a"
        (if pk then "pk" else "conv")
        (Format.pp_print_list (Format.pp_print_list R.pp))
        levels)
    QCheck.Gen.(pair bool (list_size (int_range 1 4) gen_rlist))

let prop_restriction_additivity =
  (* Restriction additivity (Section 7.9): however a proxy is re-delegated,
     the verified restriction set of the derived chain contains every
     restriction of every ancestor — as a multiset, for randomly typed
     restriction sets, in both the conventional and the public-key (bearer)
     realization. *)
  QCheck.Test.make ~name:"derived chain restrictions contain the parents'" ~count:60
    arb_additivity (fun (pk, levels) ->
      let granted = List.concat levels in
      let head, cascades = (List.hd levels, List.tl levels) in
      let verified =
        if pk then begin
          let proxy = ref (grant_pk ~restrictions:head ()) in
          List.iter
            (fun rs ->
              proxy :=
                Result.get_ok
                  (Proxy.restrict_pk ~drbg ~now:t0 ~expires:t_exp ~proxy_bits:pk_bits
                     ~restrictions:rs !proxy))
            cascades;
          verify_pk !proxy
        end
        else begin
          let proxy = ref (grant ~restrictions:head ()) in
          List.iter
            (fun rs ->
              proxy :=
                Result.get_ok
                  (Proxy.restrict_conventional ~drbg ~now:t0 ~expires:t_exp ~restrictions:rs
                     !proxy))
            cascades;
          verify_c !proxy
        end
      in
      match verified with
      | Error _ -> false
      | Ok v ->
          let count r l = List.length (List.filter (R.equal r) l) in
          List.for_all
            (fun r -> count r v.Verifier.restrictions >= count r granted)
            granted)

let props =
  List.map QCheck_alcotest.to_alcotest
    [ prop_tamper_any_byte; prop_cascade_monotone; prop_restriction_additivity ]

let () =
  Alcotest.run "proxy"
    [ ( "conventional",
        [ ("grant and verify", `Quick, test_grant_and_verify);
          ("bearer requires possession", `Quick, test_bearer_requires_possession);
          ("proof binds request", `Quick, test_proof_binds_request);
          ("binding names its session", `Quick, test_binding_names_session);
          ("proof freshness", `Quick, test_proof_freshness);
          ("restriction enforced", `Quick, test_restriction_enforced);
          ("base restrictions apply", `Quick, test_base_restrictions_apply);
          ("cascade accumulates", `Quick, test_cascade_accumulates);
          ("cascade cannot remove", `Quick, test_cascade_cannot_remove);
          ("wrong session key", `Quick, test_wrong_session_key_fails);
          ("tampered cert", `Quick, test_tampered_cert_fails);
          ("bare ticket rejected", `Quick, test_bare_ticket_rejected);
          ("expired chain", `Quick, test_expired_chain);
          ("delegate proxy", `Quick, test_delegate_proxy);
          ("presentation excludes key", `Quick, test_presentation_excludes_key);
          ("transfer roundtrip", `Quick, test_transfer_roundtrip) ] );
      ( "public-key",
        [ ("grant and verify", `Slow, test_pk_grant_verify);
          ("unknown grantor", `Slow, test_pk_unknown_grantor);
          ("signature substitution", `Slow, test_pk_signature_substitution);
          ("bearer cascade", `Slow, test_pk_bearer_cascade);
          ("delegate cascade", `Slow, test_pk_delegate_cascade);
          ("delegate must be named", `Slow, test_pk_delegate_cascade_requires_naming);
          ("cert wire roundtrip", `Slow, test_pk_cert_wire_roundtrip);
          ("cert trailing fields refused", `Slow, test_pk_cert_trailing_fields);
          ("proxy key bytes take one shape", `Quick, test_pk_cert_key_bytes_exact) ] );
      ( "key-less",
        [ ("needs a grantee", `Quick, test_keyless_needs_grantee);
          ("key slot is signed", `Quick, test_keyless_key_slot_signed);
          ("no proxy-key signature after", `Quick, test_keyless_then_proxy_key);
          ("restrict_pk refuses", `Quick, test_keyless_cannot_restrict);
          ("refresh keeps key presence", `Quick, test_refresh_keeps_key_presence);
          ("check ships no key and clears", `Quick, test_keyless_check_clears) ] );
      ("classify", [ ("bearer vs delegate", `Quick, test_classify) ]);
      ("replay-cache", [ ("accept-once", `Quick, test_replay_cache) ]);
      ("properties", props) ]
