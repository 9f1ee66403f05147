type material = Sym of string | Keypair of Crypto.Rsa.private_ | No_key

type conventional_chain = { base : string; cert_blobs : string list }

type flavor =
  | Conventional of conventional_chain
  | Public_key of Proxy_cert.pk_cert list
  | Hybrid of Proxy_cert.hybrid_cert * string list

type t = { flavor : flavor; key : material }

let classify restrictions =
  match Restriction.grantees restrictions with [] -> `Bearer | ps -> `Delegate ps

let fresh_serial drbg = Crypto.Sha256.to_hex (Crypto.Drbg.generate drbg 16)

let make_body drbg ~now ~expires ~grantor ~restrictions =
  { Proxy_cert.grantor; serial = fresh_serial drbg; issued_at = now; expires; restrictions }

let grant_conventional ~drbg ~now ~expires ~grantor ~session_key ~base ~restrictions =
  let proxy_key = Crypto.Drbg.generate drbg 32 in
  let body = make_body drbg ~now ~expires ~grantor ~restrictions in
  let blob =
    Proxy_cert.seal_conventional ~sealing_key:session_key ~nonce:(Crypto.Drbg.generate drbg 12)
      ~proxy_key body
  in
  { flavor = Conventional { base; cert_blobs = [ blob ] }; key = Sym proxy_key }

let anonymous_intermediate = Principal.make ~realm:"cascade" "intermediate"

(* Seal one more cascade certificate under the current symmetric proxy key;
   shared by the conventional and hybrid flavors. *)
let seal_cascade ~drbg ~now ~expires ~grantor ~restrictions ~current_key =
  let proxy_key = Crypto.Drbg.generate drbg 32 in
  let body = make_body drbg ~now ~expires ~grantor ~restrictions in
  let blob =
    Proxy_cert.seal_conventional ~sealing_key:current_key ~nonce:(Crypto.Drbg.generate drbg 12)
      ~proxy_key body
  in
  (blob, proxy_key)

let restrict_conventional ~drbg ~now ~expires ?(grantor = anonymous_intermediate) ~restrictions t =
  match (t.flavor, t.key) with
  | Conventional chain, Sym current_key ->
      let blob, proxy_key =
        seal_cascade ~drbg ~now ~expires ~grantor ~restrictions ~current_key
      in
      Ok
        {
          flavor = Conventional { chain with cert_blobs = chain.cert_blobs @ [ blob ] };
          key = Sym proxy_key;
        }
  | (Public_key _ | Hybrid _), _ -> Error "restrict_conventional: not a conventional proxy"
  | Conventional _, (Keypair _ | No_key) ->
      Error "restrict_conventional: inconsistent key material"

let grant_hybrid ~drbg ~now ~expires ~grantor ~grantor_key ~end_server ~end_server_pub
    ~restrictions () =
  let proxy_key = Crypto.Drbg.generate drbg 32 in
  let body = make_body drbg ~now ~expires ~grantor ~restrictions in
  match
    Proxy_cert.sign_hybrid ~drbg ~grantor_key ~end_server ~end_server_pub ~proxy_key body
  with
  | Error e -> Error e
  | Ok cert -> Ok { flavor = Hybrid (cert, []); key = Sym proxy_key }

let restrict_hybrid ~drbg ~now ~expires ~restrictions t =
  match (t.flavor, t.key) with
  | Hybrid (head, blobs), Sym current_key ->
      let blob, proxy_key =
        seal_cascade ~drbg ~now ~expires ~grantor:anonymous_intermediate ~restrictions
          ~current_key
      in
      Ok { flavor = Hybrid (head, blobs @ [ blob ]); key = Sym proxy_key }
  | (Conventional _ | Public_key _), _ -> Error "restrict_hybrid: not a hybrid proxy"
  | Hybrid _, (Keypair _ | No_key) -> Error "restrict_hybrid: inconsistent key material"

let default_proxy_bits = 512

(* Sign one more public-key certificate onto [certs]. [Some bits] binds a
   fresh proxy key pair, drawn before the body as the keyed constructors
   always drew it, so keyed certificates keep their bytes; [None] binds no
   key, and the certificate must then name its grantee. *)
let extend_pk ~drbg ~now ~expires ~grantor ~signing_key ~signer ~proxy_bits ~restrictions certs =
  let proxy_pub, key =
    match proxy_bits with
    | None -> (None, No_key)
    | Some bits ->
        let kp = Crypto.Rsa.generate drbg ~bits in
        (Some kp.Crypto.Rsa.pub, Keypair kp)
  in
  let body = make_body drbg ~now ~expires ~grantor ~restrictions in
  let cert = Proxy_cert.sign_pk ~key:signing_key ~signer ~proxy_pub body in
  Result.map
    (fun () -> { flavor = Public_key (certs @ [ cert ]); key })
    (Proxy_cert.keyless_names_grantee cert)

let grant_with ~name ~drbg ~now ~expires ~grantor ~grantor_key ~proxy_bits ~restrictions =
  match
    extend_pk ~drbg ~now ~expires ~grantor ~signing_key:grantor_key
      ~signer:Proxy_cert.By_grantor_key ~proxy_bits ~restrictions []
  with
  | Ok t -> t
  | Error e -> invalid_arg (Printf.sprintf "Proxy.%s: %s" name e)

let grant_pk ~drbg ~now ~expires ~grantor ~grantor_key ?(proxy_bits = default_proxy_bits)
    ~restrictions () =
  grant_with ~name:"grant_pk" ~drbg ~now ~expires ~grantor ~grantor_key
    ~proxy_bits:(Some proxy_bits) ~restrictions

let grant_keyless ~drbg ~now ~expires ~grantor ~grantor_key ~restrictions () =
  grant_with ~name:"grant_keyless" ~drbg ~now ~expires ~grantor ~grantor_key ~proxy_bits:None
    ~restrictions

let restrict_pk ~drbg ~now ~expires ?(proxy_bits = default_proxy_bits) ~restrictions t =
  match (t.flavor, t.key) with
  | Public_key certs, Keypair current ->
      extend_pk ~drbg ~now ~expires ~grantor:anonymous_intermediate ~signing_key:current
        ~signer:Proxy_cert.By_proxy_key ~proxy_bits:(Some proxy_bits) ~restrictions certs
  | Public_key _, No_key -> Error "restrict_pk: a key-less proxy has no proxy key to sign with"
  | (Conventional _ | Hybrid _), _ -> Error "restrict_pk: not a public-key proxy"
  | Public_key _, Sym _ -> Error "restrict_pk: inconsistent key material"

let delegate_with ~name ~drbg ~now ~expires ~intermediate ~intermediate_key ~proxy_bits
    ~restrictions t =
  match t.flavor with
  | Public_key certs ->
      extend_pk ~drbg ~now ~expires ~grantor:intermediate ~signing_key:intermediate_key
        ~signer:(Proxy_cert.By_principal intermediate) ~proxy_bits ~restrictions certs
  | Conventional _ | Hybrid _ -> Error (name ^ ": not a public-key proxy")

let delegate_pk ~drbg ~now ~expires ~intermediate ~intermediate_key
    ?(proxy_bits = default_proxy_bits) ~restrictions t =
  delegate_with ~name:"delegate_pk" ~drbg ~now ~expires ~intermediate ~intermediate_key
    ~proxy_bits:(Some proxy_bits) ~restrictions t

let delegate_keyless ~drbg ~now ~expires ~intermediate ~intermediate_key ~restrictions t =
  delegate_with ~name:"delegate_keyless" ~drbg ~now ~expires ~intermediate ~intermediate_key
    ~proxy_bits:None ~restrictions t

type presentation = flavor

let presentation t = t.flavor

let presentation_to_wire = function
  | Conventional { base; cert_blobs } ->
      Wire.L
        [ Wire.S "conventional";
          Wire.S base;
          Wire.L (List.map (fun b -> Wire.S b) cert_blobs) ]
  | Public_key certs ->
      Wire.L [ Wire.S "public-key"; Wire.L (List.map Proxy_cert.pk_cert_to_wire certs) ]
  | Hybrid (head, blobs) ->
      Wire.L
        [ Wire.S "hybrid";
          Proxy_cert.hybrid_cert_to_wire head;
          Wire.L (List.map (fun b -> Wire.S b) blobs) ]

let presentation_of_wire_with ~pk_cert v =
  let open Wire in
  match v with
  | L [ S "conventional"; S base; L blobs ] ->
      let* cert_blobs = map_all to_string blobs in
      Ok (Conventional { base; cert_blobs })
  | L [ S "public-key"; L certs ] ->
      let* certs = map_all pk_cert certs in
      Ok (Public_key certs)
  | L [ S "hybrid"; head; L blobs ] ->
      let* head = Proxy_cert.hybrid_cert_of_wire head in
      let* blobs = map_all to_string blobs in
      Ok (Hybrid (head, blobs))
  | _ -> Error "presentation: malformed"

let presentation_of_wire = presentation_of_wire_with ~pk_cert:Proxy_cert.pk_cert_of_wire

let keyless_of_wire v = Result.map (fun flavor -> { flavor; key = No_key }) (presentation_of_wire v)

(* The RSA private key transfers as (n, e, d); a key-less proxy transfers
   no key at all. *)
let material_to_wire = function
  | Sym k -> Wire.L [ Wire.S "sym"; Wire.S k ]
  | No_key -> Wire.L [ Wire.S "no-key" ]
  | Keypair kp ->
      Wire.L
        [ Wire.S "keypair";
          Wire.S (Crypto.Rsa.public_to_bytes kp.Crypto.Rsa.pub);
          Wire.S (Bignum.Nat.to_bytes_be kp.Crypto.Rsa.d) ]

let material_of_wire v =
  let open Wire in
  match v with
  | L [ S "sym"; S k ] -> Ok (Sym k)
  | L [ S "no-key" ] -> Ok No_key
  | L [ S "keypair"; S pub_bytes; S d_bytes ] -> (
      match Crypto.Rsa.public_of_bytes pub_bytes with
      | None -> Error "material: malformed public part"
      | Some pub ->
          Ok (Keypair { Crypto.Rsa.pub; d = Bignum.Nat.of_bytes_be d_bytes; crt = None }))
  | _ -> Error "material: malformed"

let transfer_to_wire t = Wire.L [ presentation_to_wire t.flavor; material_to_wire t.key ]

let transfer_of_wire v =
  let open Wire in
  match v with
  | L [ flavor; key ] ->
      let* flavor = presentation_of_wire flavor in
      let* key = material_of_wire key in
      Ok { flavor; key }
  | _ -> Error "proxy transfer: malformed"
