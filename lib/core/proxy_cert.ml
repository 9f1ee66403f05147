type body = {
  grantor : Principal.t;
  serial : string;
  issued_at : int;
  expires : int;
  restrictions : Restriction.t list;
}

let body_to_wire b =
  Wire.L
    [ Principal.to_wire b.grantor;
      Wire.S b.serial;
      Wire.I b.issued_at;
      Wire.I b.expires;
      Restriction.list_to_wire b.restrictions ]

let body_of_wire v =
  let open Wire in
  match v with
  | L [ grantor; S serial; I issued_at; I expires; restrictions ] ->
      let* grantor = Principal.of_wire grantor in
      let* restrictions = Restriction.list_of_wire restrictions in
      Ok { grantor; serial; issued_at; expires; restrictions }
  | _ -> Error "proxy-cert body: malformed"

let seal_conventional ~sealing_key ~nonce ~proxy_key body =
  let plaintext = Wire.encode (Wire.L [ body_to_wire body; Wire.S proxy_key ]) in
  Crypto.Aead.seal ~key:sealing_key ~ad:"proxy-cert" ~nonce plaintext

let open_conventional ~sealing_key blob =
  match Crypto.Aead.open_ ~key:sealing_key ~ad:"proxy-cert" blob with
  | Error `Malformed -> Error "proxy-cert: malformed blob"
  | Error `Bad_tag -> Error "proxy-cert: seal verification failed"
  | Ok plaintext -> (
      let open Wire in
      let* v = decode plaintext in
      match v with
      | L [ body; S proxy_key ] ->
          let* body = body_of_wire body in
          Ok (body, proxy_key)
      | _ -> Error "proxy-cert: malformed")

type pk_signer = By_grantor_key | By_proxy_key | By_principal of Principal.t

let pk_signer_to_wire = function
  | By_grantor_key -> Wire.L [ Wire.S "grantor-key" ]
  | By_proxy_key -> Wire.L [ Wire.S "proxy-key" ]
  | By_principal p -> Wire.L [ Wire.S "principal"; Principal.to_wire p ]

let pk_signer_of_wire v =
  let open Wire in
  match v with
  | L [ S "grantor-key" ] -> Ok By_grantor_key
  | L [ S "proxy-key" ] -> Ok By_proxy_key
  | L [ S "principal"; p ] ->
      let* p = Principal.of_wire p in
      Ok (By_principal p)
  | _ -> Error "pk-signer: malformed"

type pk_cert = {
  pk_body : body;
  proxy_pub : Crypto.Rsa.public option;
  pk_signer : pk_signer;
  signature : string;
}

(* The key slot: a keyed certificate carries the public key's bytes, a
   key-less one the empty list, so the signature covers the key's presence
   as well as its value. *)
let proxy_pub_to_wire = function
  | Some pub -> Wire.S (Crypto.Rsa.public_to_bytes pub)
  | None -> Wire.L []

let proxy_pub_of_wire = function
  | Wire.L [] -> Ok None
  | Wire.S bytes -> (
      match Crypto.Rsa.public_of_bytes bytes with
      | Some pub -> Ok (Some pub)
      | None -> Error "pk proxy-cert: malformed proxy key")
  | _ -> Error "pk proxy-cert: malformed proxy key"

let keyless_names_grantee c =
  match c.proxy_pub with
  | Some _ -> Ok ()
  | None ->
      if Restriction.grantees c.pk_body.restrictions <> [] then Ok ()
      else Error "pk proxy-cert: key-less certificate names no grantee"

let pk_signed_bytes c =
  Wire.encode
    (Wire.L
       [ Wire.S "pk-proxy-cert";
         body_to_wire c.pk_body;
         proxy_pub_to_wire c.proxy_pub;
         pk_signer_to_wire c.pk_signer ])

let sign_pk ~key ~signer ~proxy_pub body =
  let unsigned = { pk_body = body; proxy_pub; pk_signer = signer; signature = "" } in
  { unsigned with signature = Crypto.Rsa.sign key (pk_signed_bytes unsigned) }

let verify_pk_signature pub c =
  if Crypto.Rsa.verify pub ~msg:(pk_signed_bytes c) ~signature:c.signature then Ok ()
  else Error "pk proxy-cert: bad signature"

let pk_cert_to_wire c =
  Wire.L
    [ body_to_wire c.pk_body;
      proxy_pub_to_wire c.proxy_pub;
      pk_signer_to_wire c.pk_signer;
      Wire.S c.signature ]

let pk_cert_of_wire v =
  let open Wire in
  match v with
  | L [ pk_body; proxy_pub; pk_signer; S signature ] ->
      let* pk_body = body_of_wire pk_body in
      let* proxy_pub = proxy_pub_of_wire proxy_pub in
      let* pk_signer = pk_signer_of_wire pk_signer in
      let c = { pk_body; proxy_pub; pk_signer; signature } in
      let* () = keyless_names_grantee c in
      Ok c
  | _ -> Error "pk proxy-cert: malformed"

type hybrid_cert = {
  h_body : body;
  h_end_server : Principal.t;
  h_enc_key : string;
  h_signature : string;
}

let hybrid_signed_bytes c =
  Wire.encode
    (Wire.L
       [ Wire.S "hybrid-proxy-cert";
         body_to_wire c.h_body;
         Principal.to_wire c.h_end_server;
         Wire.S c.h_enc_key ])

let sign_hybrid ~drbg ~grantor_key ~end_server ~end_server_pub ~proxy_key body =
  match Crypto.Rsa.encrypt drbg end_server_pub proxy_key with
  | None -> Error "hybrid proxy-cert: proxy key too large for the end-server's modulus"
  | Some h_enc_key ->
      let unsigned = { h_body = body; h_end_server = end_server; h_enc_key; h_signature = "" } in
      Ok { unsigned with h_signature = Crypto.Rsa.sign grantor_key (hybrid_signed_bytes unsigned) }

let verify_hybrid_signature pub c =
  if Crypto.Rsa.verify pub ~msg:(hybrid_signed_bytes c) ~signature:c.h_signature then Ok ()
  else Error "hybrid proxy-cert: bad signature"

let open_hybrid_key ~decrypt c =
  match decrypt c.h_enc_key with
  | Some key when String.length key = 32 -> Ok key
  | Some _ -> Error "hybrid proxy-cert: recovered key has the wrong size"
  | None -> Error "hybrid proxy-cert: cannot decrypt the proxy key (wrong end-server?)"

let hybrid_cert_to_wire c =
  Wire.L
    [ body_to_wire c.h_body;
      Principal.to_wire c.h_end_server;
      Wire.S c.h_enc_key;
      Wire.S c.h_signature ]

let hybrid_cert_of_wire v =
  let open Wire in
  match v with
  | L [ h_body; h_end_server; S h_enc_key; S h_signature ] ->
      let* h_body = body_of_wire h_body in
      let* h_end_server = Principal.of_wire h_end_server in
      Ok { h_body; h_end_server; h_enc_key; h_signature }
  | _ -> Error "hybrid proxy-cert: malformed"
