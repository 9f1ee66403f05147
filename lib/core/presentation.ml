type proof = { pop_time : int; pop_sig : string }

let signed_bytes ~time ~request_digest =
  Wire.encode (Wire.L [ Wire.S "proof-of-possession"; Wire.I time; Wire.S request_digest ])

let prove ~key ~time ~request_digest =
  let msg = signed_bytes ~time ~request_digest in
  let proof pop_sig = Some { pop_time = time; pop_sig } in
  match (key : Proxy.material) with
  | Proxy.Sym k -> proof (Crypto.Hmac.mac ~key:k msg)
  | Proxy.Keypair kp -> proof (Crypto.Rsa.sign kp msg)
  | Proxy.No_key -> None

type commitment = Sym_commit of string | Pk_commit of Crypto.Rsa.public | No_commit

let check commitment proof ~now ~max_skew ~request_digest =
  let msg () = signed_bytes ~time:proof.pop_time ~request_digest in
  let verdict valid = if valid then Ok () else Error "proof of possession: invalid" in
  match commitment with
  | No_commit -> Error "proof of possession: a key-less proxy has no proxy key"
  | Sym_commit _ | Pk_commit _ when abs (proof.pop_time - now) > max_skew ->
      Error "proof of possession: stale timestamp"
  | Sym_commit k -> verdict (Crypto.Hmac.verify ~key:k ~msg:(msg ()) ~tag:proof.pop_sig)
  | Pk_commit pub -> verdict (Crypto.Rsa.verify pub ~msg:(msg ()) ~signature:proof.pop_sig)

let proof_to_wire p = Wire.L [ Wire.I p.pop_time; Wire.S p.pop_sig ]

let proof_of_wire v =
  let open Wire in
  let* pop_time = Result.bind (field v 0) to_int in
  let* pop_sig = Result.bind (field v 1) to_string in
  Ok { pop_time; pop_sig }

let digest_request (req : Restriction.request) =
  let spend =
    match req.Restriction.spend with
    | None -> Wire.L []
    | Some (c, n) -> Wire.L [ Wire.S c; Wire.I n ]
  in
  Crypto.Sha256.digest
    (Wire.encode
       (Wire.L
          [ Principal.to_wire req.Restriction.server;
            Wire.S req.Restriction.operation;
            Wire.S req.Restriction.target;
            spend ]))
