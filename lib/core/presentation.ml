let signed_bytes ~server ~ticket =
  Wire.encode (Wire.L [ Wire.S "session-binding"; Principal.to_wire server; Wire.S ticket ])

let bind key ~server ~ticket =
  match (key : Proxy.material) with
  | Proxy.Sym k -> Some (Crypto.Hmac.mac ~key:k (signed_bytes ~server ~ticket))
  | Proxy.Keypair kp -> Some (Crypto.Rsa.sign kp (signed_bytes ~server ~ticket))
  | Proxy.No_key -> None

type commitment = Sym_commit of string | Pk_commit of Crypto.Rsa.public | No_commit
