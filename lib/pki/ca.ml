type binding = {
  subject : Principal.t;
  subject_pub : Crypto.Rsa.public;
  issued_at : int;
  expires : int;
}

type cert = { binding : binding; signature : string }

type t = { name : Principal.t; key : Crypto.Rsa.private_ }

let create drbg ~name ~bits = { name; key = Crypto.Rsa.generate drbg ~bits }
let ca_name t = t.name
let ca_pub t = t.key.Crypto.Rsa.pub

let binding_to_wire b =
  Wire.L
    [ Principal.to_wire b.subject;
      Wire.S (Crypto.Rsa.public_to_bytes b.subject_pub);
      Wire.I b.issued_at;
      Wire.I b.expires ]

let binding_of_wire v =
  let open Wire in
  match v with
  | L [ subject; S pub_bytes; I issued_at; I expires ] -> (
      let* subject = Principal.of_wire subject in
      match Crypto.Rsa.public_of_bytes pub_bytes with
      | None -> Error "ca: malformed public key"
      | Some subject_pub -> Ok { subject; subject_pub; issued_at; expires })
  | _ -> Error "ca: malformed binding"

let issue t ~now ~lifetime subject subject_pub =
  let binding = { subject; subject_pub; issued_at = now; expires = now + lifetime } in
  let signature = Crypto.Rsa.sign t.key (Wire.encode (binding_to_wire binding)) in
  { binding; signature }

let verify ~ca_pub ~now cert =
  let msg = Wire.encode (binding_to_wire cert.binding) in
  if not (Crypto.Rsa.verify ca_pub ~msg ~signature:cert.signature) then
    Error "ca: bad signature"
  else if now < cert.binding.issued_at then Error "ca: not yet valid"
  else if now >= cert.binding.expires then Error "ca: certificate expired"
  else Ok cert.binding

let cert_to_wire c = Wire.L [ binding_to_wire c.binding; Wire.S c.signature ]

let cert_of_wire v =
  let open Wire in
  match v with
  | L [ binding; S signature ] ->
      let* binding = binding_of_wire binding in
      Ok { binding; signature }
  | _ -> Error "ca: malformed certificate"
