type role_cert = {
  role : Principal.t;
  role_owner : Principal.t;
  role_rights : string list;
  role_pub : Crypto.Rsa.public;
  role_sig : string;
}

type t = {
  net : Sim.Net.t;
  name : Principal.t;
  key : Crypto.Rsa.private_;
  mutable roles : int;
  bits : int;
}

let create net ~name ~drbg ~bits = { net; name; key = Crypto.Rsa.generate drbg ~bits; roles = 0; bits }
let ca_pub t = t.key.Crypto.Rsa.pub
let role_count t = t.roles

let role_cert_bytes ~role ~role_owner ~role_rights ~role_pub =
  Wire.encode
    (Wire.L
       [ Principal.to_wire role;
         Principal.to_wire role_owner;
         Wire.L (List.map (fun r -> Wire.S r) role_rights);
         Wire.S (Crypto.Rsa.public_to_bytes role_pub) ])

let handle t request =
  let open Wire in
  let parsed =
    let* v = Wire.decode request in
    match v with
    | L [ owner; L rights ] ->
        let* owner = Principal.of_wire owner in
        let* rights = map_all to_string rights in
        Ok (owner, rights)
    | _ -> Error "dssa: malformed request"
  in
  match parsed with
  | Error e -> Wire.encode (Wire.L [ Wire.S "err"; Wire.S e ])
  | Ok (owner, rights) ->
      (* Registering a role: mint a fresh principal with its own key pair,
         record it, and sign its certificate. This state accumulation is the
         "cumbersome" part the paper criticizes. *)
      t.roles <- t.roles + 1;
      let role =
        Principal.make ~realm:owner.Principal.realm
          (Printf.sprintf "%s-role-%d" owner.Principal.name t.roles)
      in
      let role_keypair = Crypto.Rsa.generate (Sim.Net.drbg t.net) ~bits:t.bits in
      Sim.Metrics.incr (Sim.Net.metrics t.net) "crypto.rsa_keygen";
      let role_pub = role_keypair.Crypto.Rsa.pub in
      Sim.Metrics.incr (Sim.Net.metrics t.net) "crypto.rsa_sign";
      let role_sig =
        Crypto.Rsa.sign t.key (role_cert_bytes ~role ~role_owner:owner ~role_rights:rights ~role_pub)
      in
      Wire.encode
        (Wire.L
           [ Wire.S "ok";
             Principal.to_wire role;
             Wire.S (Crypto.Rsa.public_to_bytes role_pub);
             Wire.S role_sig;
             Wire.S (Bignum.Nat.to_bytes_be role_keypair.Crypto.Rsa.d) ])

let install t = Sim.Net.register t.net ~name:(Principal.to_string t.name) (handle t)

let create_role net ~ca ~caller ~owner ~rights =
  let request =
    Wire.encode
      (Wire.L [ Principal.to_wire owner; Wire.L (List.map (fun r -> Wire.S r) rights) ])
  in
  match Sim.Net.rpc net ~src:caller ~dst:(Principal.to_string ca) request with
  | Error e -> Error e
  | Ok reply -> (
      let open Wire in
      let* v = Wire.decode reply in
      match v with
      | L [ S "err"; S msg ] -> Error msg
      | L [ S "ok"; role; S pub_bytes; S role_sig; S d_bytes ] -> (
          let* role = Principal.of_wire role in
          match Crypto.Rsa.public_of_bytes pub_bytes with
          | None -> Error "malformed role key"
          | Some role_pub ->
              Ok
                ( { role; role_owner = owner; role_rights = rights; role_pub; role_sig },
                  { Crypto.Rsa.pub = role_pub; d = Bignum.Nat.of_bytes_be d_bytes; crt = None } ))
      | _ -> Error "dssa: malformed reply")

type delegation = { deleg_role : role_cert; deleg_to : Principal.t; deleg_sig : string }

let delegation_bytes ~role ~to_ =
  Wire.encode (Wire.L [ Principal.to_wire role; Principal.to_wire to_ ])

let delegate ~role_key ~to_ cert =
  {
    deleg_role = cert;
    deleg_to = to_;
    deleg_sig = Crypto.Rsa.sign role_key (delegation_bytes ~role:cert.role ~to_);
  }

let verify ~ca_pub ~presenter d =
  let c = d.deleg_role in
  let cert_ok =
    Crypto.Rsa.verify ca_pub
      ~msg:
        (role_cert_bytes ~role:c.role ~role_owner:c.role_owner ~role_rights:c.role_rights
           ~role_pub:c.role_pub)
      ~signature:c.role_sig
  in
  if not cert_ok then Error "bad CA signature on role certificate"
  else if
    not
      (Crypto.Rsa.verify c.role_pub
         ~msg:(delegation_bytes ~role:c.role ~to_:d.deleg_to)
         ~signature:d.deleg_sig)
  then Error "bad delegation signature"
  else if not (Principal.equal presenter d.deleg_to) then Error "delegation is for someone else"
  else Ok c.role_rights
