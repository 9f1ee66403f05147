type t = {
  net : Sim.Net.t;
  name : Principal.t;
  ca_pub : Crypto.Rsa.public;
  certs : (string, Ca.cert) Hashtbl.t; (* keyed by Principal.to_string *)
}

let create net ~name ~ca_pub = { net; name; ca_pub; certs = Hashtbl.create 16 }

let publish t cert =
  Hashtbl.replace t.certs (Principal.to_string cert.Ca.binding.Ca.subject) cert

let revoke t subject = Hashtbl.remove t.certs (Principal.to_string subject)

let handle t request =
  let reply v = Wire.encode v in
  match Result.bind (Wire.decode request) Wire.to_string with
  | Error e -> reply (Wire.L [ Wire.S "err"; Wire.S ("name-server: " ^ e) ])
  | Ok who -> (
      match Hashtbl.find_opt t.certs who with
      | None -> reply (Wire.L [ Wire.S "err"; Wire.S ("no binding for " ^ who) ])
      | Some cert -> reply (Wire.L [ Wire.S "ok"; Ca.cert_to_wire cert ]))

let install t = Sim.Net.register t.net ~name:(Principal.to_string t.name) (handle t)

let lookup net ~server ~ca_pub ~caller who =
  let request = Wire.encode (Wire.S (Principal.to_string who)) in
  match Sim.Net.rpc net ~src:caller ~dst:(Principal.to_string server) request with
  | Error e -> Error e
  | Ok reply -> (
      let open Wire in
      let parsed =
        match Wire.decode reply with
        | Ok (L [ S "ok"; cw ]) -> Ca.cert_of_wire cw
        | Ok (L [ S "err"; S msg ]) -> Error msg
        | Ok _ -> Error "name-server: malformed reply"
        | Error e -> Error e
      in
      match parsed with
      | Error e -> Error e
      | Ok cert ->
          Sim.Metrics.incr (Sim.Net.metrics net) "crypto.rsa_verify";
          let* binding = Ca.verify ~ca_pub ~now:(Sim.Net.now net) cert in
          if Principal.equal binding.Ca.subject who then Ok binding.Ca.subject_pub
          else Error "name-server: answered for the wrong principal")
