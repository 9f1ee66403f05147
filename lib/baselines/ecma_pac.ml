type pac = {
  pac_subject : Principal.t;
  pac_privileges : string list;
  pac_expires : int;
  pac_sig : string;
}

type t = {
  net : Sim.Net.t;
  name : Principal.t;
  key : Crypto.Rsa.private_;
  entitlements : (string, string list ref) Hashtbl.t; (* principal -> privileges *)
  lifetime_us : int;
}

let create net ~name ~drbg ~bits =
  { net; name; key = Crypto.Rsa.generate drbg ~bits; entitlements = Hashtbl.create 8;
    lifetime_us = 2 * 3600 * 1_000_000 }

let authority_pub t = t.key.Crypto.Rsa.pub

let entitle t p privilege =
  let key = Principal.to_string p in
  let bucket =
    match Hashtbl.find_opt t.entitlements key with
    | Some r -> r
    | None ->
        let r = ref [] in
        Hashtbl.add t.entitlements key r;
        r
  in
  if not (List.mem privilege !bucket) then bucket := privilege :: !bucket

let signed_bytes ~subject ~privileges ~expires =
  Wire.encode
    (Wire.L
       [ Principal.to_wire subject;
         Wire.L (List.map (fun s -> Wire.S s) privileges);
         Wire.I expires ])

let handle t request =
  let open Wire in
  let parsed =
    let* v = Wire.decode request in
    match v with
    | L [ caller; L privileges ] ->
        let* caller = Principal.of_wire caller in
        let* privileges = map_all to_string privileges in
        Ok (caller, privileges)
    | _ -> Error "pac: malformed request"
  in
  match parsed with
  | Error e -> Wire.encode (Wire.L [ Wire.S "err"; Wire.S e ])
  | Ok (caller, privileges) ->
      let entitled =
        match Hashtbl.find_opt t.entitlements (Principal.to_string caller) with
        | None -> []
        | Some r -> !r
      in
      if not (List.for_all (fun p -> List.mem p entitled) privileges) then
        Wire.encode (Wire.L [ Wire.S "err"; Wire.S "not entitled" ])
      else begin
        let expires = Sim.Net.now t.net + t.lifetime_us in
        Sim.Metrics.incr (Sim.Net.metrics t.net) "crypto.rsa_sign";
        let signature =
          Crypto.Rsa.sign t.key (signed_bytes ~subject:caller ~privileges ~expires)
        in
        Wire.encode
          (Wire.L
             [ Wire.S "ok";
               Wire.L (List.map (fun s -> Wire.S s) privileges);
               Wire.I expires;
               Wire.S signature ])
      end

let install t = Sim.Net.register t.net ~name:(Principal.to_string t.name) (handle t)

let request net ~authority ~caller ~privileges () =
  let payload =
    Wire.encode
      (Wire.L
         [ Principal.to_wire caller;
           Wire.L (List.map (fun s -> Wire.S s) privileges) ])
  in
  match
    Sim.Net.rpc net ~src:(Principal.to_string caller) ~dst:(Principal.to_string authority)
      payload
  with
  | Error e -> Error e
  | Ok reply -> (
      let open Wire in
      let* v = Wire.decode reply in
      match v with
      | L [ S "err"; S msg ] -> Error msg
      | L [ S "ok"; L pac_privileges; I pac_expires; S pac_sig ] ->
          let* pac_privileges = map_all to_string pac_privileges in
          Ok { pac_subject = caller; pac_privileges; pac_expires; pac_sig }
      | _ -> Error "pac: malformed reply")

let verify ~authority_pub ~now ~presenter pac =
  let msg =
    signed_bytes ~subject:pac.pac_subject ~privileges:pac.pac_privileges
      ~expires:pac.pac_expires
  in
  if not (Crypto.Rsa.verify authority_pub ~msg ~signature:pac.pac_sig) then
    Error "pac: bad signature"
  else if pac.pac_expires <= now then Error "pac: expired"
  else
    match presenter with
    | Some p when Principal.equal pac.pac_subject p -> Ok pac.pac_privileges
    | _ -> Error "pac: named subject does not match presenter"
