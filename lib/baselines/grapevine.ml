type t = {
  net : Sim.Net.t;
  name : Principal.t;
  groups : (string, Principal.t list ref) Hashtbl.t;
}

let create net ~name = { net; name; groups = Hashtbl.create 8 }

let bucket t group =
  match Hashtbl.find_opt t.groups group with
  | Some r -> r
  | None ->
      let r = ref [] in
      Hashtbl.add t.groups group r;
      r

let add_member t ~group p =
  let b = bucket t group in
  if not (List.exists (Principal.equal p) !b) then b := p :: !b

let remove_member t ~group p =
  match Hashtbl.find_opt t.groups group with
  | None -> ()
  | Some b -> b := List.filter (fun q -> not (Principal.equal q p)) !b

let handle t request =
  let open Wire in
  let parsed =
    let* v = Wire.decode request in
    match v with
    | L [ S group; p ] ->
        let* p = Principal.of_wire p in
        Ok (group, p)
    | _ -> Error "grapevine: malformed request"
  in
  match parsed with
  | Error e -> Wire.encode (Wire.L [ Wire.S "err"; Wire.S e ])
  | Ok (group, p) ->
      let member =
        match Hashtbl.find_opt t.groups group with
        | None -> false
        | Some b -> List.exists (Principal.equal p) !b
      in
      Wire.encode (Wire.L [ Wire.S "ok"; Wire.I (if member then 1 else 0) ])

let install t = Sim.Net.register t.net ~name:(Principal.to_string t.name) (handle t)

let is_member net ~server ~caller ~group p =
  let request = Wire.encode (Wire.L [ Wire.S group; Principal.to_wire p ]) in
  match Sim.Net.rpc net ~src:caller ~dst:(Principal.to_string server) request with
  | Error e -> Error e
  | Ok reply -> (
      let open Wire in
      let* v = Wire.decode reply in
      match v with
      | L [ S "err"; S msg ] -> Error msg
      | L [ S "ok"; I flag ] -> Ok (flag = 1)
      | _ -> Error "grapevine: malformed reply")
