type t = { realm : string; name : string }

let valid_part s = s <> "" && not (String.contains s '/')

let make ~realm name =
  if not (valid_part realm && valid_part name) then
    invalid_arg "Principal.make: parts must be non-empty and '/'-free";
  { realm; name }

let to_string t = t.realm ^ "/" ^ t.name

let of_string s =
  match String.index_opt s '/' with
  | None -> Error "principal: missing '/'"
  | Some i ->
      let realm = String.sub s 0 i in
      let name = String.sub s (i + 1) (String.length s - i - 1) in
      if valid_part realm && valid_part name then Ok { realm; name }
      else Error "principal: empty or malformed part"

let equal a b = a.realm = b.realm && a.name = b.name
let compare a b = Stdlib.compare (a.realm, a.name) (b.realm, b.name)
let pp fmt t = Format.pp_print_string fmt (to_string t)

let to_wire t = Wire.L [ Wire.S t.realm; Wire.S t.name ]

let of_wire = function
  | Wire.L [ Wire.S realm; Wire.S name ] ->
      if valid_part realm && valid_part name then Ok { realm; name }
      else Error "principal: empty or malformed part"
  | _ -> Error "principal: malformed"

module Group = struct
  type principal = t
  type t = { server : principal; group : string }

  let make ~server group =
    if group = "" then invalid_arg "Group.make: empty group name";
    { server; group }

  let to_string t = to_string t.server ^ "$" ^ t.group
  let equal a b = equal a.server b.server && a.group = b.group
  let pp fmt t = Format.pp_print_string fmt (to_string t)
  let to_wire t = Wire.L [ to_wire t.server; Wire.S t.group ]

  let of_wire v =
    let open Wire in
    match v with
    | L [ server; S group ] ->
        let* server = of_wire server in
        if group = "" then Error "group: empty name" else Ok { server; group }
    | _ -> Error "group: malformed"
end

module Account = struct
  type principal = t
  type t = { server : principal; account : string }

  let make ~server account =
    if account = "" then invalid_arg "Account.make: empty account name";
    { server; account }

  let to_string t = to_string t.server ^ ":" ^ t.account
  let equal a b = equal a.server b.server && a.account = b.account
  let pp fmt t = Format.pp_print_string fmt (to_string t)
end
