type entry =
  | By_serial of string
  | By_grantor_epoch of { grantor : Principal.t; not_before : int }

let entry_to_wire = function
  | By_serial s -> Wire.L [ Wire.S "serial"; Wire.S s ]
  | By_grantor_epoch { grantor; not_before } ->
      Wire.L [ Wire.S "grantor-epoch"; Principal.to_wire grantor; Wire.I not_before ]

let entry_of_wire v =
  let open Wire in
  match v with
  | L [ S "serial"; S s ] -> Ok (By_serial s)
  | L [ S "grantor-epoch"; grantor; I not_before ] ->
      let* grantor = Principal.of_wire grantor in
      Ok (By_grantor_epoch { grantor; not_before })
  | _ -> Error "revocation entry: malformed"

type view = {
  serials : (string, unit) Hashtbl.t;
  grantor_epochs : (string, int) Hashtbl.t;  (* grantor -> latest not_before *)
}

type report = { fresh : int; fresh_entries : entry list }

include Signed_epoch.Make (struct
  type item = entry
  type nonrec view = view
  type nonrec report = report

  let tag = "revocation-bulletin"
  let owner = __MODULE__
  let issuer_role = "authority"
  let subscriber = "revocation bulletin"
  let item_to_wire = entry_to_wire
  let item_of_wire = entry_of_wire
  let empty () = { serials = Hashtbl.create 16; grantor_epochs = Hashtbl.create 8 }

  (* The fresh entries are those that extend the previous coverage: they
     are what warrant a cache invalidation. *)
  let rebuild prev entries =
    let latest tbl grantor =
      Option.value (Hashtbl.find_opt tbl (Principal.to_string grantor)) ~default:min_int
    in
    let next =
      {
        serials = Hashtbl.create (max 16 (List.length entries));
        grantor_epochs = Hashtbl.create 8;
      }
    in
    List.iter
      (function
        | By_serial s -> Hashtbl.replace next.serials s ()
        | By_grantor_epoch { grantor; not_before } ->
            if not_before > latest next.grantor_epochs grantor then
              Hashtbl.replace next.grantor_epochs (Principal.to_string grantor) not_before)
      entries;
    let fresh_entries =
      List.filter
        (function
          | By_serial s -> not (Hashtbl.mem prev.serials s)
          | By_grantor_epoch { grantor; not_before } ->
              not_before > latest prev.grantor_epochs grantor)
        entries
    in
    (next, { fresh = List.length fresh_entries; fresh_entries })
end)

type bulletin = artifact

let short_serial s =
  let n = min 8 (String.length s) in
  String.sub s 0 n

let revoked t (body : Proxy_cert.body) =
  let v = view t in
  if Hashtbl.mem v.serials body.Proxy_cert.serial then
    Error (Printf.sprintf "certificate %s.. is revoked" (short_serial body.Proxy_cert.serial))
  else
    match Hashtbl.find_opt v.grantor_epochs (Principal.to_string body.Proxy_cert.grantor) with
    | Some not_before when body.Proxy_cert.issued_at < not_before ->
        Error
          (Printf.sprintf "grantor %s revoked certificates issued before %d"
             (Principal.to_string body.Proxy_cert.grantor)
             not_before)
    | Some _ | None -> Ok ()
