type group = string * Principal.t list

(* Canonical order: groups by name, members by principal string. Signing
   and replication both depend on the same bytes coming out for the same
   membership, whatever order the publisher's tables iterate in. *)
let canonicalize groups =
  List.sort
    (fun (a, _) (b, _) -> compare a b)
    (List.map
       (fun (g, members) ->
         ( g,
           List.sort_uniq
             (fun a b -> compare (Principal.to_string a) (Principal.to_string b))
             members ))
       groups)

let group_to_wire (g, members) =
  Wire.L [ Wire.S g; Wire.L (List.map Principal.to_wire members) ]

let group_of_wire v =
  let open Wire in
  let* g = Result.bind (field v 0) to_string in
  let* mw = Result.bind (field v 1) to_list in
  let* members = map_all Principal.of_wire mw in
  Ok (g, members)

type view = (string, (string, unit) Hashtbl.t) Hashtbl.t (* group -> member set *)
type report = { fresh : int }

include Signed_epoch.Make (struct
  type item = group
  type nonrec view = view
  type nonrec report = report

  let tag = "membership-snapshot"
  let owner = __MODULE__
  let issuer_role = "group server"
  let subscriber = "membership replica"
  let item_to_wire = group_to_wire
  let item_of_wire = group_of_wire
  let empty () = Hashtbl.create 8

  (* Count the (group, member) pairs that extend the previous coverage. *)
  let rebuild prev groups =
    let fresh = ref 0 in
    let tables = Hashtbl.create (max 8 (List.length groups)) in
    List.iter
      (fun (g, members) ->
        let set = Hashtbl.create (max 4 (List.length members)) in
        let prev = Hashtbl.find_opt prev g in
        List.iter
          (fun p ->
            let key = Principal.to_string p in
            let known = match prev with Some set -> Hashtbl.mem set key | None -> false in
            if (not known) && not (Hashtbl.mem set key) then incr fresh;
            Hashtbl.replace set key ())
          members;
        Hashtbl.replace tables g set)
      groups;
    (tables, { fresh = !fresh })
end)

type snapshot = artifact

let sign ~key ~issuer ~epoch ~issued_at groups =
  sign ~key ~issuer ~epoch ~issued_at (canonicalize groups)

let groups t = List.sort compare (Hashtbl.fold (fun g _ acc -> g :: acc) (view t) [])

let member t ~group p =
  match Hashtbl.find_opt (view t) group with
  | None -> false
  | Some set -> Hashtbl.mem set (Principal.to_string p)

let check t ~now ~group p =
  let open Wire in
  let* () = gate t ~now in
  if member t ~group p then Ok ()
  else
    Error
      (Printf.sprintf "%s is not a member of %s (replica epoch %d)"
         (Principal.to_string p) group (epoch t))
