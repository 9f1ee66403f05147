type subject =
  | Principal_is of Principal.t
  | Group of Principal.Group.t
  | Compound of subject list
  | Anyone

type entry = {
  subject : subject;
  rights : string list;
  restrictions : Restriction.t list;
}

type t = { table : (string, entry list ref) Hashtbl.t }

let create () = { table = Hashtbl.create 16 }

let bucket t target =
  match Hashtbl.find_opt t.table target with
  | Some r -> r
  | None ->
      let r = ref [] in
      Hashtbl.add t.table target r;
      r

let add t ~target entry =
  let b = bucket t target in
  b := !b @ [ entry ]

let rec subject_equal a b =
  match (a, b) with
  | Principal_is p, Principal_is q -> Principal.equal p q
  | Group g, Group h -> Principal.Group.equal g h
  | Compound xs, Compound ys ->
      List.length xs = List.length ys && List.for_all2 subject_equal xs ys
  | Anyone, Anyone -> true
  | (Principal_is _ | Group _ | Compound _ | Anyone), _ -> false

let remove_subject t ~target subject =
  match Hashtbl.find_opt t.table target with
  | None -> ()
  | Some b -> b := List.filter (fun e -> not (subject_equal e.subject subject)) !b

let entries_for t ~target =
  let specific = match Hashtbl.find_opt t.table target with Some b -> !b | None -> [] in
  let wildcard =
    if target = "*" then [] else match Hashtbl.find_opt t.table "*" with Some b -> !b | None -> []
  in
  specific @ wildcard

let targets t = Hashtbl.fold (fun k _ acc -> k :: acc) t.table [] |> List.sort String.compare

type facts = { principals : Principal.t list; groups : Principal.Group.t list }

let rec subject_satisfied subject facts =
  match subject with
  | Anyone -> true
  | Principal_is p -> List.exists (Principal.equal p) facts.principals
  | Group g -> List.exists (Principal.Group.equal g) facts.groups
  | Compound subs -> List.for_all (fun s -> subject_satisfied s facts) subs

let permitting t ~target ~operation facts =
  List.filter
    (fun e ->
      (e.rights = [] || List.mem operation e.rights) && subject_satisfied e.subject facts)
    (entries_for t ~target)

let rec pp_subject fmt = function
  | Principal_is p -> Principal.pp fmt p
  | Group g -> Principal.Group.pp fmt g
  | Compound subs ->
      Format.fprintf fmt "(%a)"
        (Format.pp_print_list ~pp_sep:(fun f () -> Format.fprintf f " AND ") pp_subject)
        subs
  | Anyone -> Format.pp_print_string fmt "anyone"
