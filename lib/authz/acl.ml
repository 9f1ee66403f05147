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

type 'c choice =
  | Grant of { entry : entry; credited : 'c list; via_groups : Principal.Group.t list }
  | No_entry
  | Refused of string

(* The first of [xs] whose [who] is [p]; unlike [List.find_opt], it builds no closure. *)
let rec first_by who p = function
  | [] -> None
  | x :: rest -> if Principal.equal (who x) p then Some x else first_by who p rest

(* One walk of [subject]: [None] if unsatisfied, else [acc] with its credits in front. *)
let rec credit (req : Restriction.request) ~grantor ~chains ~groups subject acc =
  match (subject, acc) with
  | _, None | Anyone, _ -> acc
  | Principal_is p, _ when Option.is_some (first_by Fun.id p req.presenters) -> acc
  | Principal_is p, Some (cs, gs) -> (
      match first_by grantor p chains with Some c -> Some (c :: cs, gs) | None -> None)
  | Group g, Some (cs, gs) -> (
      match List.find_opt (fun (h, _) -> Principal.Group.equal g h) groups with
      | Some (_, c) -> Some (c :: cs, g :: gs)
      | None -> None)
  | Compound subs, Some _ -> List.fold_right (credit req ~grantor ~chains ~groups) subs acc

let choose t (req : Restriction.request) ~grantor ~chains ~groups =
  let rec first denial = function
    | [] -> denial
    | e :: rest when e.rights <> [] && not (List.mem req.operation e.rights) -> first denial rest
    | e :: rest -> (
        match credit req ~grantor ~chains ~groups e.subject (Some ([], [])) with
        | None -> first denial rest
        | Some (credited, via_groups) -> (
            match Restriction.check_all ~held:Restriction.no_state e.restrictions req with
            | Ok _ -> Grant { entry = e; credited; via_groups }
            | Error r -> first (match denial with No_entry -> Refused r | _ -> denial) rest))
  in
  first No_entry (entries_for t ~target:req.target)

let rec pp_subject fmt = function
  | Principal_is p -> Principal.pp fmt p
  | Group g -> Principal.Group.pp fmt g
  | Compound subs ->
      Format.fprintf fmt "(%a)"
        (Format.pp_print_list ~pp_sep:(fun f () -> Format.fprintf f " AND ") pp_subject)
        subs
  | Anyone -> Format.pp_print_string fmt "anyone"
