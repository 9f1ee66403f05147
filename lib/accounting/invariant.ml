type snapshot = (string * int) list

let grand_totals ledgers =
  let currencies =
    List.concat_map Ledger.currencies ledgers |> List.sort_uniq compare
  in
  List.map
    (fun currency ->
      (currency, List.fold_left (fun acc l -> acc + Ledger.total l ~currency) 0 ledgers))
    currencies

let capture = grand_totals

let check before ledgers =
  let after = grand_totals ledgers in
  let keys =
    List.sort_uniq compare (List.map fst before @ List.map fst after)
  in
  let value l k = Option.value (List.assoc_opt k l) ~default:0 in
  let drift =
    List.filter_map
      (fun c ->
        let b = value before c and a = value after c in
        if a <> b then Some (Printf.sprintf "%s: %d -> %d (%+d)" c b a (a - b)) else None)
      keys
  in
  if drift = [] then Ok ()
  else Error ("conservation violated: " ^ String.concat ", " drift)
