type account = {
  acct_owner : Principal.t;
  balances : (string, int) Hashtbl.t; (* currency -> available *)
  holds : (string, string * int) Hashtbl.t; (* hold id -> currency, amount *)
}

(* The primitive mutations, as data: everything a replica needs to rebuild
   this ledger's state. Compound operations (transfer, hold, release_hold)
   journal as their primitive steps, so replaying the journal in order
   reconstructs the exact balances and holds. *)
type op =
  | Op_open of Principal.t * string
  | Op_credit of string * string * int
  | Op_debit of string * string * int
  | Op_hold_put of string * string * string * int
  | Op_take of string * string

type t = {
  accounts : (string, account) Hashtbl.t;
  mutable journal : (op -> unit) option;
}

let create () = { accounts = Hashtbl.create 16; journal = None }

let set_journal t j = t.journal <- j
let record t op = match t.journal with None -> () | Some j -> j op

let open_account t ~owner ~name =
  if Hashtbl.mem t.accounts name then Error (Printf.sprintf "account %S already exists" name)
  else begin
    Hashtbl.add t.accounts name
      { acct_owner = owner; balances = Hashtbl.create 4; holds = Hashtbl.create 4 };
    record t (Op_open (owner, name));
    Ok ()
  end

let exists t ~name = Hashtbl.mem t.accounts name
let owner t ~name = Option.map (fun a -> a.acct_owner) (Hashtbl.find_opt t.accounts name)
let accounts t = Hashtbl.fold (fun k _ acc -> k :: acc) t.accounts [] |> List.sort compare

let find t name =
  match Hashtbl.find_opt t.accounts name with
  | Some a -> Ok a
  | None -> Error (Printf.sprintf "no such account %S" name)

let balance t ~name ~currency =
  match Hashtbl.find_opt t.accounts name with
  | None -> 0
  | Some a -> Option.value (Hashtbl.find_opt a.balances currency) ~default:0

(* Balances are native ints: addition must be checked, or a large credit
   wraps the balance negative and silently breaks conservation. *)
let add_checked a b =
  if b > 0 && a > max_int - b then Error "balance overflow"
  else if b < 0 && a < min_int - b then Error "balance overflow"
  else Ok (a + b)

(* Read-side sums (holds, grand totals) saturate at [max_int] instead of
   wrapping: a saturated report is visibly huge, a wrapped one is silently
   negative. *)
let add_sat a b = match add_checked a b with Ok v -> v | Error _ -> max_int

let held t ~name ~currency =
  match Hashtbl.find_opt t.accounts name with
  | None -> 0
  | Some a ->
      Hashtbl.fold (fun _ (c, amt) acc -> if c = currency then add_sat acc amt else acc) a.holds 0

let positive amount = if amount <= 0 then Error "amount must be positive" else Ok ()

let credit t ~name ~currency amount =
  Result.bind (positive amount) (fun () ->
      Result.bind (find t name) (fun a ->
          let current = Option.value (Hashtbl.find_opt a.balances currency) ~default:0 in
          Result.map
            (fun sum ->
              Hashtbl.replace a.balances currency sum;
              record t (Op_credit (name, currency, amount)))
            (add_checked current amount)))

let mint = credit

let debit t ~name ~currency amount =
  Result.bind (positive amount) (fun () ->
      Result.bind (find t name) (fun a ->
          let available = Option.value (Hashtbl.find_opt a.balances currency) ~default:0 in
          if available < amount then
            Error
              (Printf.sprintf "insufficient funds: %S has %d %s, needs %d" name available
                 currency amount)
          else begin
            Hashtbl.replace a.balances currency (available - amount);
            record t (Op_debit (name, currency, amount));
            Ok ()
          end))

let transfer t ~from_ ~to_ ~currency amount =
  Result.bind (find t to_) (fun _ ->
      Result.bind (debit t ~name:from_ ~currency amount) (fun () ->
          match credit t ~name:to_ ~currency amount with
          | Ok () -> Ok ()
          | Error e ->
              (* Undo the debit: the amount just left [from_], so crediting
                 it back cannot overflow. *)
              (match credit t ~name:from_ ~currency amount with
              | Ok () -> ()
              | Error _ -> assert false);
              Error e))

let hold t ~name ~id ~currency amount =
  Result.bind (find t name) (fun a ->
      if Hashtbl.mem a.holds id then Error (Printf.sprintf "hold %S already placed" id)
      else
        Result.map
          (fun () ->
            Hashtbl.add a.holds id (currency, amount);
            record t (Op_hold_put (name, id, currency, amount)))
          (debit t ~name ~currency amount))

let find_hold t ~name ~id =
  match Hashtbl.find_opt t.accounts name with
  | None -> None
  | Some a -> Hashtbl.find_opt a.holds id

let take_hold t ~name ~id =
  Result.bind (find t name) (fun a ->
      match Hashtbl.find_opt a.holds id with
      | None -> Error (Printf.sprintf "no hold %S on %S" id name)
      | Some (currency, amount) ->
          Hashtbl.remove a.holds id;
          record t (Op_take (name, id));
          Ok (currency, amount))

let release_hold t ~name ~id =
  Result.bind (take_hold t ~name ~id) (fun (currency, amount) ->
      match credit t ~name ~currency amount with
      | Ok () -> Ok ()
      | Error e ->
          (* Restore the hold rather than lose the money. *)
          (match Hashtbl.find_opt t.accounts name with
          | Some a ->
              Hashtbl.add a.holds id (currency, amount);
              record t (Op_hold_put (name, id, currency, amount))
          | None -> ());
          Error e)

let currencies t =
  let seen = Hashtbl.create 8 in
  Hashtbl.iter
    (fun _ a ->
      Hashtbl.iter (fun c _ -> Hashtbl.replace seen c ()) a.balances;
      Hashtbl.iter (fun _ (c, _) -> Hashtbl.replace seen c ()) a.holds)
    t.accounts;
  Hashtbl.fold (fun c () acc -> c :: acc) seen [] |> List.sort compare

let total t ~currency =
  Hashtbl.fold
    (fun name _ acc -> add_sat acc (add_sat (balance t ~name ~currency) (held t ~name ~currency)))
    t.accounts 0

(* --- journal replay (replication) --- *)

(* [Op_hold_put] only installs the hold record: the matching debit was
   journalled separately by [hold], and the compensation path in
   [release_hold] re-installs a hold without touching the balance. *)
let apply t op =
  match op with
  | Op_open (owner, name) -> open_account t ~owner ~name
  | Op_credit (name, currency, amount) -> credit t ~name ~currency amount
  | Op_debit (name, currency, amount) -> debit t ~name ~currency amount
  | Op_hold_put (name, id, currency, amount) ->
      Result.map
        (fun a ->
          Hashtbl.add a.holds id (currency, amount);
          record t (Op_hold_put (name, id, currency, amount)))
        (find t name)
  | Op_take (name, id) -> Result.map ignore (take_hold t ~name ~id)
