type t = {
  net : Sim.Net.t;
  name : Principal.t;
  accounts : (string, (string, int) Hashtbl.t) Hashtbl.t;
}

let create net ~name = { net; name; accounts = Hashtbl.create 16 }

let open_account t account =
  if not (Hashtbl.mem t.accounts account) then Hashtbl.add t.accounts account (Hashtbl.create 4)

let balance_direct t ~account ~currency =
  match Hashtbl.find_opt t.accounts account with
  | None -> 0
  | Some b -> Option.value (Hashtbl.find_opt b currency) ~default:0

let mint t ~account ~currency amount =
  open_account t account;
  let b = Hashtbl.find t.accounts account in
  Hashtbl.replace b currency (Option.value (Hashtbl.find_opt b currency) ~default:0 + amount)

let debit t ~account ~currency amount =
  let have = balance_direct t ~account ~currency in
  if have < amount then Error "insufficient funds"
  else begin
    Hashtbl.replace (Hashtbl.find t.accounts account) currency (have - amount);
    Ok ()
  end

let handle t request =
  let open Wire in
  let reply = function
    | Ok v -> Wire.encode (Wire.L [ Wire.S "ok"; v ])
    | Error e -> Wire.encode (Wire.L [ Wire.S "err"; Wire.S e ])
  in
  reply
    (let* v = Wire.decode request in
     match v with
     | L [ S "transfer"; S from_; S to_; S currency; I amount ] ->
         if not (Hashtbl.mem t.accounts from_ && Hashtbl.mem t.accounts to_) then
           Error "unknown account"
         else
           let* () = debit t ~account:from_ ~currency amount in
           mint t ~account:to_ ~currency amount;
           Ok (Wire.L [])
     | L [ S "balance"; S account; S currency ] ->
         Ok (Wire.I (balance_direct t ~account ~currency))
     | L [ S "withdraw"; S account; S currency; I amount ] ->
         let* () = debit t ~account ~currency amount in
         Ok (Wire.L [])
     | _ -> Error "amoeba: malformed request")

let install t = Sim.Net.register t.net ~name:(Principal.to_string t.name) (handle t)

let call net ~bank ~caller payload =
  let open Wire in
  match Sim.Net.rpc net ~src:caller ~dst:(Principal.to_string bank) (Wire.encode payload) with
  | Error e -> Error e
  | Ok reply -> (
      let* v = Wire.decode reply in
      match v with
      | L [ S "ok"; result ] -> Ok result
      | L [ S "err"; S msg ] -> Error msg
      | _ -> Error "amoeba: malformed reply")

let transfer net ~bank ~caller ~from_ ~to_ ~currency ~amount =
  Result.map ignore
    (call net ~bank ~caller
       (Wire.L [ Wire.S "transfer"; Wire.S from_; Wire.S to_; Wire.S currency; Wire.I amount ]))

let balance net ~bank ~caller ~account ~currency =
  Result.bind
    (call net ~bank ~caller (Wire.L [ Wire.S "balance"; Wire.S account; Wire.S currency ]))
    Wire.to_int

let withdraw net ~bank ~caller ~account ~currency ~amount =
  Result.map ignore
    (call net ~bank ~caller
       (Wire.L [ Wire.S "withdraw"; Wire.S account; Wire.S currency; Wire.I amount ]))
