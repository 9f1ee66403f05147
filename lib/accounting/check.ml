type t = {
  number : string;
  currency : string;
  amount : int;
  payee : Principal.t;
  drawn_on : Principal.Account.t;
  proxy : Proxy.t;
}

let terms ~drbg ~account ~payee ~currency ~amount =
  let number = Crypto.Sha256.to_hex (Crypto.Drbg.generate drbg 12) in
  ( number,
    [ Restriction.Grantee ([ payee ], 1);
      Restriction.Accept_once number;
      Restriction.Quota (currency, amount);
      Restriction.Issued_for [ account.Principal.Account.server ];
      Restriction.Authorized
        [ { Restriction.target = account.Principal.Account.account; ops = [ "debit" ] } ] ] )

let write ~drbg ~now ~expires ~payor ~payor_key ~account ~payee ~currency ~amount () =
  let number, restrictions = terms ~drbg ~account ~payee ~currency ~amount in
  let proxy =
    Proxy.grant_keyless ~drbg ~now ~expires ~grantor:payor ~grantor_key:payor_key ~restrictions ()
  in
  { number; currency; amount; payee; drawn_on = account; proxy }

let endorse ~drbg ~now ~expires ~endorser ~endorser_key ~next check =
  match
    Proxy.delegate_keyless ~drbg ~now ~expires ~intermediate:endorser
      ~intermediate_key:endorser_key
      ~restrictions:[ Restriction.Grantee ([ next ], 1) ]
      check.proxy
  with
  | Error e -> Error e
  | Ok proxy -> Ok { check with proxy }

let to_wire c =
  Wire.L
    [ Wire.S c.number;
      Wire.S c.currency;
      Wire.I c.amount;
      Principal.to_wire c.payee;
      Principal.Account.to_wire c.drawn_on;
      Proxy.transfer_to_wire c.proxy ]

let of_wire v =
  let open Wire in
  let* number = Result.bind (field v 0) to_string in
  let* currency = Result.bind (field v 1) to_string in
  let* amount = Result.bind (field v 2) to_int in
  let* payee = Result.bind (field v 3) Principal.of_wire in
  let* drawn_on = Result.bind (field v 4) Principal.Account.of_wire in
  let* pw = field v 5 in
  let* proxy = Proxy.transfer_of_wire pw in
  if amount <= 0 then Error "check: non-positive amount"
  else Ok { number; currency; amount; payee; drawn_on; proxy }
