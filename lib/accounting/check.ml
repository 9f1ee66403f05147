type t = {
  number : string;
  currency : string;
  amount : int;
  payee : Principal.t;
  drawn_on : Principal.Account.t;
  proxy : Proxy.t;
}

let restrictions ~number ~account ~payee ~currency ~amount =
  [ Restriction.Grantee ([ payee ], 1);
    Restriction.Accept_once number;
    Restriction.Quota (currency, amount);
    Restriction.Issued_for [ account.Principal.Account.server ];
    Restriction.Authorized
      [ { Restriction.target = account.Principal.Account.account; ops = [ "debit" ] } ] ]

let terms ~drbg ~account ~payee ~currency ~amount =
  let number = Crypto.Sha256.to_hex (Crypto.Drbg.generate drbg 12) in
  (number, restrictions ~number ~account ~payee ~currency ~amount)

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
  match v with
  | L [ S number; S currency; I amount; payee; drawn_on; proxy ] ->
      let* payee = Principal.of_wire payee in
      let* drawn_on = Principal.Account.of_wire drawn_on in
      let* proxy = Proxy.transfer_of_wire proxy in
      (* The five wrapper fields travel unsigned: they must restate exactly
         what the payor signed in the head certificate. *)
      let signed =
        match proxy.Proxy.flavor with
        | Proxy.Public_key ({ Proxy_cert.pk_body = head; _ } :: _) -> head.Proxy_cert.restrictions
        | Proxy.Public_key [] | Proxy.Conventional _ | Proxy.Hybrid _ -> []
      in
      let wrapper = restrictions ~number ~account:drawn_on ~payee ~currency ~amount in
      if amount <= 0 then Error "check: non-positive amount"
      else if not (List.equal Restriction.equal signed wrapper) then
        Error "check: the wrapper does not match the signed terms"
      else Ok { number; currency; amount; payee; drawn_on; proxy }
  | _ -> Error "check: malformed"
