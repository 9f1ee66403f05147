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
  (number, Standing.restrictions ~number:(Some number) ~holder:payee ~account ~currency ~limit:amount)

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

let of_proxy proxy =
  match Standing.read proxy with
  | Ok (Some number, { Standing.currency; limit; holder; drawn_from; _ }) ->
      Ok { number; currency; amount = limit; payee = holder; drawn_on = drawn_from; proxy }
  | Ok (None, _) -> Error "check: no check number is signed"
  | Error e -> Error ("check: " ^ e)

let to_wire c = Proxy.presentation_to_wire c.proxy.Proxy.flavor

let of_wire v = Result.bind (Proxy.keyless_of_wire v) of_proxy
