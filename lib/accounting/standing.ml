type t = {
  currency : string;
  limit : int;
  holder : Principal.t;
  drawn_from : Principal.Account.t;
  authority : Proxy.t;
}

let grant ~drbg ~now ~expires ~owner ~owner_key ~account ~holder ~currency ~limit () =
  let restrictions =
    [ Restriction.Grantee ([ holder ], 1);
      Restriction.Quota (currency, limit);
      Restriction.Issued_for [ account.Principal.Account.server ];
      Restriction.Authorized
        [ { Restriction.target = account.Principal.Account.account; ops = [ "debit" ] } ] ]
  in
  let authority =
    Proxy.grant_keyless ~drbg ~now ~expires ~grantor:owner ~grantor_key:owner_key ~restrictions ()
  in
  { currency; limit; holder; drawn_from = account; authority }

let to_wire t =
  Wire.L
    [ Wire.S t.currency;
      Wire.I t.limit;
      Principal.to_wire t.holder;
      Principal.Account.to_wire t.drawn_from;
      Proxy.transfer_to_wire t.authority ]

let of_wire v =
  let open Wire in
  let* currency = Result.bind (field v 0) to_string in
  let* limit = Result.bind (field v 1) to_int in
  let* holder = Result.bind (field v 2) Principal.of_wire in
  let* drawn_from = Result.bind (field v 3) Principal.Account.of_wire in
  let* pw = field v 4 in
  let* authority = Proxy.transfer_of_wire pw in
  if limit <= 0 then Error "standing authority: non-positive limit"
  else Ok { currency; limit; holder; drawn_from; authority }
