type t = {
  currency : string;
  limit : int;
  holder : Principal.t;
  drawn_from : Principal.Account.t;
  authority : Proxy.t;
}

let restrictions ~number ~holder ~(account : Principal.Account.t) ~currency ~limit =
  (Restriction.Grantee ([ holder ], 1)
  :: Option.to_list (Option.map (fun n -> Restriction.Accept_once n) number))
  @ [ Restriction.Quota (currency, limit);
      Restriction.Issued_for [ account.server ];
      Restriction.Authorized [ { Restriction.target = account.account; ops = [ "debit" ] } ] ]

(* Each pattern is one of the two shapes [restrictions] writes. *)
let read (authority : Proxy.t) =
  let open Restriction in
  let terms number holder currency limit server account =
    if limit <= 0 then Error "debit grant: non-positive amount"
    else if account = "" then Error "debit grant: empty account name"
    else
      let drawn_from = Principal.Account.make ~server account in
      Ok (number, { currency; limit; holder; drawn_from; authority })
  in
  match authority.Proxy.flavor with
  | Proxy.Public_key ({ Proxy_cert.pk_body = { Proxy_cert.restrictions = head; _ }; _ } :: _) -> (
      match head with
      | [ Grantee ([ h ], 1); Accept_once n; Quota (c, l); Issued_for [ s ];
          Authorized [ { target; ops = [ "debit" ] } ] ] -> terms (Some n) h c l s target
      | [ Grantee ([ h ], 1); Quota (c, l); Issued_for [ s ];
          Authorized [ { target; ops = [ "debit" ] } ] ] -> terms None h c l s target
      | _ -> Error "debit grant: the head certificate signs other terms")
  | _ -> Error "debit grant: not a public-key chain"

let grant ~drbg ~now ~expires ~owner ~owner_key ~account ~holder ~currency ~limit () =
  let restrictions = restrictions ~number:None ~holder ~account ~currency ~limit in
  let authority =
    Proxy.grant_keyless ~drbg ~now ~expires ~grantor:owner ~grantor_key:owner_key ~restrictions ()
  in
  { currency; limit; holder; drawn_from = account; authority }

let of_proxy proxy =
  match read proxy with
  | Ok (None, t) -> Ok t
  | Ok (Some _, _) -> Error "standing authority: a check number is signed"
  | Error e -> Error ("standing authority: " ^ e)

let to_wire t = Proxy.presentation_to_wire t.authority.Proxy.flavor

let of_wire v = Result.bind (Proxy.keyless_of_wire v) of_proxy
