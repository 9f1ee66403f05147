type t = {
  net : Sim.Net.t;
  me : Principal.t;
  my_key : string;
  bank : Principal.t;
  account : string;
  signing_key : Crypto.Rsa.private_;
  lookup : Principal.t -> Crypto.Rsa.public option;
  granter : Granter.t;
  mutable pages_printed : int;
}

let price_per_page = 2
let page_bytes = 1000

let create net ~me ~my_key ~kdc ~bank ~account ~signing_key ~lookup =
  match Granter.create net ~me ~my_key ~kdc with
  | Error e -> Error e
  | Ok granter ->
      Ok { net; me; my_key; bank; account; signing_key; lookup; granter; pages_printed = 0 }

let me t = t.me
let pages_printed t = t.pages_printed

let pages_of_length len = max 1 ((len + page_bytes - 1) / page_bytes)

let trace t fmt =
  Printf.ksprintf
    (fun msg ->
      Sim.Trace.record (Sim.Net.trace t.net) ~time:(Sim.Net.now t.net)
        ~actor:(Principal.to_string t.me) msg)
    fmt

let deposit_check t check =
  match Granter.credentials_for t.granter t.bank with
  | Error e -> Error e
  | Ok creds ->
      Accounting_server.deposit t.net ~creds ~endorser_key:t.signing_key ~check
        ~to_account:t.account

let handle t payload =
  let open Wire in
  match payload with
  | L [ S "price"; I len ] -> Ok (Wire.I (pages_of_length len * price_per_page))
  | L [ S "print"; S document; S content; cw; cert_w ] -> (
      let* check = Check.of_wire cw in
      let pages = pages_of_length (String.length content) in
      let cost = pages * price_per_page in
      if check.Check.amount < cost then
        Error (Printf.sprintf "payment %d below cost %d" check.Check.amount cost)
      else if not (Principal.equal check.Check.payee t.me) then
        Error "check is not payable to the print server"
      else
        let certification =
          match cert_w with
          | Wire.L [] -> Ok None
          | v -> Result.map Option.some (Proxy.transfer_of_wire v)
        in
        let* certification = certification in
        match certification with
        | Some proxy -> (
            (* Certified: verify the guarantee offline, print, then clear. *)
            let* () =
              Accounting_server.verify_certification ~lookup:t.lookup
                ~now:(Sim.Net.now t.net)
                ~server:check.Check.drawn_on.Principal.Account.server
                ~check_number:check.Check.number proxy
            in
            t.pages_printed <- t.pages_printed + pages;
            trace t "printed %S (%d pages, certified payment %s)" document pages
              check.Check.number;
            match deposit_check t check with
            | Ok _ -> Ok (Wire.I pages)
            | Error e ->
                (* A certified check cannot bounce unless the guarantee was
                   forged; surface loudly. *)
                Error (Printf.sprintf "certified check failed to clear: %s" e))
        | None -> (
            (* Ordinary: service first, then deposit (Figure 5 order). *)
            match deposit_check t check with
            | Ok _ ->
                t.pages_printed <- t.pages_printed + pages;
                trace t "printed %S (%d pages, check %s cleared)" document pages
                  check.Check.number;
                Ok (Wire.I pages)
            | Error e ->
                trace t "job %S unpaid: %s" document e;
                Error (Printf.sprintf "check did not clear: %s" e)))
  | L (S (("price" | "print") as op) :: _) ->
      Error (Printf.sprintf "print-server: malformed %s request" op)
  | L (S other :: _) -> Error (Printf.sprintf "print-server: unknown operation %S" other)
  | _ -> Error "print-server: malformed request"

let install t = Secure_rpc.serve t.net ~me:t.me ~my_key:t.my_key (fun _ -> handle t)

let price net ~creds ~content_length =
  Result.bind (Secure_rpc.call net ~creds (Wire.L [ Wire.S "price"; Wire.I content_length ]))
    Wire.to_int

let print net ~creds ~document ~content ~check ?certification () =
  let cert_w =
    match certification with None -> Wire.L [] | Some p -> Proxy.transfer_to_wire p
  in
  let payload =
    Wire.L [ Wire.S "print"; Wire.S document; Wire.S content; Check.to_wire check; cert_w ]
  in
  Result.bind (Secure_rpc.call net ~creds payload) Wire.to_int
