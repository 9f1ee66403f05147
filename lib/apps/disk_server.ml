let blocks_currency = "blocks"

type file = { file_owner : Principal.t; content : string; blocks : int }

type t = {
  net : Sim.Net.t;
  me : Principal.t;
  my_key : string;
  bank : Principal.t;
  escrow_account : string;
  granter : Granter.t;
  files : (string, file) Hashtbl.t;
  authorities : (string, Standing.t) Hashtbl.t; (* owner -> standing authority *)
}

let block_bytes = 512

let create net ~me ~my_key ~kdc ~bank ~escrow_account =
  match Granter.create net ~me ~my_key ~kdc with
  | Error e -> Error e
  | Ok granter ->
      Ok
        {
          net; me; my_key; bank; escrow_account; granter;
          files = Hashtbl.create 16;
          authorities = Hashtbl.create 8;
        }

let me t = t.me

let blocks_of content = max 1 ((String.length content + block_bytes - 1) / block_bytes)

let bank_creds t = Granter.credentials_for t.granter t.bank

let charge t ~owner ~blocks =
  match Hashtbl.find_opt t.authorities (Principal.to_string owner) with
  | None -> Error "no standing authority attached; call attach first"
  | Some authority -> (
      match bank_creds t with
      | Error e -> Error e
      | Ok creds ->
          Result.map
            (fun _total -> ())
            (Accounting_server.standing_debit t.net ~creds ~authority
               ~to_account:t.escrow_account ~amount:blocks))

let refund t ~owner ~blocks =
  match Hashtbl.find_opt t.authorities (Principal.to_string owner) with
  | None -> Error "no standing authority attached"
  | Some authority -> (
      match bank_creds t with
      | Error e -> Error e
      | Ok creds ->
          Result.map
            (fun _total -> ())
            (Accounting_server.standing_release t.net ~creds ~authority
               ~from_account:t.escrow_account ~amount:blocks))

let release_existing t ~client ~path =
  match Hashtbl.find_opt t.files path with
  | Some old when Principal.equal old.file_owner client ->
      Result.map (fun () -> Hashtbl.remove t.files path) (refund t ~owner:client ~blocks:old.blocks)
  | Some _ -> Error "path owned by someone else"
  | None -> Ok ()

let handle t ctx payload =
  let open Wire in
  let client = ctx.Secure_rpc.rpc_client in
  match payload with
  | L [ S "attach"; sw ] -> (
      let* authority = Standing.of_wire sw in
      if not (Principal.equal authority.Standing.holder t.me) then
        Error "authority does not name this disk server as holder"
      else if authority.Standing.currency <> blocks_currency then
        Error (Printf.sprintf "authority currency must be %S" blocks_currency)
      else begin
        Hashtbl.replace t.authorities (Principal.to_string client) authority;
        Ok (Wire.L [])
      end)
  | L [ S "write"; S path; S content ] -> (
      let blocks = blocks_of content in
      let* () = release_existing t ~client ~path in
      match charge t ~owner:client ~blocks with
      | Error e -> Error (Printf.sprintf "quota refused: %s" e)
      | Ok () ->
          Hashtbl.replace t.files path { file_owner = client; content; blocks };
          Sim.Trace.record (Sim.Net.trace t.net) ~time:(Sim.Net.now t.net)
            ~actor:(Principal.to_string t.me)
            (Printf.sprintf "stored %S (%d blocks) for %s" path blocks
               (Principal.to_string client));
          Ok (Wire.I blocks))
  | L [ S "read"; S path ] -> (
      match Hashtbl.find_opt t.files path with
      | Some f when Principal.equal f.file_owner client -> Ok (Wire.S f.content)
      | Some _ -> Error "not your file"
      | None -> Error (Printf.sprintf "no such file %S" path))
  | L [ S "delete"; S path ] -> (
      match Hashtbl.find_opt t.files path with
      | Some f when Principal.equal f.file_owner client ->
          let* () = refund t ~owner:client ~blocks:f.blocks in
          Hashtbl.remove t.files path;
          Ok (Wire.I f.blocks)
      | Some _ -> Error "not your file"
      | None -> Error (Printf.sprintf "no such file %S" path))
  | L [ S "usage" ] ->
      let used =
        Hashtbl.fold
          (fun _ f acc -> if Principal.equal f.file_owner client then acc + f.blocks else acc)
          t.files 0
      in
      Ok (Wire.I used)
  | L (S (("attach" | "write" | "read" | "delete" | "usage") as op) :: _) ->
      Error (Printf.sprintf "disk-server: malformed %s request" op)
  | L (S other :: _) -> Error (Printf.sprintf "disk-server: unknown operation %S" other)
  | _ -> Error "disk-server: malformed request"

let install t = Secure_rpc.serve t.net ~me:t.me ~my_key:t.my_key (handle t)

let attach net ~creds ~authority =
  Result.map ignore
    (Secure_rpc.call net ~creds (Wire.L [ Wire.S "attach"; Standing.to_wire authority ]))

let write_file net ~creds ~path content =
  Result.bind
    (Secure_rpc.call net ~creds (Wire.L [ Wire.S "write"; Wire.S path; Wire.S content ]))
    Wire.to_int

let read_file net ~creds ~path =
  Result.bind (Secure_rpc.call net ~creds (Wire.L [ Wire.S "read"; Wire.S path ])) Wire.to_string

let delete_file net ~creds ~path =
  Result.bind (Secure_rpc.call net ~creds (Wire.L [ Wire.S "delete"; Wire.S path ])) Wire.to_int

let usage net ~creds =
  Result.bind (Secure_rpc.call net ~creds (Wire.L [ Wire.S "usage" ])) Wire.to_int
