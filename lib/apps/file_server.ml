type t = {
  net : Sim.Net.t;
  me : Principal.t;
  my_key : string;
  guard : Guard.t;
  files : (string, string) Hashtbl.t;
}

let create net ~me ~my_key ?lookup_pub ?my_rsa ?verify_cache ?revocation ~acl () =
  let guard = Guard.create net ~me ~my_key ?lookup_pub ?my_rsa ?verify_cache ?revocation ~acl () in
  { net; me; my_key; guard; files = Hashtbl.create 16 }

let acl t = Guard.acl t.guard
let guard t = t.guard
let put_direct t ~path content = Hashtbl.replace t.files path content
let get_direct t ~path = Hashtbl.find_opt t.files path

let handle t ctx payload =
  let open Wire in
  let* op, path, data, proxies, group_proxies =
    match payload with
    | L [ S op; S path; S data; L pw; L gw ] ->
        let* proxies = map_all (Guard.decode_presented t.guard) pw in
        let* group_proxies = map_all (Guard.decode_presented t.guard) gw in
        Ok (op, path, data, proxies, group_proxies)
    | _ -> Error "file-server: malformed request"
  in
  (* Restrictions riding on the caller's own ticket bind first (a
     restricted TGS proxy reaches us as ordinary credentials). *)
  let* () =
    Guard.transport_ok ~me:t.me ~now:(Sim.Net.now t.net)
      ~auth_data:ctx.Secure_rpc.rpc_auth_data ~operation:op ~target:path ()
  in
  let* _decision =
    Guard.decide t.guard ~operation:op ~target:path ~presenter:ctx.Secure_rpc.rpc_client
      ~ticket:ctx.Secure_rpc.rpc_ticket ~proxies ~group_proxies ()
  in
  match op with
  | "read" -> (
      match Hashtbl.find_opt t.files path with
      | Some content -> Ok (Wire.S content)
      | None -> Error (Printf.sprintf "no such file %S" path))
  | "write" ->
      Hashtbl.replace t.files path data;
      Ok (Wire.L [])
  | "stat" -> (
      match Hashtbl.find_opt t.files path with
      | Some content -> Ok (Wire.I (String.length content))
      | None -> Error (Printf.sprintf "no such file %S" path))
  | "open" -> (
      (* Access check only — the op that typically heads a sequence
         restriction (open-before-read, open-before-debit). *)
      match Hashtbl.find_opt t.files path with
      | Some _ -> Ok (Wire.L [])
      | None -> Error (Printf.sprintf "no such file %S" path))
  | other -> Error (Printf.sprintf "file-server: unknown operation %S" other)

let install t = Secure_rpc.serve t.net ~me:t.me ~my_key:t.my_key (handle t)

let attach _net ~proxy ~server:_ ~operation:_ ~path:_ = proxy

let request net ~creds ?retry ~proxies ~group_proxies ~op ~path ~data () =
  let payload =
    Wire.L
      [ Wire.S op;
        Wire.S path;
        Wire.S data;
        Guard.presentations ~creds proxies;
        Guard.presentations ~creds group_proxies ]
  in
  Secure_rpc.call net ~creds ?retry payload

let read net ~creds ?retry ?(proxies = []) ?(group_proxies = []) ~path () =
  Result.bind
    (request net ~creds ?retry ~proxies ~group_proxies ~op:"read" ~path ~data:"" ())
    Wire.to_string

let write net ~creds ?(proxies = []) ~path data =
  Result.map ignore (request net ~creds ~proxies ~group_proxies:[] ~op:"write" ~path ~data ())

let stat net ~creds ~path () =
  Result.bind
    (request net ~creds ~proxies:[] ~group_proxies:[] ~op:"stat" ~path ~data:"" ())
    Wire.to_int

let open_ net ~creds ?retry ?(proxies = []) ~path () =
  Result.map ignore
    (request net ~creds ?retry ~proxies ~group_proxies:[] ~op:"open" ~path ~data:"" ())
