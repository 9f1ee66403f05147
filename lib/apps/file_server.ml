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

let me t = t.me
let acl t = Guard.acl t.guard
let guard t = t.guard
let put_direct t ~path content = Hashtbl.replace t.files path content
let get_direct t ~path = Hashtbl.find_opt t.files path

let handle t ctx payload =
  let open Wire in
  let* op = Result.bind (field payload 0) to_string in
  let* path = Result.bind (field payload 1) to_string in
  let* data = Result.bind (field payload 2) to_string in
  let* pw = Result.bind (field payload 3) to_list in
  let* proxies = Wire.map_all Guard.presented_of_wire pw in
  let* gw = Result.bind (field payload 4) to_list in
  let* group_proxies = Wire.map_all Guard.presented_of_wire gw in
  (* Restrictions riding on the caller's own ticket bind first (a
     restricted TGS proxy reaches us as ordinary credentials). *)
  let* () =
    Guard.transport_ok ~me:t.me ~now:(Sim.Net.now t.net)
      ~auth_data:ctx.Secure_rpc.rpc_auth_data ~operation:op ~target:path ()
  in
  let* _decision =
    Guard.decide t.guard ~operation:op ~target:path ~presenter:ctx.Secure_rpc.rpc_client
      ~proxies ~group_proxies ()
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

let install t =
  Secure_rpc.serve t.net ~me:t.me ~my_key:t.my_key (fun ctx payload -> handle t ctx payload)

let attach net ~proxy ~server ~operation ~path =
  Guard.present ~proxy ~time:(Sim.Net.now net) ~server ~operation ~target:path ()

let request net ~creds ?retry ~proxies ~group_proxies ~op ~path ~data () =
  let payload =
    Wire.L
      [ Wire.S op;
        Wire.S path;
        Wire.S data;
        Wire.L (List.map Guard.presented_to_wire proxies);
        Wire.L (List.map Guard.presented_to_wire group_proxies) ]
  in
  Secure_rpc.call net ~creds ?retry payload

let read net ~creds ?retry ?(proxies = []) ?(group_proxies = []) ~path () =
  Result.bind
    (request net ~creds ?retry ~proxies ~group_proxies ~op:"read" ~path ~data:"" ())
    Wire.to_string

let write net ~creds ?(proxies = []) ?(group_proxies = []) ~path data =
  Result.map ignore (request net ~creds ~proxies ~group_proxies ~op:"write" ~path ~data ())

let stat net ~creds ?(proxies = []) ?(group_proxies = []) ~path () =
  Result.bind
    (request net ~creds ~proxies ~group_proxies ~op:"stat" ~path ~data:"" ())
    Wire.to_int

let open_ net ~creds ?retry ?(proxies = []) ?(group_proxies = []) ~path () =
  Result.map ignore
    (request net ~creds ?retry ~proxies ~group_proxies ~op:"open" ~path ~data:"" ())
