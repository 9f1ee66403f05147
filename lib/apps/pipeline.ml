type t = {
  net : Sim.Net.t;
  me : Principal.t;
  my_key : string;
  fileserver : Principal.t;
  granter : Granter.t;
}

let create net ~me ~my_key ~kdc ~fileserver =
  match Granter.create net ~me ~my_key ~kdc with
  | Error e -> Error e
  | Ok granter -> Ok { net; me; my_key; fileserver; granter }

let me t = t.me

let count_words s =
  String.split_on_char ' ' s
  |> List.concat_map (String.split_on_char '\n')
  |> List.filter (fun w -> w <> "")
  |> List.length

let handle t ctx payload =
  let open Wire in
  match payload with
  | L [ S "word-count"; S path; pw ] ->
      let* capability = Proxy.transfer_of_wire pw in
      let now = Sim.Net.now t.net in
      let drbg = Sim.Net.drbg t.net in
      (* Cascade step: narrow the received capability to exactly what the
         subordinate request needs — this file, read only, one use. *)
      let once = Crypto.Sha256.to_hex (Crypto.Drbg.generate drbg 8) in
      let* narrowed =
        Proxy.restrict_conventional ~drbg ~now ~expires:(now + 3_600_000_000) ~grantor:t.me
          ~restrictions:
            [ Restriction.Authorized [ { Restriction.target = path; ops = [ "read" ] } ];
              Restriction.Accept_once ("pipeline-" ^ once) ]
          capability
      in
      let* creds = Granter.credentials_for t.granter t.fileserver in
      let presented =
        File_server.attach t.net ~proxy:narrowed ~server:t.fileserver ~operation:"read" ~path
      in
      let* content = File_server.read t.net ~creds ~proxies:[ presented ] ~path () in
      Sim.Trace.record (Sim.Net.trace t.net) ~time:(Sim.Net.now t.net)
        ~actor:(Principal.to_string t.me)
        (Printf.sprintf "word-count %S for %s" path
           (Principal.to_string ctx.Secure_rpc.rpc_client));
      Ok (Wire.I (count_words content))
  | L (S "word-count" :: _) -> Error "pipeline: malformed word-count request"
  | L (S op :: _) -> Error (Printf.sprintf "pipeline: unknown operation %S" op)
  | _ -> Error "pipeline: malformed request"

let install t = Secure_rpc.serve t.net ~me:t.me ~my_key:t.my_key (handle t)

let word_count net ~creds ~path ~capability =
  let payload =
    Wire.L [ Wire.S "word-count"; Wire.S path; Proxy.transfer_to_wire capability ]
  in
  Result.bind (Secure_rpc.call net ~creds payload) Wire.to_int
