type t = {
  net : Sim.Net.t;
  me : Principal.t;
  my_key : string;
  signing_key : Crypto.Rsa.private_;
  lookup : Principal.t -> Crypto.Rsa.public option;
  mutable epoch : int;
  mutable entries : Revocation.entry list;  (* cumulative, oldest first *)
  mutable current : Revocation.bulletin;
}

let ( let* ) = Result.bind

let sign_current t =
  t.current <-
    Revocation.sign ~key:t.signing_key ~issuer:t.me ~epoch:t.epoch
      ~issued_at:(Sim.Net.now t.net) t.entries;
  t.current

let create net ~me ~my_key ~signing_key ?(lookup = fun _ -> None) () =
  {
    net;
    me;
    my_key;
    signing_key;
    lookup;
    epoch = 1;
    entries = [];
    current =
      Revocation.sign ~key:signing_key ~issuer:me ~epoch:1 ~issued_at:(Sim.Net.now net) [];
  }

let epoch t = t.epoch
let bulletin t = t.current

let trace t fmt =
  Printf.ksprintf
    (fun msg ->
      Sim.Trace.record (Sim.Net.trace t.net) ~time:(Sim.Net.now t.net)
        ~actor:(Principal.to_string t.me) msg)
    fmt

let publish t =
  t.epoch <- t.epoch + 1;
  Sim.Metrics.incr (Sim.Net.metrics t.net) "revocation.bulletins_published";
  sign_current t

let add_entry t e =
  (* Cumulative list: duplicates add nothing, a later grantor epoch
     supersedes an earlier one for the same grantor. *)
  let covered =
    match e with
    | Revocation.By_serial s ->
        List.exists (function Revocation.By_serial s' -> s' = s | _ -> false) t.entries
    | Revocation.By_grantor_epoch { grantor; not_before } ->
        List.exists
          (function
            | Revocation.By_grantor_epoch { grantor = g; not_before = nb } ->
                Principal.equal g grantor && nb >= not_before
            | _ -> false)
          t.entries
  in
  if not covered then begin
    t.entries <- t.entries @ [ e ];
    Sim.Metrics.incr (Sim.Net.metrics t.net) "revocation.revocations"
  end;
  publish t

let revoke_serial t serial =
  trace t "revoked certificate serial %s" (String.sub serial 0 (min 8 (String.length serial)));
  add_entry t (Revocation.By_serial serial)

let revoke_grantor_epoch t ~grantor =
  let not_before = Sim.Net.now t.net in
  trace t "revoked grantor %s before %d" (Principal.to_string grantor) not_before;
  add_entry t (Revocation.By_grantor_epoch { grantor; not_before })

let handle t ctx payload =
  let open Wire in
  let caller = ctx.Secure_rpc.rpc_client in
  match payload with
  | L [ S "fetch" ] ->
      Sim.Metrics.incr (Sim.Net.metrics t.net) "revocation.fetches";
      Ok (Revocation.to_wire t.current)
  | L [ S "revoke-cert"; cw ] ->
      let* cert = Proxy_cert.pk_cert_of_wire cw in
      let body = cert.Proxy_cert.pk_body in
      if not (Principal.equal body.Proxy_cert.grantor caller) then
        Error
          (Printf.sprintf "revoke-cert: %s is not the grantor of this certificate"
             (Principal.to_string caller))
      else begin
        (* Only authentic certificates are listed — refusing garbage serials
           keeps the bulletin small and stops a caller poisoning the list
           with serials it never issued. *)
        let* () =
          match cert.Proxy_cert.pk_signer with
          | Proxy_cert.By_grantor_key -> Ok ()
          | _ -> Error "revoke-cert: only grantor-signed head certificates can be revoked here"
        in
        let* () =
          match t.lookup caller with
          | None -> Error "revoke-cert: no public key known for the caller"
          | Some pub -> Proxy_cert.verify_pk_signature pub cert
        in
        let b = revoke_serial t body.Proxy_cert.serial in
        Ok (Wire.I b.Revocation.epoch)
      end
  | L [ S "revoke-grantor" ] ->
      Ok (Wire.I (revoke_grantor_epoch t ~grantor:caller).Revocation.epoch)
  | L (S (("fetch" | "revoke-cert" | "revoke-grantor") as tag) :: _) ->
      Error (Printf.sprintf "revocation-authority: malformed %s request" tag)
  | L (S other :: _) -> Error (Printf.sprintf "revocation-authority: unknown operation %S" other)
  | _ -> Error "revocation-authority: malformed request"

let install t = Secure_rpc.serve t.net ~me:t.me ~my_key:t.my_key (handle t)

(* --- client side --- *)

let fetch net ~creds =
  Result.bind (Secure_rpc.call net ~creds (Wire.L [ Wire.S "fetch" ])) Revocation.of_wire

let sync net ~creds guard =
  let* b = fetch net ~creds in
  Guard.apply_bulletin guard b

let revoke_cert net ~creds cert =
  Result.bind
    (Secure_rpc.call net ~creds (Wire.L [ Wire.S "revoke-cert"; Proxy_cert.pk_cert_to_wire cert ]))
    Wire.to_int

let revoke_grantor net ~creds =
  Result.bind (Secure_rpc.call net ~creds (Wire.L [ Wire.S "revoke-grantor" ])) Wire.to_int
