type t = {
  net : Sim.Net.t;
  me : Principal.t;
  my_key : string;
  signing_key : Crypto.Rsa.private_;
  lookup : Principal.t -> Crypto.Rsa.public option;
  revocation : Revocation.t option;
  lifetime_us : int;
}

let ( let* ) = Result.bind
let default_lifetime_us = 15 * 60 * 1_000_000

let create net ~me ~my_key ~signing_key ~lookup ?revocation
    ?(lifetime_us = default_lifetime_us) () =
  if lifetime_us < 1 then invalid_arg "Refresher.create: lifetime must be positive";
  { net; me; my_key; signing_key; lookup; revocation; lifetime_us }

let revocation t = t.revocation

let handle t ctx payload =
  let open Wire in
  match payload with
  | L [ S "refresh"; pw ] -> (
      let* pres = Proxy.presentation_of_wire pw in
      match pres with
      | Proxy.Conventional _ | Proxy.Hybrid _ ->
          Error "refresh: only public-key chains can be refreshed"
      | Proxy.Public_key [] -> Error "refresh: empty certificate chain"
      | Proxy.Public_key (head :: _ as certs) ->
          let now = Sim.Net.now t.net in
          let metrics = Sim.Net.metrics t.net in
          if not (Principal.equal head.Proxy_cert.pk_body.Proxy_cert.grantor t.me) then
            Error "refresh: this grantor did not issue the chain's head"
          else begin
            (* Full verification, revocation included: an expired, tampered
               or revoked chain gets no new lease, and a stale bulletin
               fails the refresh closed like any other verification. *)
            match
              Verifier.verify_pk ~lookup:t.lookup
                ~tally:(fun name -> Sim.Metrics.incr metrics name)
                ?revocation:t.revocation ~now certs
            with
            | Error e ->
                Sim.Metrics.incr metrics "refresh.refused";
                Error (Printf.sprintf "refresh refused: %s" e)
            | Ok _verified ->
                let body = head.Proxy_cert.pk_body in
                let serial =
                  Crypto.Sha256.to_hex (Crypto.Drbg.generate (Sim.Net.drbg t.net) 16)
                in
                let body' =
                  {
                    body with
                    Proxy_cert.serial;
                    issued_at = now;
                    expires = now + t.lifetime_us;
                  }
                in
                let cert' =
                  Proxy_cert.sign_pk ~key:t.signing_key ~signer:Proxy_cert.By_grantor_key
                    ~proxy_pub:head.Proxy_cert.proxy_pub body'
                in
                Sim.Metrics.incr metrics "refresh.issued";
                Sim.Trace.record (Sim.Net.trace t.net) ~time:now
                  ~actor:(Principal.to_string t.me)
                  (Printf.sprintf "refreshed proxy head for %s (expires %d)"
                     (Principal.to_string ctx.Secure_rpc.rpc_client)
                     body'.Proxy_cert.expires);
                Ok (Proxy_cert.pk_cert_to_wire cert')
          end)
  | L (S "refresh" :: _) -> Error "refresher: malformed refresh request"
  | L (S other :: _) -> Error (Printf.sprintf "refresher: unknown operation %S" other)
  | _ -> Error "refresher: malformed request"

let install t = Secure_rpc.serve t.net ~me:t.me ~my_key:t.my_key (handle t)

let refresh net ~creds (proxy : Proxy.t) =
  match proxy.Proxy.flavor with
  | Proxy.Conventional _ | Proxy.Hybrid _ ->
      Error "refresh: only public-key chains can be refreshed"
  | Proxy.Public_key [] -> Error "refresh: empty certificate chain"
  | Proxy.Public_key (old_head :: tail) ->
      let payload =
        Wire.L [ Wire.S "refresh"; Proxy.presentation_to_wire (Proxy.presentation proxy) ]
      in
      let* head = Result.bind (Secure_rpc.call net ~creds payload) Proxy_cert.pk_cert_of_wire in
      (* The proxy key is unchanged, present or absent — splicing in a head
         bound to a different key, or adding or dropping one, would orphan
         the held secret or the cascade. *)
      let key_bytes (c : Proxy_cert.pk_cert) =
        Option.map Crypto.Rsa.public_to_bytes c.Proxy_cert.proxy_pub
      in
      if key_bytes head <> key_bytes old_head then
        Error "refresh: returned head is bound to a different proxy key"
      else Ok { proxy with Proxy.flavor = Proxy.Public_key (head :: tail) }
