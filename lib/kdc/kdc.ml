type t = {
  net : Sim.Net.t;
  name : Principal.t;
  directory : Directory.t;
  lifetime_us : int;
  max_skew_us : int;
  require_preauth : bool;
  cross_keys : (string, string) Hashtbl.t; (* peer realm -> inter-realm key *)
}

let create net ~name ~directory ?(lifetime_us = 8 * 3600 * 1_000_000)
    ?(max_skew_us = 5 * 60 * 1_000_000) ?(require_preauth = false) () =
  (match Directory.symmetric directory name with
  | Some _ -> ()
  | None -> invalid_arg "Kdc.create: KDC key not registered in directory");
  { net; name; directory; lifetime_us; max_skew_us; require_preauth;
    cross_keys = Hashtbl.create 4 }

let name t = t.name

let add_cross_realm t ~peer_realm ~key = Hashtbl.replace t.cross_keys peer_realm key

let federate a b =
  let key = Sim.Net.fresh_key a.net in
  add_cross_realm a ~peer_realm:b.name.Principal.realm ~key;
  add_cross_realm b ~peer_realm:a.name.Principal.realm ~key

(* The key a ticket for [service] must be sealed under: a local service's
   long-term key, or the inter-realm key when the target is a foreign KDC
   (the cross-realm TGT of Kerberos). *)
let service_key_for t service =
  if service.Principal.realm = t.name.Principal.realm then
    match Directory.symmetric t.directory service with
    | Some key -> Ok key
    | None -> Error (Printf.sprintf "unknown service %s" (Principal.to_string service))
  else
    match Hashtbl.find_opt t.cross_keys service.Principal.realm with
    | Some key when service.Principal.name = "kdc" -> Ok key
    | Some _ -> Error "cross-realm tickets may only name the remote realm's KDC"
    | None -> Error (Printf.sprintf "no trust path to realm %s" service.Principal.realm)

let metrics_incr t name = Sim.Metrics.incr (Sim.Net.metrics t.net) name

(* Open a presented TGT: sealed under our own key for local clients, or
   under an inter-realm key when a foreign KDC issued it. Returns which key
   opened it. A cross-realm open binds the client to the trusting realm:
   the peer that sealed the ticket may only speak for its own principals,
   never for ours or a third realm's — otherwise any single federated peer
   could mint tickets for users of every realm we trust, including our own.
   Inter-realm keys are tried in sorted realm order (key-trial order must
   not depend on Hashtbl history) and every attempted open is metered. *)
let open_tgt t blob =
  let own_key =
    match Directory.symmetric t.directory t.name with
    | Some k -> k
    | None -> assert false (* checked in [create] *)
  in
  metrics_incr t "crypto.open";
  match Ticket.open_ ~service_key:(Crypto.Aead.prepare own_key) blob with
  | Ok tgt -> Ok (tgt, `Local)
  | Error _ ->
      let peers =
        List.sort compare (Hashtbl.fold (fun realm key acc -> (realm, key) :: acc) t.cross_keys [])
      in
      let rec trial = function
        | [] -> Error "cannot open presented ticket"
        | (peer_realm, key) :: rest -> (
            metrics_incr t "crypto.open";
            match Ticket.open_ ~service_key:(Crypto.Aead.prepare key) blob with
            | Error _ -> trial rest
            | Ok tgt ->
                (* The sealing key is authenticated, so this key's owner is
                   the issuer; stop trialling and judge the contents. *)
                let client_realm = tgt.Ticket.client.Principal.realm in
                if client_realm <> peer_realm || client_realm = t.name.Principal.realm then
                  Error
                    (Printf.sprintf
                       "cross-realm TGT client realm %s does not match trusting realm %s"
                       client_realm peer_realm)
                else Ok (tgt, `Cross peer_realm))
      in
      trial peers

let err msg = Wire.encode (Wire.L [ Wire.S "err"; Wire.S msg ])
let ok parts = Wire.encode (Wire.L (Wire.S "ok" :: parts))

(* Issue a ticket for [client] at [service] and build the reply sealed under
   [reply_key]. *)
let issue t ~client ~service ~auth_data ~expires ~nonce ~reply_key ~reply_ad =
  match service_key_for t service with
  | Error e -> err e
  | Ok service_key ->
      let now = Sim.Net.now t.net in
      let session_key = Sim.Net.fresh_key t.net in
      let body =
        {
          Ticket.client;
          service;
          session_key;
          auth_time = now;
          expires;
          authorization_data = auth_data;
        }
      in
      metrics_incr t "crypto.seal";
      let blob =
        Ticket.seal ~service_key:(Crypto.Aead.prepare service_key)
          ~nonce:(Sim.Net.fresh_nonce t.net) body
      in
      let enc_part =
        Wire.encode
          (Wire.L
             [ Wire.S session_key;
               Wire.I nonce;
               Wire.I expires;
               Principal.to_wire service;
               Wire.L auth_data ])
      in
      metrics_incr t "crypto.seal";
      let sealed =
        Crypto.Aead.encode
          (Crypto.Aead.seal ~key:reply_key ~ad:reply_ad ~nonce:(Sim.Net.fresh_nonce t.net) enc_part)
      in
      Sim.Trace.record (Sim.Net.trace t.net) ~time:now
        ~actor:(Principal.to_string t.name)
        (Printf.sprintf "issued ticket: client=%s service=%s restrictions=%d"
           (Principal.to_string client) (Principal.to_string service) (List.length auth_data));
      ok [ Wire.S blob; Wire.S sealed ]

(* Pre-authentication (the PA-ENC-TIMESTAMP analogue): a fresh timestamp
   sealed under the client's long-term key, proving the requester knows the
   key before the KDC issues anything. *)
let check_preauth t ~client_key blob =
  if blob = "" then
    if t.require_preauth then Error "as: pre-authentication required" else Ok ()
  else
    match Crypto.Aead.decode blob with
    | None -> Error "as: malformed pre-authentication"
    | Some box -> (
        match Crypto.Aead.open_ ~key:client_key ~ad:"preauth" box with
        | None -> Error "as: pre-authentication failed"
        | Some plaintext -> (
            match Result.bind (Wire.decode plaintext) Wire.to_int with
            | Error _ -> Error "as: malformed pre-authentication timestamp"
            | Ok ts ->
                if abs (ts - Sim.Net.now t.net) > t.max_skew_us then
                  Error "as: pre-authentication timestamp outside window"
                else Ok ()))

let handle_as t fields =
  let open Wire in
  let parsed =
    let* client = Result.bind (field fields 1) Principal.of_wire in
    let* service = Result.bind (field fields 2) Principal.of_wire in
    let* nonce = Result.bind (field fields 3) to_int in
    let* auth_data = Result.bind (field fields 4) to_list in
    let preauth =
      match Result.bind (field fields 5) to_string with Ok s -> s | Error _ -> ""
    in
    Ok (client, service, nonce, auth_data, preauth)
  in
  match parsed with
  | Error e -> err ("as: " ^ e)
  | Ok (client, service, nonce, auth_data, preauth) -> (
      metrics_incr t "kdc.as_req";
      match Directory.symmetric t.directory client with
      | None -> err (Printf.sprintf "unknown client %s" (Principal.to_string client))
      | Some client_key -> (
          match check_preauth t ~client_key preauth with
          | Error e -> err e
          | Ok () ->
              let expires = Sim.Net.now t.net + t.lifetime_us in
              issue t ~client ~service ~auth_data ~expires ~nonce ~reply_key:client_key
                ~reply_ad:"as-rep"))

let handle_tgs t fields =
  let open Wire in
  let parsed =
    let* tgt_blob = Result.bind (field fields 1) to_string in
    let* auth_blob = Result.bind (field fields 2) to_string in
    let* target = Result.bind (field fields 3) Principal.of_wire in
    let* nonce = Result.bind (field fields 4) to_int in
    Ok (tgt_blob, auth_blob, target, nonce)
  in
  match parsed with
  | Error e -> err ("tgs: " ^ e)
  | Ok (tgt_blob, auth_blob, target, nonce) -> (
      metrics_incr t "kdc.tgs_req";
      match open_tgt t tgt_blob with
      | Error e -> err ("tgs: " ^ e)
      | Ok (tgt, origin) ->
          (match origin with
          | `Local -> ()
          | `Cross peer -> (
              metrics_incr t "kdc.tgs_cross";
              Sim.Trace.record (Sim.Net.trace t.net) ~time:(Sim.Net.now t.net)
                ~actor:(Principal.to_string t.name)
                (Printf.sprintf "cross-realm TGT accepted: client=%s trusting=%s"
                   (Principal.to_string tgt.Ticket.client) peer)));
          let now = Sim.Net.now t.net in
          if not (Principal.equal tgt.Ticket.service t.name) then err "tgs: ticket is not a TGT"
          else if tgt.Ticket.expires <= now then err "tgs: TGT expired"
          else begin
            metrics_incr t "crypto.open";
            match
              Ticket.open_authenticator
                ~session_key:(Crypto.Aead.prepare tgt.Ticket.session_key) auth_blob
            with
            | Error e -> err ("tgs: " ^ e)
            | Ok auth ->
                if not (Principal.equal auth.Ticket.auth_client tgt.Ticket.client) then
                  err "tgs: authenticator client mismatch"
                else if abs (auth.Ticket.timestamp - now) > t.max_skew_us then
                  err "tgs: authenticator too old"
                else begin
                  (* Restrictions are additive: union of TGT's and the
                     authenticator's, never fewer. *)
                  let auth_data = tgt.Ticket.authorization_data @ auth.Ticket.auth_data in
                  let expires = min tgt.Ticket.expires (now + t.lifetime_us) in
                  (* The client decrypts the reply under the subkey it sent,
                     so silently falling back to the session key here would
                     surface as an opaque decrypt failure on its side.
                     Refuse malformed subkeys with a clean error instead. *)
                  match auth.Ticket.subkey with
                  | Some k when String.length k <> 32 -> err "tgs: subkey must be 32 bytes"
                  | (Some _ | None) as subkey ->
                      let reply_key =
                        Option.value subkey ~default:tgt.Ticket.session_key
                      in
                      issue t ~client:tgt.Ticket.client ~service:target ~auth_data ~expires
                        ~nonce ~reply_key ~reply_ad:"tgs-rep"
                end
          end)

let handle t request =
  (* Ambient parentage: the sim is synchronous, so this span nests under
     the client's kdc.as/kdc.tgs span without any envelope plumbing. *)
  let sp = Sim.Net.spans t.net in
  Sim.Span.with_span sp ~actor:(Principal.to_string t.name) ~kind:"kdc.serve" @@ fun () ->
  match Wire.decode request with
  | Error e -> err ("malformed request: " ^ e)
  | Ok v -> (
      match Result.bind (Wire.field v 0) Wire.to_string with
      | Ok "as" ->
          Sim.Span.add_attr sp "op" "as";
          handle_as t v
      | Ok "tgs" ->
          Sim.Span.add_attr sp "op" "tgs";
          handle_tgs t v
      | Ok other -> err (Printf.sprintf "unknown operation %S" other)
      | Error e -> err e)

let install t = Sim.Net.register t.net ~name:(Principal.to_string t.name) (handle t)

module Client = struct
  let parse_reply ~reply_key ~reply_ad ~expected_nonce ~client reply =
    let open Wire in
    let* v = Wire.decode reply in
    let* status = Result.bind (field v 0) to_string in
    if status = "err" then
      let* msg = Result.bind (field v 1) to_string in
      Error msg
    else
      let* ticket_blob = Result.bind (field v 1) to_string in
      let* sealed = Result.bind (field v 2) to_string in
      match Crypto.Aead.decode sealed with
      | None -> Error "reply: malformed encrypted part"
      | Some box -> (
          match Crypto.Aead.open_prepared reply_key ~ad:reply_ad box with
          | None -> Error "reply: cannot decrypt (wrong key?)"
          | Some plaintext ->
              let* part = Wire.decode plaintext in
              let* session_key = Result.bind (field part 0) to_string in
              let* nonce = Result.bind (field part 1) to_int in
              let* expires = Result.bind (field part 2) to_int in
              let* service = Result.bind (field part 3) Principal.of_wire in
              let* auth_data = Result.bind (field part 4) to_list in
              if nonce <> expected_nonce then Error "reply: nonce mismatch (replay?)"
              else
                Ok
                  {
                    Ticket.ticket_blob;
                    session_key;
                    cred_session = Crypto.Aead.prepare session_key;
                    cred_client = client;
                    cred_service = service;
                    cred_expires = expires;
                    cred_auth_data = auth_data;
                  })

  let fresh_nonce_int net =
    let b = Crypto.Drbg.generate (Sim.Net.drbg net) 6 in
    String.fold_left (fun acc c -> (acc lsl 8) lor Char.code c) 0 b

  let authenticate net ~kdc ~client ~client_key ~service ?(auth_data = []) () =
    Sim.Span.with_span (Sim.Net.spans net) ~actor:(Principal.to_string client) ~kind:"kdc.as"
      ~attrs:[ ("service", Principal.to_string service) ]
    @@ fun () ->
    let nonce = fresh_nonce_int net in
    let preauth =
      (* A malformed local key cannot pre-authenticate; send nothing and let
         the KDC decide (it will refuse when preauth is required). *)
      if String.length client_key <> 32 then ""
      else
        Crypto.Aead.encode
          (Crypto.Aead.seal ~key:client_key ~ad:"preauth" ~nonce:(Sim.Net.fresh_nonce net)
             (Wire.encode (Wire.I (Sim.Net.now net))))
    in
    let request =
      Wire.encode
        (Wire.L
           [ Wire.S "as";
             Principal.to_wire client;
             Principal.to_wire service;
             Wire.I nonce;
             Wire.L auth_data;
             Wire.S preauth ])
    in
    match Sim.Net.rpc net ~src:(Principal.to_string client) ~dst:(Principal.to_string kdc) request with
    | Error e -> Error e
    | Ok reply ->
        parse_reply ~reply_key:(Crypto.Aead.prepare client_key) ~reply_ad:"as-rep"
          ~expected_nonce:nonce ~client reply

  let derive net ~kdc ~tgt ~target ?subkey ?(auth_data = []) () =
    Sim.Span.with_span (Sim.Net.spans net)
      ~actor:(Principal.to_string tgt.Ticket.cred_client)
      ~kind:"kdc.tgs"
      ~attrs:[ ("target", Principal.to_string target) ]
    @@ fun () ->
    match subkey with
    | Some k when String.length k <> 32 ->
        (* The KDC would refuse it anyway; failing here names the actual
           problem instead of a downstream decrypt error. *)
        Error "derive: subkey must be 32 bytes"
    | _ ->
    let nonce = fresh_nonce_int net in
    let authenticator =
      {
        Ticket.auth_client = tgt.Ticket.cred_client;
        timestamp = Sim.Net.now net;
        subkey;
        auth_data;
      }
    in
    let auth_blob =
      Ticket.seal_authenticator ~session_key:tgt.Ticket.cred_session
        ~nonce:(Sim.Net.fresh_nonce net) authenticator
    in
    let request =
      Wire.encode
        (Wire.L
           [ Wire.S "tgs";
             Wire.S tgt.Ticket.ticket_blob;
             Wire.S auth_blob;
             Principal.to_wire target;
             Wire.I nonce ])
    in
    let src = Principal.to_string tgt.Ticket.cred_client in
    match Sim.Net.rpc net ~src ~dst:(Principal.to_string kdc) request with
    | Error e -> Error e
    | Ok reply ->
        let reply_key =
          match subkey with
          | Some k -> Crypto.Aead.prepare k
          | None -> tgt.Ticket.cred_session
        in
        parse_reply ~reply_key ~reply_ad:"tgs-rep" ~expected_nonce:nonce
          ~client:tgt.Ticket.cred_client reply
end
