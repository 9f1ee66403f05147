type body = {
  client : Principal.t;
  service : Principal.t;
  session_key : string;
  auth_time : int;
  expires : int;
  authorization_data : Wire.t list;
}

let body_to_wire b =
  Wire.L
    [ Principal.to_wire b.client;
      Principal.to_wire b.service;
      Wire.S b.session_key;
      Wire.I b.auth_time;
      Wire.I b.expires;
      Wire.L b.authorization_data ]

let body_of_wire v =
  let open Wire in
  let* client = Result.bind (field v 0) Principal.of_wire in
  let* service = Result.bind (field v 1) Principal.of_wire in
  let* session_key = Result.bind (field v 2) to_string in
  let* auth_time = Result.bind (field v 3) to_int in
  let* expires = Result.bind (field v 4) to_int in
  let* authorization_data = Result.bind (field v 5) to_list in
  Ok { client; service; session_key; auth_time; expires; authorization_data }

let seal ~service_key ~nonce body =
  let plaintext = Wire.encode (body_to_wire body) in
  Crypto.Aead.encode (Crypto.Aead.seal_prepared service_key ~ad:"ticket" ~nonce plaintext)

let open_ ~service_key blob =
  match Crypto.Aead.decode blob with
  | None -> Error "ticket: malformed blob"
  | Some box -> (
      match Crypto.Aead.open_prepared service_key ~ad:"ticket" box with
      | None -> Error "ticket: seal verification failed"
      | Some plaintext -> Result.bind (Wire.decode plaintext) body_of_wire)

type opened = { ticket : body; session : Crypto.Aead.key Lazy.t }
type holder = { service_key : Crypto.Aead.key; opened : opened Expiring.t }

let held_tickets = 1024

let holder key =
  { service_key = Crypto.Aead.prepare key; opened = Expiring.create ~capacity:held_tickets () }

let open_held h ~now ~tally blob =
  match Expiring.find h.opened ~now blob with
  | Some o ->
      tally "ticket_cache.hits";
      Ok o
  | None ->
      tally "crypto.open";
      Result.map
        (fun ticket ->
          let o = { ticket; session = lazy (Crypto.Aead.prepare ticket.session_key) } in
          if ticket.expires > now then Expiring.add h.opened ~now ~expires:ticket.expires blob o;
          o)
        (open_ ~service_key:h.service_key blob)

type authenticator = {
  auth_client : Principal.t;
  timestamp : int;
  subkey : string option;
  auth_data : Wire.t list;
}

let authenticator_to_wire a =
  Wire.L
    [ Principal.to_wire a.auth_client;
      Wire.I a.timestamp;
      Wire.S (Option.value a.subkey ~default:"");
      Wire.L a.auth_data ]

let authenticator_of_wire v =
  let open Wire in
  let* auth_client = Result.bind (field v 0) Principal.of_wire in
  let* timestamp = Result.bind (field v 1) to_int in
  let* subkey_raw = Result.bind (field v 2) to_string in
  let* auth_data = Result.bind (field v 3) to_list in
  let subkey = if subkey_raw = "" then None else Some subkey_raw in
  Ok { auth_client; timestamp; subkey; auth_data }

let seal_authenticator ~session_key ~nonce a =
  let plaintext = Wire.encode (authenticator_to_wire a) in
  Crypto.Aead.encode (Crypto.Aead.seal_prepared session_key ~ad:"authenticator" ~nonce plaintext)

let open_authenticator ~session_key blob =
  match Crypto.Aead.decode blob with
  | None -> Error "authenticator: malformed blob"
  | Some box -> (
      match Crypto.Aead.open_prepared session_key ~ad:"authenticator" box with
      | None -> Error "authenticator: seal verification failed"
      | Some plaintext -> Result.bind (Wire.decode plaintext) authenticator_of_wire)

type credentials = {
  ticket_blob : string;
  session_key : string;
  cred_session : Crypto.Aead.key;
  cred_client : Principal.t;
  cred_service : Principal.t;
  cred_expires : int;
  cred_auth_data : Wire.t list;
}

let credentials_to_wire c =
  Wire.L
    [ Wire.S c.ticket_blob;
      Wire.S c.session_key;
      Principal.to_wire c.cred_client;
      Principal.to_wire c.cred_service;
      Wire.I c.cred_expires;
      Wire.L c.cred_auth_data ]

let credentials_of_wire v =
  let open Wire in
  let* ticket_blob = Result.bind (field v 0) to_string in
  let* session_key = Result.bind (field v 1) to_string in
  let* cred_client = Result.bind (field v 2) Principal.of_wire in
  let* cred_service = Result.bind (field v 3) Principal.of_wire in
  let* cred_expires = Result.bind (field v 4) to_int in
  let* cred_auth_data = Result.bind (field v 5) to_list in
  Ok
    {
      ticket_blob;
      session_key;
      cred_session = Crypto.Aead.prepare session_key;
      cred_client;
      cred_service;
      cred_expires;
      cred_auth_data;
    }
