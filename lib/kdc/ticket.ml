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
  match v with
  | L [ client; service; S session_key; I auth_time; I expires; L authorization_data ] ->
      let* client = Principal.of_wire client in
      let* service = Principal.of_wire service in
      Ok { client; service; session_key; auth_time; expires; authorization_data }
  | _ -> Error "ticket: malformed"

let seal ~service_key ~nonce body =
  let plaintext = Wire.encode (body_to_wire body) in
  Crypto.Aead.seal_prepared service_key ~ad:"ticket" ~nonce plaintext

let open_ ~service_key blob =
  match Crypto.Aead.open_prepared service_key ~ad:"ticket" blob with
  | Error `Malformed -> Error "ticket: malformed blob"
  | Error `Bad_tag -> Error "ticket: seal verification failed"
  | Ok plaintext -> Result.bind (Wire.decode plaintext) body_of_wire

let digest blob = Crypto.Sha256.digest blob

type opened = {
  ticket : body;
  session : Crypto.Aead.key Lazy.t;
  digest : string;
  session_id : string;
  client_tag : string option;
}
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
          let digest = digest blob in
          let o =
            {
              ticket;
              session = lazy (Crypto.Aead.prepare ticket.session_key);
              digest;
              session_id = String.sub digest 0 16;
              client_tag = Some (Principal.to_string ticket.client);
            }
          in
          if ticket.expires > now then Expiring.add h.opened ~now ~expires:ticket.expires blob o;
          o)
        (open_ ~service_key:h.service_key blob)

type authenticator = {
  auth_client : Principal.t;
  timestamp : int;
  subkey : string option;
  auth_data : Wire.t list;
}

let max_skew_us = 5 * 60 * 1_000_000

let authenticator_to_wire a =
  Wire.L
    [ Principal.to_wire a.auth_client;
      Wire.I a.timestamp;
      Wire.S (Option.value a.subkey ~default:"");
      Wire.L a.auth_data ]

let authenticator_of_wire v =
  let open Wire in
  match v with
  | L [ auth_client; I timestamp; S subkey; L auth_data ] ->
      let* auth_client = Principal.of_wire auth_client in
      let subkey = if subkey = "" then None else Some subkey in
      Ok { auth_client; timestamp; subkey; auth_data }
  | _ -> Error "authenticator: malformed"

(* What an authenticator covers is its AEAD associated data, after a fixed
   label: a request it did not cover fails the open like a forged seal. *)
let seal_authenticator ~session_key ~nonce ?(covers = "") a =
  let plaintext = Wire.encode (authenticator_to_wire a) in
  Crypto.Aead.seal_prepared session_key ~ad:("authenticator" ^ covers) ~nonce plaintext

let open_authenticator ~session_key ?(covers = "") blob =
  match Crypto.Aead.open_prepared session_key ~ad:("authenticator" ^ covers) blob with
  | Error `Malformed -> Error "authenticator: malformed blob"
  | Error `Bad_tag -> Error "authenticator: seal verification failed"
  | Ok plaintext ->
      Result.bind (Wire.decode plaintext) authenticator_of_wire

type credentials = {
  ticket_blob : string;
  session_key : string;
  cred_session : Crypto.Aead.key;
  cred_client : Principal.t;
  cred_service : Principal.t;
  cred_expires : int;
  cred_auth_data : Wire.t list;
  cred_bindings : (string, string) Hashtbl.t;
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
  match v with
  | L
      [ S ticket_blob; S session_key; cred_client; cred_service; I cred_expires;
        L cred_auth_data ] ->
      let* cred_client = Principal.of_wire cred_client in
      let* cred_service = Principal.of_wire cred_service in
      Ok
        {
          ticket_blob;
          session_key;
          cred_session = Crypto.Aead.prepare session_key;
          cred_client;
          cred_service;
          cred_expires;
          cred_auth_data;
          cred_bindings = Hashtbl.create 8;
        }
  | _ -> Error "credentials: malformed"
