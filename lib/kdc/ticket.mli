(** Kerberos-V5-style tickets and authenticators (paper Section 6.2).

    A ticket binds a client name to a session key and an additive
    [authorization_data] field, sealed under the long-term key the target
    service shares with the KDC. An authenticator proves possession of the
    session key and may carry a subkey plus further authorization-data —
    exactly the mechanism the paper uses to turn credentials into restricted
    proxies. *)

type body = {
  client : Principal.t;
  service : Principal.t;
  session_key : string;
  auth_time : int;  (** virtual time of initial authentication *)
  expires : int;
  authorization_data : Wire.t list;
      (** typed restriction subfields; only ever appended to, never removed *)
}

(** The four seal and open functions take a prepared key
    ({!Crypto.Aead.prepare}): its holder derives the subkeys once. *)

val seal : service_key:Crypto.Aead.key -> nonce:string -> body -> string
(** Encode and AEAD-seal the ticket into an opaque blob. *)

val open_ : service_key:Crypto.Aead.key -> string -> (body, string) result
(** Unseal and decode; fails on tampering or a wrong key. *)

type authenticator = {
  auth_client : Principal.t;
  timestamp : int;
  subkey : string option;
      (** fresh key that will serve as a proxy key when deriving a proxy *)
  auth_data : Wire.t list;  (** restrictions to add *)
}

val seal_authenticator :
  session_key:Crypto.Aead.key -> nonce:string -> authenticator -> string

val open_authenticator :
  session_key:Crypto.Aead.key -> string -> (authenticator, string) result

(** Client-held credentials: the sealed ticket plus the session key. *)
type credentials = {
  ticket_blob : string;
  session_key : string;
  cred_session : Crypto.Aead.key;
      (** [session_key] prepared, once, where the credentials are built
          ([Kdc.Client] replies, {!credentials_of_wire}); it seals every
          authenticator and opens every reply made under them *)
  cred_client : Principal.t;
  cred_service : Principal.t;
  cred_expires : int;
  cred_auth_data : Wire.t list;
      (** client's copy of the restrictions carried by the ticket *)
}

val credentials_to_wire : credentials -> Wire.t
(** Transfer encoding {e including the session key}: this is how a grantor
    hands a restricted TGT to a grantee (Section 6.3's proxy for the
    ticket-granting service). Must only travel inside a sealed channel. *)

val credentials_of_wire : Wire.t -> (credentials, string) result
