(** Kerberos-V5-style tickets and authenticators (paper Section 6.2).

    A ticket binds a client name to a session key and an additive
    [authorization_data] field, sealed under the long-term key the target
    service shares with the KDC. An authenticator proves possession of the
    session key and may carry a subkey plus further authorization-data —
    exactly the mechanism the paper uses to turn credentials into restricted
    proxies. A service opens tickets through a {!holder}, which opens each
    ticket blob once and remembers it until the ticket expires. *)

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

(** {2 Held service keys}

    A client presents the same ticket with every request, and what opening
    it yields depends only on the service key and the exact blob. So a
    service holds its key as a {!holder}: the key prepared once, plus a
    table from each ticket blob it has opened to what opening it gave.
    [Secure_rpc.serve] and [Guard.create] each hold one; the KDC opens
    every ticket it is shown, so a rekey takes effect at once. *)

val digest : string -> string
(** SHA-256 of a ticket blob: the name a possession binding gives the
    session it belongs to ([Presentation], [Guard.present]). *)

type opened = {
  ticket : body;
  session : Crypto.Aead.key Lazy.t;
      (** [ticket.session_key] prepared on first use: a server that seals
          and opens under it prepares it once per ticket, one that never
          does prepares nothing *)
  digest : string;  (** {!digest} of the blob, computed once per held ticket *)
}

type holder

val holder : string -> holder
(** Prepare a service's long-term key, with an empty table of opened
    tickets. The table holds 1024 tickets, a constant: it is a memo, so an
    eviction only costs one re-open. *)

val open_held :
  holder -> now:int -> tally:(string -> unit) -> string -> (opened, string) result
(** {!open_} under the held key, answered from the table when this exact
    blob opened before and its ticket has not expired at [now]. A table
    hit tallies ["ticket_cache.hits"]; anything else tallies
    ["crypto.open"] and opens, with {!open_}'s errors. A ticket that opens
    and expires after [now] joins the table until its expiry; failures
    are never stored, so a blob with one byte changed misses and fails.
    The caller still checks the ticket's service and expiry on every
    request, hit or miss. *)

type authenticator = {
  auth_client : Principal.t;
  timestamp : int;
  subkey : string option;
      (** fresh key that will serve as a proxy key when deriving a proxy *)
  auth_data : Wire.t list;  (** restrictions to add *)
}

val seal_authenticator :
  session_key:Crypto.Aead.key -> nonce:string -> ?covers:string -> authenticator -> string
(** [covers] (default empty) is sealed as the authenticator's associated
    data: [Secure_rpc] passes the request's encoded payload, so the
    authenticator vouches for that payload and nothing else. *)

val open_authenticator :
  session_key:Crypto.Aead.key ->
  ?covers:string ->
  string ->
  (authenticator * string, string) result
(** Opens only under the [covers] it was sealed with; a rewritten [covers]
    fails like a forged seal. Returns the authenticator and its AEAD tag,
    which names the authenticator and what it covers together. *)

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
  cred_bindings : (string, string) Hashtbl.t;
      (** possession bindings made over this ticket, by proxy key, made
          and read by [Guard.present]: each names this ticket, so they live
          and die with the credentials that hold it. Empty where
          credentials are built *)
}

val credentials_to_wire : credentials -> Wire.t
(** Transfer encoding {e including the session key}: this is how a grantor
    hands a restricted TGT to a grantee (Section 6.3's proxy for the
    ticket-granting service). Must only travel inside a sealed channel. *)

val credentials_of_wire : Wire.t -> (credentials, string) result
