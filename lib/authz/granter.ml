type t = {
  net : Sim.Net.t;
  me : Principal.t;
  kdc : Principal.t;
  mutable tgt : Ticket.credentials;
  my_key : string;
  cache : (string, Ticket.credentials) Hashtbl.t;
}

let margin_us = 60 * 1_000_000

let create net ~me ~my_key ~kdc =
  match Kdc.Client.authenticate net ~kdc ~client:me ~client_key:my_key ~service:kdc () with
  | Error e -> Error (Printf.sprintf "%s: cannot obtain TGT: %s" (Principal.to_string me) e)
  | Ok tgt -> Ok { net; me; kdc; tgt; my_key; cache = Hashtbl.create 8 }

let refresh_tgt t =
  if t.tgt.Ticket.cred_expires <= Sim.Net.now t.net + margin_us then
    match
      Kdc.Client.authenticate t.net ~kdc:t.kdc ~client:t.me ~client_key:t.my_key ~service:t.kdc
        ()
    with
    | Ok tgt -> t.tgt <- tgt
    | Error _ -> () (* the stale TGT will produce a clean error downstream *)

let cached t key ~now derive =
  match Hashtbl.find_opt t.cache key with
  | Some creds when creds.Ticket.cred_expires > now + margin_us -> Ok creds
  | Some _ | None -> (
      match derive () with
      | Error e -> Error e
      | Ok creds ->
          Hashtbl.replace t.cache key creds;
          Ok creds)

let credentials_for t target =
  refresh_tgt t;
  let now = Sim.Net.now t.net in
  if target.Principal.realm = t.me.Principal.realm then
    cached t (Principal.to_string target) ~now (fun () ->
        Kdc.Client.derive t.net ~kdc:t.kdc ~tgt:t.tgt ~target ())
  else begin
    (* Foreign target: obtain a cross-realm TGT from the local KDC (cached),
       then ask the remote realm's TGS for the service ticket. The remote
       KDC is named "kdc" by convention. *)
    let remote_kdc = Principal.make ~realm:target.Principal.realm "kdc" in
    let xkey = "xrealm:" ^ target.Principal.realm in
    let attempt () =
      match
        cached t xkey ~now (fun () ->
            Kdc.Client.derive t.net ~kdc:t.kdc ~tgt:t.tgt ~target:remote_kdc ())
      with
      | Error e -> Error e
      | Ok cross_tgt ->
          cached t (Principal.to_string target) ~now (fun () ->
              Kdc.Client.derive t.net ~kdc:remote_kdc ~tgt:cross_tgt ~target ())
    in
    match attempt () with
    | Ok creds -> Ok creds
    | Error _ ->
        (* A cached cross-realm TGT can outlive the trust that minted it
           (link rekeyed, cross TGT revoked): the remote derive then fails
           even though a fresh walk would succeed. Drop the cached leg and
           retry the full path once before surfacing the error. *)
        Hashtbl.remove t.cache xkey;
        Hashtbl.remove t.cache (Principal.to_string target);
        attempt ()
  end

let grant t ~end_server ~expires ~restrictions =
  match credentials_for t end_server with
  | Error e -> Error e
  | Ok creds ->
      let now = Sim.Net.now t.net in
      let expires = min expires creds.Ticket.cred_expires in
      Ok
        (Proxy.grant_conventional ~drbg:(Sim.Net.drbg t.net) ~now ~expires ~grantor:t.me
           ~session_key:creds.Ticket.session_key ~base:creds.Ticket.ticket_blob ~restrictions)
