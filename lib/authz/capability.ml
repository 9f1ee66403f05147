let restriction ~target ~ops = Restriction.Authorized [ { Restriction.target; ops } ]

let mint ~drbg ~now ~expires ~grantor ~session_key ~base ~target ~ops =
  Proxy.grant_conventional ~drbg ~now ~expires ~grantor ~session_key ~base
    ~restrictions:[ restriction ~target ~ops ]

let lifetime_us = 2 * 3600 * 1_000_000

let mint_via_kdc net ~kdc ~tgt ~end_server ~target ~ops () =
  match Kdc.Client.derive net ~kdc ~tgt ~target:end_server () with
  | Error e -> Error e
  | Ok creds ->
      let now = Sim.Net.now net in
      let expires = min (now + lifetime_us) creds.Ticket.cred_expires in
      Ok
        (mint ~drbg:(Sim.Net.drbg net) ~now ~expires ~grantor:tgt.Ticket.cred_client
           ~session_key:creds.Ticket.session_key ~base:creds.Ticket.ticket_blob ~target ~ops)

let narrow ~drbg ~now ~expires ~target ~ops proxy =
  Proxy.restrict_conventional ~drbg ~now ~expires ~restrictions:[ restriction ~target ~ops ]
    proxy
