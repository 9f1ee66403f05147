let grant net ~kdc ~tgt ~restrictions () =
  let subkey = Sim.Net.fresh_key net in
  let auth_data = List.map Restriction.to_wire restrictions in
  Kdc.Client.derive net ~kdc ~tgt ~target:kdc ~subkey ~auth_data ()

let use net ~kdc ~proxy_tgt ~service = Kdc.Client.derive net ~kdc ~tgt:proxy_tgt ~target:service ()

let restrictions_of (creds : Ticket.credentials) =
  Guard.restrictions_of_auth_data creds.Ticket.cred_auth_data
