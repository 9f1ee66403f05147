(* Client-side shard resolution: one router per client principal.

   The router owns no authority — it just computes placement from the ring
   (the same pure function every other router computes), keeps per-shard
   credentials, and orders the physical replicas for the transport. After a
   failover it remembers which shard's standby leads and puts it first, so
   later calls do not re-pay the dead primary's retry budget. Stickiness is
   deliberate: the crash model promotes standbys permanently, and a client
   that flip-flopped between replicas would only add latency, never
   correctness — the response caches make either order exactly-once. *)

type endpoint = {
  ep_logical : Principal.t;
  ep_primary : string;
  ep_standby : string;
}

type t = {
  net : Sim.Net.t;
  ring : Ring.t;
  endpoints : (string, endpoint) Hashtbl.t;
  creds_for : Principal.t -> (Ticket.credentials, string) result;
  creds : (string, Ticket.credentials) Hashtbl.t;
  retry : Sim.Retry.policy option;
  failed_over : (string, unit) Hashtbl.t;
}

let ( let* ) = Result.bind

let create net ~ring ~endpoints ~creds_for ?retry () =
  let tbl = Hashtbl.create 8 in
  List.iter (fun (sid, ep) -> Hashtbl.replace tbl sid ep) endpoints;
  {
    net;
    ring;
    endpoints = tbl;
    creds_for;
    creds = Hashtbl.create 8;
    retry;
    failed_over = Hashtbl.create 4;
  }

let shard_of t account = Ring.lookup t.ring account

let creds t sid ep =
  match Hashtbl.find_opt t.creds sid with
  | Some c -> Ok c
  | None ->
      let* c = t.creds_for ep.ep_logical in
      Hashtbl.replace t.creds sid c;
      Ok c

(* Resolve an account to (creds, ordered physical targets, failover mark)
   and run [f] under a cluster.route span. *)
let route t account f =
  let sid = Ring.lookup t.ring account in
  match Hashtbl.find_opt t.endpoints sid with
  | None -> Error (Printf.sprintf "no endpoint for shard %S" sid)
  | Some ep ->
      let* c = creds t sid ep in
      let via =
        if Hashtbl.mem t.failed_over sid then [ ep.ep_standby; ep.ep_primary ]
        else [ ep.ep_primary; ep.ep_standby ]
      in
      let on_failover ~from_:_ ~to_ =
        if to_ = ep.ep_standby then Hashtbl.replace t.failed_over sid ()
      in
      let call () = f ~creds:c ~via ~on_failover in
      (* Untraced, the span's actor and attributes are never built. *)
      match Sim.Net.spans t.net with
      | None -> call ()
      | Some _ as sp ->
          Sim.Span.with_span sp ~actor:(Principal.to_string c.Ticket.cred_client)
            ~kind:"cluster.route"
            ~attrs:[ ("account", account); ("shard", sid) ]
            call

let open_account t ~name =
  route t name (fun ~creds ~via ~on_failover ->
      Accounting_server.open_account ?retry:t.retry ~via ~on_failover t.net ~creds ~name)

let balance t ~name ~currency =
  route t name (fun ~creds ~via ~on_failover ->
      Accounting_server.balance ?retry:t.retry ~via ~on_failover t.net ~creds ~name ~currency)

let transfer t ~from_ ~to_ ~currency ~amount =
  let s1 = shard_of t from_ and s2 = shard_of t to_ in
  if s1 <> s2 then
    Error
      (Printf.sprintf "cross-shard transfer %S -> %S: move money by check" from_ to_)
  else
    route t from_ (fun ~creds ~via ~on_failover ->
        Accounting_server.transfer ?retry:t.retry ~via ~on_failover t.net ~creds ~from_ ~to_
          ~currency ~amount)

let deposit t ~endorser_key ~check ~to_account =
  route t to_account (fun ~creds ~via ~on_failover ->
      Accounting_server.deposit ?retry:t.retry ~via ~on_failover t.net ~creds ~endorser_key
        ~check ~to_account)
