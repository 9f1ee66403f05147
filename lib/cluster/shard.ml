(* One bank shard: a primary/standby pair of accounting servers sharing a
   single *logical* identity.

   The sharing is the crux. Checks are drawn on, endorsed to, and
   issued-for the logical shard principal, and the guard verifies
   [Issued_for] against its own [me] — so both replicas run with the same
   [me] and the same long-term key (one directory entry), differing only in
   the physical node name each registers on the network. A ticket for the
   shard is honoured by either replica, and a client that fails over
   re-sends the *same* request bytes to the standby.

   Replication is replay-log shipping: the primary's accounting server
   journals every change to the state a replica mirrors (ledger
   primitives, accept-once records, sequence progress, grant totals) as
   one ordered list, and [on_handled] — which fires after the handler and
   the response-cache insert but *before* the reply is transmitted — ships
   the pending changes, together with the request's authenticator digest,
   client and sealed reply, to the standby over an ordinary authenticated
   Secure_rpc exchange. Ordering gives the guarantee: any reply a client
   ever saw was already replicated, so the standby can answer that
   client's retransmission from its seeded response cache without
   executing the request a second time.

   The standby refuses fresh work ("standby: not primary") until it either
   observes the primary down or has already promoted itself; promotion is
   sticky, so a primary that flaps cannot re-split the shard's brain. *)

type replica = {
  node : string;
  server : Accounting_server.t;
  cache : Secure_rpc.cache;
}

type t = {
  net : Sim.Net.t;
  logical : Principal.t;
  key : string;
  primary : replica;
  standby : replica;
  repl_creds : Ticket.credentials;
  repl_retry : Sim.Retry.policy option;
  mutable changes : Accounting_server.change list;  (* unshipped, newest first *)
  mutable replies : (string * string * int * string) list;
      (* unshipped (auth_id, client, expires, sealed reply), newest first *)
  mutable promoted : bool;
}

let ( let* ) = Result.bind

let journal t c = t.changes <- c :: t.changes

let create net ~me ~my_key ~kdc ~signing_key ~lookup ?collect_retry ?repl_retry
    ?revocation_authority ?staleness_bound_us ~primary_node ~standby_node () =
  if primary_node = standby_node then
    invalid_arg "Shard.create: replicas need distinct node names";
  let mk () =
    (* Each replica subscribes to bulletins with its *own* state: a
       partition that isolates one physical node must age that replica
       toward its staleness bound without touching the other. *)
    let revocation =
      Option.map
        (fun (authority, authority_pub) ->
          Revocation.create ~issuer:authority ~issuer_pub:authority_pub ?staleness_bound_us
            ~now:(Sim.Net.now net) ())
        revocation_authority
    in
    Accounting_server.create net ~me ~my_key ~kdc ~signing_key ~lookup ?collect_retry
      ?revocation ()
  in
  let* primary_server = mk () in
  let* standby_server = mk () in
  (* The primary authenticates to its own logical identity for the
     replication channel: only the shard itself can feed its standby. *)
  let* repl_creds =
    Kdc.Client.authenticate net ~kdc ~client:me ~client_key:my_key ~service:me ()
  in
  let t =
    {
      net;
      logical = me;
      key = my_key;
      primary = { node = primary_node; server = primary_server;
                  cache = Secure_rpc.create_cache () };
      standby = { node = standby_node; server = standby_server;
                  cache = Secure_rpc.create_cache () };
      repl_creds;
      repl_retry;
      changes = [];
      replies = [];
      promoted = false;
    }
  in
  Accounting_server.set_journal primary_server (Some (journal t));
  Ok t

let logical t = t.logical
let primary_node t = t.primary.node
let standby_node t = t.standby.node
let primary_server t = t.primary.server
let standby_server t = t.standby.server
let promoted t = t.promoted

let primary_down t = Sim.Net.is_down t.net t.primary.node

let authoritative t =
  if t.promoted || primary_down t then t.standby.server else t.primary.server

(* Ship every unshipped change and reply record in ONE replication
   exchange. On failure both are put back so the next handled request
   re-ships them: the replication request that carries them then is a
   fresh authenticator, and the standby applies each change exactly once (a
   *retransmission* of the same bulk dedups on the standby's own response
   cache instead). *)
let ship_now t =
  let changes = List.rev t.changes and replies = List.rev t.replies in
  t.changes <- [];
  t.replies <- [];
  let payload =
    Wire.L
      [ Wire.S "x-replicate-bulk";
        Wire.L
          (List.map
             (fun (a, c, e, r) -> Wire.L [ Wire.S a; Wire.S c; Wire.I e; Wire.S r ])
             replies);
        Wire.L (List.map Accounting_server.change_to_wire changes) ]
  in
  let metrics = Sim.Net.metrics t.net in
  match
    Secure_rpc.call t.net ~creds:t.repl_creds ?retry:t.repl_retry ~via:[ t.standby.node ]
      payload
  with
  | Ok _ ->
      Sim.Metrics.incr metrics "cluster.repl_shipped";
      Sim.Metrics.add metrics "cluster.repl_ops_shipped" (List.length changes);
      Sim.Metrics.add metrics "cluster.repl_replies_shipped" (List.length replies)
  | Error _ ->
      Sim.Metrics.incr metrics "cluster.repl_failures";
      t.changes <- t.changes @ List.rev changes;
      t.replies <- t.replies @ List.rev replies

(* Per-handled-request replication, fired by [on_handled] after the
   handler ran and the reply is cached but before it is transmitted, so
   every reply a client saw is already at the standby. Two kinds of
   request ship less:

   - a request that changed nothing (a balance read), with no failed ship
     pending, ships nothing and seeds nothing: re-executing it on a
     failed-over retransmission is idempotent, so replicating its reply
     bought nothing ("cluster.repl_read_skips");
   - a pipelined [Secure_rpc.call_batch] request journals all its items'
     changes under ONE authenticator/reply, so they ride one ship instead
     of one per item. *)
let ship t ~auth_id ~client ~expires ~reply =
  if t.changes = [] && t.replies = [] then
    Sim.Metrics.incr (Sim.Net.metrics t.net) "cluster.repl_read_skips"
  else begin
    t.replies <- (auth_id, client, expires, reply) :: t.replies;
    ship_now t
  end

let apply_replication t ctx ~replies ~changes =
  if not (Principal.equal ctx.Secure_rpc.rpc_client t.logical) then
    Error "replication: caller is not this shard"
  else
    let* replies =
      Wire.map_all
        (function
          | Wire.L [ Wire.S auth_id; Wire.S client; Wire.I expires; Wire.S reply ] ->
              Ok (auth_id, client, expires, reply)
          | _ -> Error "replication: malformed reply record")
        replies
    in
    let* changes = Wire.map_all Accounting_server.change_of_wire changes in
    let* () = Accounting_server.apply_replicated t.standby.server changes in
    let now = Sim.Net.now t.net in
    (* Tagged by client as on the primary: an eviction here raises only
       that client's floor. *)
    List.iter
      (fun (auth_id, client, expires, reply) ->
        Expiring.add t.standby.cache ~now ~expires ~tag:client auth_id reply)
      replies;
    Sim.Metrics.incr (Sim.Net.metrics t.net) "cluster.repl_applied";
    Sim.Metrics.add (Sim.Net.metrics t.net) "cluster.repl_replies_seeded"
      (List.length replies);
    Ok (Wire.S "replicated")

let standby_handle t ctx payload =
  match payload with
  | Wire.L [ Wire.S "x-replicate-bulk"; Wire.L replies; Wire.L changes ] ->
      apply_replication t ctx ~replies ~changes
  | _ -> (
      let* request = Accounting_server.request_of_wire payload in
      match request with
      (* Revocation bulletins bypass the promotion gate: a standby that
         refused them would fail open the moment it promoted. The bulletin
         is self-authenticating, so accepting it here grants nothing. *)
      | Accounting_server.Apply_bulletin _ -> Accounting_server.handle t.standby.server ctx request
      | _ when not (t.promoted || primary_down t) -> Error "standby: not primary"
      | _ ->
          if not t.promoted then begin
            t.promoted <- true;
            Sim.Metrics.incr (Sim.Net.metrics t.net) "cluster.promotions";
            Sim.Trace.record (Sim.Net.trace t.net) ~time:(Sim.Net.now t.net)
              ~actor:t.standby.node
              (Printf.sprintf "promoted to primary for %s" (Principal.to_string t.logical))
          end;
          Accounting_server.handle t.standby.server ctx request)

let install t =
  Secure_rpc.serve t.net ~me:t.logical ~my_key:t.key ~node:t.primary.node
    ~cache:t.primary.cache
    ~on_handled:(fun ~auth_id ~client ~expires ~reply -> ship t ~auth_id ~client ~expires ~reply)
    (fun ctx payload ->
      Result.bind (Accounting_server.request_of_wire payload)
        (Accounting_server.handle t.primary.server ctx));
  Secure_rpc.serve t.net ~me:t.logical ~my_key:t.key ~node:t.standby.node
    ~cache:t.standby.cache (standby_handle t)

(* Provision funds on both replicas identically. The primary's journal is
   suppressed for the duration so setup minting is not double-applied when
   the first real request ships the replay log. *)
let mint t ~name ~currency amount =
  let primary = t.primary.server in
  Accounting_server.set_journal primary None;
  let r = Ledger.mint (Accounting_server.ledger primary) ~name ~currency amount in
  Accounting_server.set_journal primary (Some (journal t));
  let* () = r in
  Ledger.mint (Accounting_server.ledger t.standby.server) ~name ~currency amount

let set_route t ~drawee ?via ~next_hop () =
  Accounting_server.set_route t.primary.server ~drawee ?via ~next_hop ();
  Accounting_server.set_route t.standby.server ~drawee ?via ~next_hop ()

let warm t ~drawee =
  let* () = Accounting_server.warm t.primary.server ~drawee in
  Accounting_server.warm t.standby.server ~drawee

let apply_bulletin t b =
  let* p = Accounting_server.apply_bulletin t.primary.server b in
  let* s = Accounting_server.apply_bulletin t.standby.server b in
  Ok (p || s)
