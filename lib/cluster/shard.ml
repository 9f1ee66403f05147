(* One bank shard: a primary/standby pair of accounting servers sharing a
   single *logical* identity.

   The sharing is the crux. Checks are drawn on, endorsed to, and
   issued-for the logical shard principal, and the guard verifies
   [Issued_for] against its own [me] — so both replicas run with the same
   [me] and the same long-term key (one directory entry), differing only in
   the physical node name each registers on the network. A ticket for the
   shard is honoured by either replica, and a client that fails over
   re-sends the *same* request bytes to the standby.

   Replication is replay-log shipping: the primary journals every ledger
   primitive its handler executes plus every check number it redeems, and
   [on_handled] — which fires after the handler and the response-cache
   insert but *before* the reply is transmitted — ships the batch, together
   with the request's authenticator digest and sealed reply, to the standby
   over an ordinary authenticated Secure_rpc exchange. Ordering gives the
   guarantee: any reply a client ever saw was already replicated, so the
   standby can answer that client's retransmission from its seeded response
   cache without executing the request a second time.

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
  bulk_every : int;
  pending_ops : Ledger.op list ref;  (* newest first *)
  pending_redeems : string list ref;  (* newest first *)
  pending_seq : (string * int * int * string) list ref;
      (* unshipped sequence-progress movements (key, progress, expires,
         grantor tag), newest first *)
  pending_triples : (string * int * string) list ref;
      (* unshipped (auth_id, expires, sealed reply) triples, newest first *)
  mutable handled_since_ship : int;
  mutable promoted : bool;
}

let ( let* ) = Result.bind

let journal_fn t op = t.pending_ops := op :: !(t.pending_ops)

let create net ~me ~my_key ~kdc ~signing_key ~lookup ?collect_retry ?repl_retry
    ?(bulk_every = 1) ?revocation_authority ?staleness_bound_us ~primary_node ~standby_node
    () =
  if primary_node = standby_node then
    invalid_arg "Shard.create: replicas need distinct node names";
  if bulk_every < 1 then invalid_arg "Shard.create: bulk_every must be positive";
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
      bulk_every;
      pending_ops = ref [];
      pending_redeems = ref [];
      pending_seq = ref [];
      pending_triples = ref [];
      handled_since_ship = 0;
      promoted = false;
    }
  in
  Ledger.set_journal (Accounting_server.ledger primary_server) (Some (journal_fn t));
  Accounting_server.add_redemption_observer primary_server (fun n ->
      t.pending_redeems := n :: !(t.pending_redeems));
  (* Sequence progress is server-side authorization state just like the
     accept-once records: every movement on the primary — a granted
     sequence step or an imported cross-server handover — journals here so
     the standby's tracker survives a failover. *)
  Guard.set_seq_observer
    (Accounting_server.guard primary_server)
    (Some
       (fun ~key ~progress ~expires ~tag ->
         t.pending_seq := (key, progress, expires, tag) :: !(t.pending_seq)));
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

(* Ship every unshipped journal batch and reply triple in ONE replication
   exchange. On failure everything is put back so the next handled request
   re-ships it: the replication request that carries it then is a fresh
   authenticator, and the standby applies each op exactly once (a
   *retransmission* of the same bulk dedups on the standby's own response
   cache instead). *)
let ship_now t =
  let ops = List.rev !(t.pending_ops) in
  let redeems = List.rev !(t.pending_redeems) in
  let seq = List.rev !(t.pending_seq) in
  let triples = List.rev !(t.pending_triples) in
  t.pending_ops := [];
  t.pending_redeems := [];
  t.pending_seq := [];
  t.pending_triples := [];
  t.handled_since_ship <- 0;
  let payload =
    Wire.L
      ([
         Wire.S "x-replicate-bulk";
         Wire.L
           (List.map (fun (a, e, r) -> Wire.L [ Wire.S a; Wire.I e; Wire.S r ]) triples);
         Wire.L (List.map Ledger.op_to_wire ops);
         Wire.L (List.map (fun n -> Wire.S n) redeems);
       ]
      (* The sequence-progress field is optional and appended only when
         non-empty, so runs without sequences ship byte-identical bulks
         (and an older standby parses them unchanged). *)
      @
      match seq with
      | [] -> []
      | _ ->
          [ Wire.L
              (List.map
                 (fun (k, p, e, tg) -> Wire.L [ Wire.S k; Wire.I p; Wire.I e; Wire.S tg ])
                 seq) ])
  in
  let metrics = Sim.Net.metrics t.net in
  match
    Secure_rpc.call t.net ~creds:t.repl_creds ?retry:t.repl_retry ~via:[ t.standby.node ]
      payload
  with
  | Ok _ ->
      Sim.Metrics.incr metrics "cluster.repl_shipped";
      Sim.Metrics.add metrics "cluster.repl_ops_shipped" (List.length ops);
      Sim.Metrics.add metrics "cluster.repl_replies_shipped" (List.length triples)
  | Error _ ->
      Sim.Metrics.incr metrics "cluster.repl_failures";
      t.pending_ops := !(t.pending_ops) @ List.rev ops;
      t.pending_redeems := !(t.pending_redeems) @ List.rev redeems;
      t.pending_seq := !(t.pending_seq) @ List.rev seq;
      t.pending_triples := !(t.pending_triples) @ List.rev triples;
      (* Force the next handled request to re-ship whatever its position in
         the bulk window. *)
      t.handled_since_ship <- t.bulk_every

(* Per-handled-request replication policy, fired by [on_handled] after the
   handler ran and the reply is cached but before it is transmitted.

   Coalescing happens at three levels:

   - a request that journalled nothing (a balance read) ships nothing and
     seeds nothing: re-executing it on a failed-over retransmission is
     idempotent, so replicating its reply bought nothing
     ("cluster.repl_read_skips");
   - a pipelined [Secure_rpc.call_batch] request journals all its items'
     ops under ONE authenticator/reply, so they ride one ship instead of
     one per op — with the strict reply-after-ship ordering fully intact;
   - with [bulk_every = k > 1], mutating requests accumulate and every
     k-th one ships the combined backlog ("cluster.repl_deferred" counts
     the deferrals). The k-th request's own reply still ships before it is
     released; replies released *between* bulk ships trade the strict
     "reply seen => replicated" ordering for fewer replication round
     trips — a client must both lose its reply AND see the primary die
     before the next ship for a duplicate execution window to open. The
     default k = 1 keeps the strict ordering everywhere. *)
let ship t ~auth_id ~expires ~reply =
  let metrics = Sim.Net.metrics t.net in
  let mutating =
    !(t.pending_ops) <> [] || !(t.pending_redeems) <> [] || !(t.pending_seq) <> []
  in
  if (not mutating) && !(t.pending_triples) = [] then
    Sim.Metrics.incr metrics "cluster.repl_read_skips"
  else begin
    t.pending_triples := (auth_id, expires, reply) :: !(t.pending_triples);
    t.handled_since_ship <- t.handled_since_ship + 1;
    if t.handled_since_ship >= t.bulk_every then ship_now t
    else Sim.Metrics.incr metrics "cluster.repl_deferred"
  end

let apply_replication t ctx v =
  if not (Principal.equal ctx.Secure_rpc.rpc_client t.logical) then
    Error "replication: caller is not this shard"
  else
    let open Wire in
    let* triples_w = Result.bind (field v 1) to_list in
    let* ops_w = Result.bind (field v 2) to_list in
    let* redeems_w = Result.bind (field v 3) to_list in
    let* triples =
      map_all
        (fun w ->
          let* auth_id = Result.bind (field w 0) to_string in
          let* expires = Result.bind (field w 1) to_int in
          let* reply = Result.bind (field w 2) to_string in
          Ok (auth_id, expires, reply))
        triples_w
    in
    let* ops = map_all Ledger.op_of_wire ops_w in
    let* redeemed = map_all to_string redeems_w in
    (* Optional trailing field: bulks from runs without sequence traffic
       (and from older primaries) simply omit it. *)
    let* seq =
      match field v 4 with
      | Error _ -> Ok []
      | Ok w ->
          let* seq_w = to_list w in
          map_all
            (fun sw ->
              let* key = Result.bind (field sw 0) to_string in
              let* progress = Result.bind (field sw 1) to_int in
              let* expires = Result.bind (field sw 2) to_int in
              let* tag = Result.bind (field sw 3) to_string in
              Ok (key, progress, expires, tag))
            seq_w
    in
    let* () = Accounting_server.apply_replicated t.standby.server ~seq ~ops ~redeemed () in
    let now = Sim.Net.now t.net in
    List.iter
      (fun (auth_id, expires, reply) ->
        Secure_rpc.seed_response t.standby.cache ~now ~auth_id ~expires ~reply)
      triples;
    Sim.Metrics.incr (Sim.Net.metrics t.net) "cluster.repl_applied";
    Sim.Metrics.add (Sim.Net.metrics t.net) "cluster.repl_replies_seeded"
      (List.length triples);
    Ok (S "replicated")

let standby_handle t ctx payload =
  match payload with
  | Wire.L (Wire.S "x-replicate-bulk" :: _) -> apply_replication t ctx payload
  | Wire.L (Wire.S "apply-bulletin" :: _) ->
      (* Revocation bulletins bypass the promotion gate: a standby that
         refused them would fail open the moment it promoted. The bulletin
         is self-authenticating, so accepting it here grants nothing. *)
      Accounting_server.handle t.standby.server ctx payload
  | _ ->
      if t.promoted || primary_down t then begin
        if not t.promoted then begin
          t.promoted <- true;
          Sim.Metrics.incr (Sim.Net.metrics t.net) "cluster.promotions";
          Sim.Trace.record (Sim.Net.trace t.net) ~time:(Sim.Net.now t.net)
            ~actor:t.standby.node
            (Printf.sprintf "promoted to primary for %s"
               (Principal.to_string t.logical))
        end;
        Accounting_server.handle t.standby.server ctx payload
      end
      else Error "standby: not primary"

let install t =
  Secure_rpc.serve t.net ~me:t.logical ~my_key:t.key ~node:t.primary.node
    ~cache:t.primary.cache
    ~on_handled:(fun ~auth_id ~expires ~reply -> ship t ~auth_id ~expires ~reply)
    (Accounting_server.handle t.primary.server);
  Secure_rpc.serve t.net ~me:t.logical ~my_key:t.key ~node:t.standby.node
    ~cache:t.standby.cache (standby_handle t)

(* Provision funds on both replicas identically. The primary's journal is
   suppressed for the duration so setup minting is not double-applied when
   the first real request ships the replay log. *)
let mint t ~name ~currency amount =
  let pl = Accounting_server.ledger t.primary.server in
  Ledger.set_journal pl None;
  let r = Ledger.mint pl ~name ~currency amount in
  Ledger.set_journal pl (Some (journal_fn t));
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
