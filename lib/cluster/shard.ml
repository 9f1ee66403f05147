(* One bank shard: a primary/standby pair of accounting servers sharing a
   single *logical* identity.

   The sharing is the crux. Checks are drawn on, endorsed to, and
   issued-for the logical shard principal, and the guard verifies
   [Issued_for] against its own [me] — so both replicas run with the same
   [me] and the same long-term key (one directory entry), differing only in
   the physical node name each registers on the network. A ticket for the
   shard is honoured by either replica, and a client that fails over
   re-sends the *same* request bytes to the standby.

   Replication is replay-log shipping from one ordered journal: the
   changes the primary's accounting server makes to the state a replica
   mirrors (ledger primitives, accept-once records, sequence progress,
   grant totals), each request's followed by its sealed reply. [on_handled]
   — which fires after the handler and the response-cache insert but
   *before* the reply is transmitted — journals the reply and ships the
   unshipped entries to the standby over an ordinary authenticated
   Secure_rpc exchange. Ordering gives the guarantee: any reply a client
   ever saw was already replicated, so the standby can answer that
   client's retransmission from its seeded response cache without
   executing the request a second time.

   Each entry applies once at the standby. The journal numbers its
   entries, a batch names the position of its first, and the standby
   answers with how many it has applied. A ship whose answer was lost is
   shipped again from the same position, and the standby skips the
   entries it already holds. The standby's response cache keeps its
   seeded replies and the answer to the latest batch alone: a
   retransmission of that batch is answered from it, and an older
   batch's answer could never be asked for again, so handling a batch
   drops the previous one's ([on_handled], [Expiring.remove]).

   The standby refuses fresh work ("standby: not primary") until it either
   observes the primary down or has already promoted itself; promotion is
   sticky, so a primary that flaps cannot re-split the shard's brain. *)

type replica = {
  node : string;
  server : Accounting_server.t;
  cache : Secure_rpc.cache;
}

(* A journal entry: a change, or a sealed reply under its response-cache
   key and its client's tag. *)
type entry =
  | Change of Accounting_server.change
  | Reply of { key : string; client : string; expires : int; reply : string }

type t = {
  net : Sim.Net.t;
  logical : Principal.t;
  key : string;
  primary : replica;
  standby : replica;
  repl_creds : Ticket.credentials;
  repl_retry : Sim.Retry.policy option;
  mutable unshipped : entry list;  (* newest first *)
  mutable acked : int;
      (* the standby's journal position by its last answer: the position
         of the oldest unshipped entry *)
  mutable applied : int;  (* journal entries the standby has applied *)
  mutable latest_batch : string option;
      (* the standby's response-cache key of the last batch it handled *)
  mutable promoted : bool;
}

let ( let* ) = Result.bind

let journal t c = t.unshipped <- Change c :: t.unshipped

(* The journal's one codec. *)
let entry_to_wire = function
  | Change c -> Accounting_server.change_to_wire c
  | Reply r ->
      Wire.L [ Wire.S "reply"; Wire.S r.key; Wire.S r.client; Wire.I r.expires; Wire.S r.reply ]

let entry_of_wire = function
  | Wire.L [ Wire.S "reply"; Wire.S key; Wire.S client; Wire.I expires; Wire.S reply ] ->
      Ok (Reply { key; client; expires; reply })
  | v -> Result.map (fun c -> Change c) (Accounting_server.change_of_wire v)

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
      unshipped = [];
      acked = 0;
      applied = 0;
      latest_batch = None;
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
let standby_cache t = t.standby.cache
let promoted t = t.promoted

let primary_down t = Sim.Net.is_down t.net t.primary.node

let authoritative t =
  if t.promoted || primary_down t then t.standby.server else t.primary.server

(* Ship every unshipped entry in ONE replication exchange, with the
   journal position of the first. On failure they are put back so the
   next handled request re-ships them, under a fresh authenticator, from
   the same position: the standby may have applied them and lost only its
   answer, so it skips the entries below its own position and applies
   each exactly once (a *retransmission* of the same bulk dedups on the
   standby's own response cache instead). *)
let ship_now t =
  let shipped = t.unshipped in
  t.unshipped <- [];
  let entries = List.rev shipped in
  let payload =
    Wire.L [ Wire.S "x-replicate-bulk"; Wire.I t.acked; Wire.L (List.map entry_to_wire entries) ]
  in
  let metrics = Sim.Net.metrics t.net in
  match
    Secure_rpc.call t.net ~creds:t.repl_creds ?retry:t.repl_retry ~via:[ t.standby.node ]
      payload
  with
  | Ok (Wire.I position) ->
      t.acked <- position;
      let replies =
        List.fold_left (fun n -> function Reply _ -> n + 1 | Change _ -> n) 0 entries
      in
      Sim.Metrics.incr metrics "cluster.repl_shipped";
      Sim.Metrics.add metrics "cluster.repl_ops_shipped" (List.length entries - replies);
      Sim.Metrics.add metrics "cluster.repl_replies_shipped" replies
  | Ok _ | Error _ ->
      Sim.Metrics.incr metrics "cluster.repl_failures";
      t.unshipped <- t.unshipped @ shipped

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
let ship t ~key ~client ~expires ~reply =
  if t.unshipped = [] then Sim.Metrics.incr (Sim.Net.metrics t.net) "cluster.repl_read_skips"
  else begin
    t.unshipped <- Reply { key; client; expires; reply } :: t.unshipped;
    ship_now t
  end

(* The standby applies a batch's entries in journal order, skipping those
   below its position (applied before an answer was lost): a change to
   its accounting server, a reply to its response cache, tagged by client
   as on the primary, so an eviction here raises only that client's
   floor. *)
let apply_replication t ctx ~first entries =
  if not (Principal.equal ctx.Secure_rpc.rpc_client t.logical) then
    Error "replication: caller is not this shard"
  else if first > t.applied then Error "replication: journal gap"
  else
    let* entries = Wire.map_all entry_of_wire entries in
    let fresh = List.filteri (fun i _ -> first + i >= t.applied) entries in
    let now = Sim.Net.now t.net in
    let metrics = Sim.Net.metrics t.net in
    let apply acc entry =
      let* () = acc in
      let* () =
        match entry with
        | Change c -> Accounting_server.apply_replicated t.standby.server c
        | Reply r ->
            Secure_rpc.seed t.standby.cache ~now ~expires:r.expires ~client:r.client ~key:r.key
              r.reply;
            Ok (Sim.Metrics.incr metrics "cluster.repl_replies_seeded")
      in
      Ok (t.applied <- t.applied + 1)
    in
    let* () = List.fold_left apply (Ok ()) fresh in
    Sim.Metrics.incr metrics "cluster.repl_applied";
    Ok (Wire.I t.applied)

let standby_handle t ctx payload =
  match payload with
  | Wire.L [ Wire.S "x-replicate-bulk"; Wire.I first; Wire.L entries ] ->
      apply_replication t ctx ~first entries
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

(* The standby's cache keeps the answer to the latest batch only, beside
   the replies it was seeded with. A duplicate of that batch is answered
   from it; an older batch is never sent again under its authenticator (a
   failed ship rides a fresh one, and positions apply it once), so its
   answer could not be read. Only the shard itself is the replication
   channel's client. *)
let drop_older_batch t =
  let self = Principal.to_string t.logical in
  fun ~key ~client ~expires:_ ~reply:_ ->
    if String.equal client self then begin
      Option.iter (Expiring.remove t.standby.cache) t.latest_batch;
      t.latest_batch <- Some key
    end

let install t =
  Secure_rpc.serve t.net ~me:t.logical ~my_key:t.key ~node:t.primary.node
    ~cache:t.primary.cache
    ~on_handled:(ship t)
    (fun ctx payload ->
      Result.bind (Accounting_server.request_of_wire payload)
        (Accounting_server.handle t.primary.server ctx));
  Secure_rpc.serve t.net ~me:t.logical ~my_key:t.key ~node:t.standby.node
    ~cache:t.standby.cache ~on_handled:(drop_older_batch t) (standby_handle t)

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
