type server_context = { rpc_client : Principal.t; rpc_auth_data : Wire.t list }

let err msg = Wire.encode (Wire.L [ Wire.S "err"; Wire.S msg ])

(* Response cache over authenticator blobs: within the freshness window an
   identical authenticator is a retransmission (or a replay), and the
   handler must not run again — accept-once restrictions, check-number
   redemption, and ledger mutations fire exactly once under at-least-once
   delivery. The duplicate gets the original sealed response back: useless
   to an eavesdropping replayer (sealed under the session key), and
   exactly what a retrying legitimate client needs. An {!Expiring} table:
   when full, expired entries are purged; if every entry is still live,
   the soonest-to-expire response is dropped (its retransmission window
   closes first) and "rpc.cache_evictions" ticks.

   The cache is a first-class value so a standby replica can hold one and
   have it seeded by replication: a client that fails over after the
   primary executed its request but died before answering gets the
   original sealed reply from the standby instead of a second execution. *)
type cache = string Expiring.t

let create_cache ?(capacity = 4096) () =
  if capacity < 1 then invalid_arg "Secure_rpc.create_cache: capacity must be positive";
  Expiring.create ~capacity ()

(* Seeding never ticks "rpc.cache_evictions": that counter is the served
   traffic's. *)
let seed_response cache ~now ~auth_id ~expires ~reply =
  Expiring.add cache ~now ~expires auth_id reply

let cached cache ~auth_id = Expiring.mem cache auth_id

let serve net ~me ~my_key ?node ?(max_skew_us = 5 * 60 * 1_000_000) ?cache ?on_handled
    handler =
  let metrics = Sim.Net.metrics net in
  let node = Option.value node ~default:(Principal.to_string me) in
  let tickets = Ticket.holder my_key in
  let cache = match cache with Some c -> c | None -> create_cache () in
  let count_eviction () = Sim.Metrics.incr metrics "rpc.cache_evictions" in
  let handle request =
    let now = Sim.Net.now net in
    let open Wire in
    let parsed =
      let* v = Wire.decode request in
      let* tag = Result.bind (field v 0) to_string in
      if tag <> "secure" then Error "not a secure-rpc request"
      else
        let* ticket_blob = Result.bind (field v 1) to_string in
        let* auth_blob = Result.bind (field v 2) to_string in
        let* payload = field v 3 in
        (* Optional trace context (field 4, present only when the caller
           runs traced): ids only — never trusted for authorization. *)
        let remote =
          match field v 4 with
          | Ok (L [ S tr; S sp ]) -> Some { Sim.Span.ctx_trace = tr; ctx_span = sp }
          | _ -> None
        in
        Ok (ticket_blob, auth_blob, payload, remote)
    in
    match parsed with
    | Error e -> err e
    | Ok (ticket_blob, auth_blob, payload, remote) ->
        Sim.Span.with_span (Sim.Net.spans net) ~actor:(Principal.to_string me)
          ~kind:"rpc.serve" ?parent:remote
          (fun () ->
        match
          Ticket.open_held tickets ~now ~tally:(Sim.Metrics.incr metrics) ticket_blob
        with
        | Error e -> err e
        | Ok { Ticket.ticket; session } ->
            if not (Principal.equal ticket.Ticket.service me) then
              err "ticket is for a different service"
            else if ticket.Ticket.expires <= now then err "ticket expired"
            else begin
              (* One preparation per held ticket serves every
                 authenticator open and reply seal under it. *)
              let session = Lazy.force session in
              Sim.Metrics.incr metrics "crypto.open";
              match Ticket.open_authenticator ~session_key:session auth_blob with
              | Error e -> err e
              | Ok auth ->
                  if not (Principal.equal auth.Ticket.auth_client ticket.Ticket.client) then
                    err "authenticator does not match ticket"
                  else if abs (auth.Ticket.timestamp - now) > max_skew_us then
                    err "authenticator outside freshness window"
                  else begin
                    let auth_id = Crypto.Sha256.digest auth_blob in
                    match Expiring.find cache ~now auth_id with
                    | Some cached_reply ->
                        Sim.Metrics.incr metrics "rpc.dedup";
                        cached_reply
                    | None ->
                        let ctx =
                          {
                            rpc_client = ticket.Ticket.client;
                            rpc_auth_data =
                              ticket.Ticket.authorization_data @ auth.Ticket.auth_data;
                          }
                        in
                        let reply_key =
                          match auth.Ticket.subkey with
                          | Some k when String.length k = 32 -> Crypto.Aead.prepare k
                          | Some _ | None -> session
                        in
                        let run_one item =
                          match handler ctx item with
                          | Ok reply -> Wire.L [ Wire.S "ok"; reply ]
                          | Error e -> Wire.L [ Wire.S "err"; Wire.S e ]
                        in
                        let body =
                          match payload with
                          | Wire.L [ Wire.S "x-batch"; Wire.L items ] ->
                              (* Pipelined request: N payloads authenticated,
                                 deduplicated, sealed and cached as ONE
                                 exchange. Items run in order against the
                                 same context; each gets its own ok/err so
                                 one failing item never poisons the rest.
                                 The coalesced reply is cached under the
                                 single authenticator, so a retransmitted
                                 batch is answered verbatim — the handler
                                 runs exactly once per item however often
                                 the batch is re-sent or fails over. *)
                              Sim.Metrics.incr metrics "rpc.batch.requests";
                              Sim.Metrics.add metrics "rpc.batch.items"
                                (List.length items);
                              Wire.L
                                [
                                  Wire.S "ok";
                                  Wire.L [ Wire.S "x-batch-resp"; Wire.L (List.map run_one items) ];
                                ]
                          | _ -> run_one payload
                        in
                        Sim.Metrics.incr metrics "crypto.seal";
                        let sealed =
                          Crypto.Aead.encode
                            (Crypto.Aead.seal_prepared reply_key ~ad:"secure-rpc-resp"
                               ~nonce:(Sim.Net.fresh_nonce net) (Wire.encode body))
                        in
                        let reply = Wire.encode (Wire.L [ Wire.S "sealed"; Wire.S sealed ]) in
                        (* Cache for as long as the authenticator passes
                           the freshness check: a client clock ahead of
                           ours stays fresh until timestamp + skew. *)
                        let expires = max now (auth.Ticket.timestamp + 1) + max_skew_us in
                        Expiring.add ~on_evict:count_eviction cache ~now ~expires auth_id reply;
                        (* The handler really ran (not a cache hit): feed the
                           replication hook, reply bytes included, so a
                           standby can answer this client's retransmissions
                           verbatim. *)
                        (match on_handled with
                        | Some f -> f ~auth_id ~expires ~reply
                        | None -> ());
                        reply
                  end
            end)
  in
  Sim.Net.register net ~name:node handle

let call net ~creds ?retry ?(via = []) ?on_failover payload =
  let open Wire in
  let src = Principal.to_string creds.Ticket.cred_client in
  let targets =
    match via with
    | [] -> [| Principal.to_string creds.Ticket.cred_service |]
    | _ -> Array.of_list via
  in
  let dst = targets.(0) in
  let sp = Sim.Net.spans net in
  Sim.Span.with_span sp ~actor:src ~kind:"rpc.call" ~attrs:[ ("dst", dst) ] @@ fun () ->
  let metrics = Sim.Net.metrics net in
  Sim.Metrics.incr metrics "crypto.seal";
  let authenticator =
    {
      Ticket.auth_client = creds.Ticket.cred_client;
      timestamp = Sim.Net.now net;
      subkey = None;
      auth_data = [];
    }
  in
  let auth_blob =
    Ticket.seal_authenticator ~session_key:creds.Ticket.cred_session
      ~nonce:(Sim.Net.fresh_nonce net) authenticator
  in
  (* When this call runs inside a span, the envelope grows a fifth field
     carrying (trace_id, span_id) of the *call* span: the request bytes are
     built once and reused verbatim by every retransmission (the response
     cache depends on that), so per-attempt ids cannot ride along — the
     server's span parents to the call, attempts are its siblings beneath.
     Untraced runs produce byte-identical envelopes to before. *)
  let ctx_fields =
    match Sim.Span.context sp with
    | None -> []
    | Some c -> [ Wire.L [ Wire.S c.Sim.Span.ctx_trace; Wire.S c.Sim.Span.ctx_span ] ]
  in
  let request =
    Wire.encode
      (Wire.L
         ([ Wire.S "secure"; Wire.S creds.Ticket.ticket_blob; Wire.S auth_blob; payload ]
         @ ctx_fields))
  in
  (* Retransmissions reuse the exact request bytes: the same authenticator
     keys the server's response cache, so a retried request is answered from
     that cache instead of re-running the handler (or being rejected as a
     replay). Only transient transport failures retry; in-band service
     errors return immediately.

     [via] lists physical destinations for the same logical service (shard
     replicas sharing the ticket's service identity): when the current
     target is observably down, or the whole retry budget against it is
     exhausted with a transient error, the call moves to the next target —
     still the same request bytes, so a standby whose response cache was
     seeded by replication answers an already-executed request instead of
     running it twice. *)
  let target = ref 0 in
  let fail_over () =
    if !target + 1 >= Array.length targets then false
    else begin
      let from_ = targets.(!target) in
      incr target;
      let to_ = targets.(!target) in
      Sim.Metrics.incr metrics "cluster.failovers";
      Sim.Span.with_span sp ~actor:src ~kind:"cluster.failover"
        ~attrs:[ ("from", from_); ("to", to_) ]
        (fun () -> ());
      (match on_failover with Some f -> f ~from_ ~to_ | None -> ());
      true
    end
  in
  let attempt = ref 0 in
  let send () =
    (* Don't burn an attempt on a target already known to be down. *)
    if Sim.Net.is_down net targets.(!target) then ignore (fail_over ());
    incr attempt;
    let d = targets.(!target) in
    Sim.Span.with_span sp ~actor:src ~kind:"rpc.attempt"
      ~attrs:[ ("dst", d); ("n", string_of_int !attempt) ]
      (fun () -> Sim.Net.rpc net ~src ~dst:d request)
  in
  let exchange =
    match retry with
    | None -> send
    | Some p ->
        fun () ->
          Sim.Retry.run ~clock:(Sim.Net.clock net) ~drbg:(Sim.Net.retry_drbg net) ~metrics p
            send
  in
  let rec exchange_all () =
    match exchange () with
    | Error e when Sim.Net.transient_error e && fail_over () -> exchange_all ()
    | r -> r
  in
  match exchange_all () with
  | Error e -> Error e
  | Ok reply -> (
      let* v = Wire.decode reply in
      let* tag = Result.bind (field v 0) to_string in
      match tag with
      | "err" ->
          let* msg = Result.bind (field v 1) to_string in
          Error msg
      | "sealed" -> (
          let* sealed = Result.bind (field v 1) to_string in
          Sim.Metrics.incr metrics "crypto.open";
          match Crypto.Aead.decode sealed with
          | None -> Error "response: malformed seal"
          | Some box -> (
              match
                Crypto.Aead.open_prepared creds.Ticket.cred_session ~ad:"secure-rpc-resp" box
              with
              | None -> Error "response: seal verification failed"
              | Some plaintext -> (
                  let* body = Wire.decode plaintext in
                  let* status = Result.bind (field body 0) to_string in
                  match status with
                  | "ok" -> field body 1
                  | "err" ->
                      let* msg = Result.bind (field body 1) to_string in
                      Error msg
                  | other -> Error (Printf.sprintf "response: unknown status %S" other))))
      | other -> Error (Printf.sprintf "response: unknown tag %S" other))

(* Pipelining: N payloads ride one ticket/authenticator exchange — one
   client seal, one server open+seal, one round trip — instead of N. The
   wrapper payload and coalesced reply reuse [call]'s transport verbatim,
   so retry and replica failover semantics are exactly the single-call
   ones; the server caches the whole coalesced reply under the single
   authenticator, preserving exactly-once execution per item. A
   transport-level failure (or an authentication refusal) fails the batch
   as a whole; per-item handler errors come back in-order inside [Ok]. *)
let call_batch net ~creds ?retry ?via payloads =
  let open Wire in
  match payloads with
  | [] -> Ok []
  | _ -> (
      let n = List.length payloads in
      let metrics = Sim.Net.metrics net in
      Sim.Metrics.incr metrics "rpc.batch.calls";
      Sim.Metrics.add metrics "rpc.batch.coalesced" n;
      match
        call net ~creds ?retry ?via (Wire.L [ Wire.S "x-batch"; Wire.L payloads ])
      with
      | Error e -> Error e
      | Ok (Wire.L [ Wire.S "x-batch-resp"; Wire.L results ]) when List.length results = n ->
          Ok
            (List.map
               (fun r ->
                 let* status = Result.bind (field r 0) to_string in
                 match status with
                 | "ok" -> field r 1
                 | "err" ->
                     let* msg = Result.bind (field r 1) to_string in
                     Error msg
                 | other -> Error (Printf.sprintf "batch item: unknown status %S" other))
               results)
      | Ok _ -> Error "batch response: shape mismatch")
