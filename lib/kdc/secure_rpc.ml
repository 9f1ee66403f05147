type server_context = {
  rpc_client : Principal.t;
  rpc_auth_data : Wire.t list;
  rpc_ticket : string;
}

(* A handler's outcome as [serve] seals it, for one request or for each
   item of a batch; a refusal before the handler travels unsealed. *)
let status_to_wire = function
  | Ok reply -> Wire.L [ Wire.S "ok"; reply ]
  | Error msg -> Wire.L [ Wire.S "err"; Wire.S msg ]

let err msg = Wire.encode (status_to_wire (Error msg))

let status_of_wire = function
  | Wire.L [ Wire.S "ok"; reply ] -> Ok reply
  | Wire.L [ Wire.S "err"; Wire.S msg ] -> Error msg
  | _ -> Error "response: malformed status"

(* Response cache over authenticator tags: within the freshness window an
   identical authenticator is a retransmission (or a replay), and the
   handler must not run again — accept-once restrictions, check-number
   redemption, and ledger mutations fire exactly once under at-least-once
   delivery. The duplicate gets the original sealed response back: useless
   to an eavesdropping replayer (sealed under the session key), and
   exactly what a retrying legitimate client needs. An {!Expiring} table
   whose entries are tagged by the ticket's client: when full, expired
   entries are purged; if every entry is still live, the soonest-to-expire
   response is dropped, "rpc.cache_evictions" ticks and its client's
   floor rises, so that authenticator is refused rather than run again.
   Only that client's floor moves, and it moves in the client's own
   timestamps, so one client's flood never refuses another's fresh
   requests. The key is the authenticator's AEAD tag: the payload is its
   associated data, so the tag names the authenticator and the request
   together, and [serve] has checked it before the lookup.

   The cache is a first-class value so a standby replica can hold one and
   have it seeded by replication: a client that fails over after the
   primary executed its request but died before answering gets the
   original sealed reply from the standby instead of a second execution. *)
type cache = string Expiring.t

let create_cache ?(capacity = 4096) () = Expiring.create ~capacity ()

(* The trace context an envelope may carry: ids only. *)
let ctx_to_wire c = Wire.L [ Wire.S c.Sim.Span.ctx_trace; Wire.S c.Sim.Span.ctx_span ]

(* What an authenticator covers: the encoded payload, then the trace
   context's encoding when the envelope carries one. The payload is
   self-delimiting, so the two cannot be re-split. *)
let covered payload ctx =
  match ctx with None -> payload | Some c -> payload ^ Wire.encode (ctx_to_wire c)

let serve net ~me ~my_key ?node ?(max_skew_us = 5 * 60 * 1_000_000) ?cache ?on_handled
    handler =
  let metrics = Sim.Net.metrics net in
  let actor = Principal.to_string me in
  let node = Option.value node ~default:actor in
  let tickets = Ticket.holder my_key in
  let cache = match cache with Some c -> c | None -> create_cache () in
  let count_eviction () = Sim.Metrics.incr metrics "rpc.cache_evictions" in
  let handle request =
    let now = Sim.Net.now net in
    let open Wire in
    (* The trace context (present only when the caller runs traced) is
       never trusted for authorization, but the authenticator covers it
       like the payload, so a tap cannot re-parent the request under
       another trace. *)
    let parsed =
      match Wire.decode request with
      | Ok (L [ S "secure"; S ticket_blob; S auth_blob; S payload ]) ->
          Ok (ticket_blob, auth_blob, payload, None)
      | Ok (L [ S "secure"; S ticket_blob; S auth_blob; S payload; L [ S tr; S sp ] ]) ->
          Ok (ticket_blob, auth_blob, payload, Some { Sim.Span.ctx_trace = tr; ctx_span = sp })
      | Ok _ -> Error "not a secure-rpc request"
      | Error e -> Error e
    in
    match parsed with
    | Error e -> err e
    | Ok (ticket_blob, auth_blob, payload, remote) ->
        Sim.Span.with_span (Sim.Net.spans net) ~actor ~kind:"rpc.serve" ?parent:remote
          (fun () ->
        match
          Ticket.open_held tickets ~now ~tally:(Sim.Metrics.incr metrics) ticket_blob
        with
        | Error e -> err e
        | Ok { Ticket.ticket; session; digest } ->
            if not (Principal.equal ticket.Ticket.service me) then
              err "ticket is for a different service"
            else if ticket.Ticket.expires <= now then err "ticket expired"
            else begin
              (* One preparation per held ticket serves every
                 authenticator open and reply seal under it. *)
              let session = Lazy.force session in
              Sim.Metrics.incr metrics "crypto.open";
              match
                Ticket.open_authenticator ~session_key:session ~covers:(covered payload remote)
                  auth_blob
              with
              | Error e -> err e
              | Ok (auth, auth_id) ->
                  if not (Principal.equal auth.Ticket.auth_client ticket.Ticket.client) then
                    err "authenticator does not match ticket"
                  else if abs (auth.Ticket.timestamp - now) > max_skew_us then
                    err "authenticator outside freshness window"
                  else begin
                    (* The authenticator stays fresh until timestamp +
                       skew and its reply is cached exactly that long, so
                       the expiry depends on the client's clock alone: the
                       lookup passes the one the reply was cached with,
                       and a client whose timestamps only increase never
                       reaches its own floor. *)
                    let client = Principal.to_string ticket.Ticket.client in
                    let expires = auth.Ticket.timestamp + 1 + max_skew_us in
                    match Expiring.lookup cache ~now ~expires ~tag:client auth_id with
                    | Expiring.Live cached_reply ->
                        Sim.Metrics.incr metrics "rpc.dedup";
                        cached_reply
                    | Expiring.Forgotten ->
                        err "authenticator forgotten under capacity pressure: not run again"
                    | Expiring.Absent ->
                        let ctx =
                          {
                            rpc_client = ticket.Ticket.client;
                            rpc_auth_data =
                              ticket.Ticket.authorization_data @ auth.Ticket.auth_data;
                            rpc_ticket = digest;
                          }
                        in
                        let run_one item = status_to_wire (handler ctx item) in
                        let body =
                          match Wire.decode payload with
                          | Error e -> status_to_wire (Error e)
                          | Ok (Wire.L [ Wire.S "x-batch"; Wire.L items ]) ->
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
                              status_to_wire
                                (Ok
                                   (Wire.L
                                      [ Wire.S "x-batch-resp"; Wire.L (List.map run_one items) ]))
                          | Ok payload -> run_one payload
                        in
                        Sim.Metrics.incr metrics "crypto.seal";
                        let sealed =
                          Crypto.Aead.seal_prepared session ~ad:"secure-rpc-resp"
                            ~nonce:(Sim.Net.fresh_nonce net) (Wire.encode body)
                        in
                        let reply = Wire.encode (Wire.L [ Wire.S "sealed"; Wire.S sealed ]) in
                        Expiring.add ~on_evict:count_eviction cache ~now ~expires ~tag:client
                          auth_id reply;
                        (* The handler really ran (not a cache hit): feed the
                           replication hook, reply bytes included, so a
                           standby can answer this client's retransmissions
                           verbatim. *)
                        (match on_handled with
                        | Some f -> f ~auth_id ~client ~expires ~reply
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
  let run () =
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
    (* When this call runs inside a span, the envelope grows a fifth field
       carrying (trace_id, span_id) of the *call* span: the request bytes are
       built once and reused verbatim by every retransmission (the response
       cache depends on that), so per-attempt ids cannot ride along — the
       server's span parents to the call, attempts are its siblings beneath.
       Untraced runs carry no fifth field. *)
    let ctx = Sim.Span.context sp in
    (* The payload travels as the exact bytes the authenticator covers. *)
    let payload = Wire.encode payload in
    let auth_blob =
      Ticket.seal_authenticator ~session_key:creds.Ticket.cred_session
        ~nonce:(Sim.Net.fresh_nonce net) ~covers:(covered payload ctx) authenticator
    in
    let request =
      Wire.encode
        (Wire.L
           ([ Wire.S "secure"; Wire.S creds.Ticket.ticket_blob; Wire.S auth_blob; Wire.S payload ]
           @ Option.to_list (Option.map ctx_to_wire ctx)))
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
        if Option.is_some sp then
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
      let rpc () = Sim.Net.rpc net ~src ~dst:d request in
      match sp with
      | None -> rpc ()
      | Some _ ->
          Sim.Span.with_span sp ~actor:src ~kind:"rpc.attempt"
            ~attrs:[ ("dst", d); ("n", string_of_int !attempt) ]
            rpc
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
        match Wire.decode reply with
        | Error e -> Error e
        | Ok (L [ S "err"; S msg ]) -> Error msg
        | Ok (L [ S "sealed"; S sealed ]) -> (
            Sim.Metrics.incr metrics "crypto.open";
            let session = creds.Ticket.cred_session in
            match Crypto.Aead.open_prepared session ~ad:"secure-rpc-resp" sealed with
            | Error `Malformed -> Error "response: malformed seal"
            | Error `Bad_tag -> Error "response: seal verification failed"
            | Ok plaintext -> Result.bind (Wire.decode plaintext) status_of_wire)
        | Ok _ -> Error "response: malformed")
  in
  (* Untraced, no span label is built. *)
  match sp with
  | None -> run ()
  | Some _ -> Sim.Span.with_span sp ~actor:src ~kind:"rpc.call" ~attrs:[ ("dst", dst) ] run

(* Pipelining: N payloads ride one ticket/authenticator exchange — one
   client seal, one server open+seal, one round trip — instead of N. The
   wrapper payload and coalesced reply reuse [call]'s transport verbatim,
   so retry and replica failover semantics are exactly the single-call
   ones; the server caches the whole coalesced reply under the single
   authenticator, preserving exactly-once execution per item. A
   transport-level failure (or an authentication refusal) fails the batch
   as a whole; per-item handler errors come back in-order inside [Ok]. *)
let call_batch net ~creds ?retry ?via payloads =
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
          Ok (List.map status_of_wire results)
      | Ok _ -> Error "batch response: shape mismatch")
