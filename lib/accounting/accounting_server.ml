let escrow_account = "cashier-escrow"

(* Lifetime of what this server signs: endorsements, certification
   proxies, cashier's checks, and the accept-once records mirrored on a
   standby. *)
let proxy_lifetime_us = 24 * 3600 * 1_000_000

type t = {
  net : Sim.Net.t;
  me : Principal.t;
  my_key : string;
  signing_key : Crypto.Rsa.private_;
  lookup : Principal.t -> Crypto.Rsa.public option;
  ledger : Ledger.t;
  granter : Granter.t;
  guard : Guard.t;
  routes : (string, Principal.t * string list) Hashtbl.t;
      (* drawee -> next hop + physical destinations for it (replicas) *)
  collect_retry : Sim.Retry.policy option;
  drawn : (string, int) Hashtbl.t;
      (* running total drawn on each grant, keyed by [grant_key] *)
  mutable on_redeem : (string -> unit) list;
      (* fired in order with the check number whenever a check is paid
         here: the replication feed a standby mirrors accept-once records
         from, plus any counters added after it *)
}

let create net ~me ~my_key ~kdc ~signing_key ~lookup ?collect_retry ?verify_cache ?revocation () =
  match Granter.create net ~me ~my_key ~kdc with
  | Error e -> Error e
  | Ok granter ->
      let ledger = Ledger.create () in
      let guard =
        Guard.create net ~me ~my_key ~lookup_pub:lookup ?verify_cache ?revocation
          ~acl:(Acl.create ()) ()
      in
      let t =
        {
          net;
          me;
          my_key;
          signing_key;
          lookup;
          ledger;
          granter;
          guard;
          routes = Hashtbl.create 4;
          collect_retry;
          drawn = Hashtbl.create 16;
          on_redeem = [];
        }
      in
      (* The escrow account backs cashier's checks. *)
      (match Ledger.open_account ledger ~owner:me ~name:escrow_account with
      | Ok () -> ()
      | Error _ -> assert false);
      Acl.add (Guard.acl guard) ~target:escrow_account
        { Acl.subject = Acl.Principal_is me; rights = [ "debit" ]; restrictions = [] };
      Ok t

let me t = t.me
let ledger t = t.ledger
let guard t = t.guard
let apply_bulletin t b = Guard.apply_bulletin t.guard b
let account t name = Principal.Account.make ~server:t.me name

let set_route t ~drawee ?(via = []) ~next_hop () =
  Hashtbl.replace t.routes (Principal.to_string drawee) (next_hop, via)

let next_hop t drawee =
  Option.value (Hashtbl.find_opt t.routes (Principal.to_string drawee)) ~default:(drawee, [])

let add_redemption_observer t f = t.on_redeem <- t.on_redeem @ [ f ]
let redeemed t number = List.iter (fun f -> f number) t.on_redeem

let warm t ~drawee =
  let hop, _ = next_hop t drawee in
  Result.map ignore (Granter.credentials_for t.granter hop)

let trace t fmt =
  Printf.ksprintf
    (fun msg ->
      Sim.Trace.record (Sim.Net.trace t.net) ~time:(Sim.Net.now t.net)
        ~actor:(Principal.to_string t.me) msg)
    fmt

(* Drawee-side validation: the check's delegate-proxy chain must authorize
   debiting the payor's account, with this server among the presenters (the
   endorsement chain ends at us). On success the funds are moved out of the
   payor's account (or out of a certified hold). *)
let validate_and_debit t ~presenter (check : Check.t) =
  Sim.Span.with_span (Sim.Net.spans t.net) ~actor:(Principal.to_string t.me) ~kind:"acct.debit"
    ~attrs:
      [
        ("check", check.Check.number);
        ("amount", string_of_int check.Check.amount);
        ("currency", check.Check.currency);
      ]
  @@ fun () ->
  let presented =
    { Guard.pres = Proxy.presentation check.Check.proxy; pres_proof = None }
  in
  let payor_account = check.Check.drawn_on.Principal.Account.account in
  match
    Guard.decide t.guard ~operation:"debit" ~target:payor_account ~presenter
      ~extra_presenters:[ t.me ] ~proxies:[ presented ]
      ~spend:(check.Check.currency, check.Check.amount) ()
  with
  | Error e -> Error (Printf.sprintf "check %s refused: %s" check.Check.number e)
  | Ok _decision -> (
      match Ledger.find_hold t.ledger ~name:payor_account ~id:check.Check.number with
      | Some (held_currency, held_amount) ->
          if held_currency <> check.Check.currency || held_amount < check.Check.amount then
            Error "certified hold does not cover the check"
          else begin
            (match Ledger.take_hold t.ledger ~name:payor_account ~id:check.Check.number with
            | Ok _ -> ()
            | Error _ -> assert false);
            (* Any certified surplus returns to the payor. *)
            if held_amount > check.Check.amount then
              ignore
                (Ledger.credit t.ledger ~name:payor_account ~currency:held_currency
                   (held_amount - check.Check.amount));
            trace t "paid certified check %s: %d %s from %S" check.Check.number
              check.Check.amount check.Check.currency payor_account;
            redeemed t check.Check.number;
            Ok check.Check.amount
          end
      | None -> (
          match
            Ledger.debit t.ledger ~name:payor_account ~currency:check.Check.currency
              check.Check.amount
          with
          | Error e -> Error (Printf.sprintf "check %s bounced: %s" check.Check.number e)
          | Ok () ->
              trace t "paid check %s: %d %s from %S" check.Check.number check.Check.amount
                check.Check.currency payor_account;
              redeemed t check.Check.number;
              Ok check.Check.amount))

(* Forward a check toward its drawee: endorse to the next hop and send a
   collect request (Figure 5's E2 and beyond). *)
let forward_collect t (check : Check.t) =
  let drawee = check.Check.drawn_on.Principal.Account.server in
  let hop, via = next_hop t drawee in
  Sim.Span.with_span (Sim.Net.spans t.net) ~actor:(Principal.to_string t.me)
    ~kind:"acct.forward"
    ~attrs:[ ("check", check.Check.number); ("hop", Principal.to_string hop) ]
  @@ fun () ->
  let now = Sim.Net.now t.net in
  match
    Check.endorse ~drbg:(Sim.Net.drbg t.net) ~now ~expires:(now + proxy_lifetime_us)
      ~endorser:t.me ~endorser_key:t.signing_key ~next:hop check
  with
  | Error e -> Error e
  | Ok endorsed -> (
      Sim.Metrics.incr (Sim.Net.metrics t.net) "accounting.endorsements";
      match Granter.credentials_for t.granter hop with
      | Error e -> Error e
      | Ok creds -> (
          (* The inter-bank hop retries under its configured policy: a lost
             collect response would otherwise strand money debited at the
             drawee but never credited downstream. Retransmissions reuse the
             same authenticator, so the remote response cache makes the
             collect fire exactly once. A routed hop may name physical
             replicas ([via]): the endorsement targets the logical bank,
             the transport fails over between its replicas. *)
          match
            Secure_rpc.call t.net ~creds ?retry:t.collect_retry ~via
              (Wire.L [ Wire.S "collect"; Check.to_wire endorsed ])
          with
          | Error e -> Error e
          | Ok reply -> Result.bind (Wire.to_int reply) (fun amount -> Ok amount)))

let settle t ~presenter (check : Check.t) =
  if Principal.equal check.Check.drawn_on.Principal.Account.server t.me then
    validate_and_debit t ~presenter check
  else forward_collect t check

(* The running total of presented-proxy draws is kept per grant, so every
   chain derived from one grant draws on one budget. A grant is named by
   its head certificate: grantor and serial for public-key and hybrid
   chains (a serial is unique only per grantor), the first sealed
   certificate for conventional ones, whose serials are sealed. The key is
   read from the presentation before the decision, which then verifies the
   head it names. *)
let grant_key (presented : Guard.presented) ~currency =
  let head =
    match presented.Guard.pres with
    | Proxy.Public_key ({ Proxy_cert.pk_body = b; _ } :: _)
    | Proxy.Hybrid ({ Proxy_cert.h_body = b; _ }, _) ->
        [ Principal.to_wire b.Proxy_cert.grantor; Wire.S b.Proxy_cert.serial ]
    | Proxy.Conventional { Proxy.cert_blobs = blob :: _; _ } -> [ Wire.S blob ]
    | Proxy.Public_key [] | Proxy.Conventional _ -> []
  in
  Wire.encode (Wire.L (Wire.S currency :: head))

let handle t ctx payload =
  let open Wire in
  let client = ctx.Secure_rpc.rpc_client in
  let* tag = Result.bind (field payload 0) to_string in
  let transport ~operation ?target ?spend () =
    Guard.transport_ok ~me:t.me ~now:(Sim.Net.now t.net)
      ~auth_data:ctx.Secure_rpc.rpc_auth_data ~operation ?target ?spend ()
  in
  let owner_only name k =
    match Ledger.owner t.ledger ~name with
    | Some o when Principal.equal o client -> k ()
    | Some _ -> Error (Printf.sprintf "%s does not own account %S" (Principal.to_string client) name)
    | None -> Error (Printf.sprintf "no such account %S" name)
  in
  match tag with
  | "open-account" ->
      let* name = Result.bind (field payload 1) to_string in
      let* () = Ledger.open_account t.ledger ~owner:client ~name in
      Acl.add (Guard.acl t.guard) ~target:name
        { Acl.subject = Acl.Principal_is client; rights = [ "debit" ]; restrictions = [] };
      trace t "opened account %S for %s" name (Principal.to_string client);
      Ok (Wire.L [])
  | "balance" ->
      let* name = Result.bind (field payload 1) to_string in
      let* currency = Result.bind (field payload 2) to_string in
      let* () = transport ~operation:"balance" ~target:name () in
      owner_only name (fun () ->
          Ok
            (Wire.L
               [ Wire.I (Ledger.balance t.ledger ~name ~currency);
                 Wire.I (Ledger.held t.ledger ~name ~currency) ]))
  | "transfer" ->
      let* from_ = Result.bind (field payload 1) to_string in
      let* to_ = Result.bind (field payload 2) to_string in
      let* currency = Result.bind (field payload 3) to_string in
      let* amount = Result.bind (field payload 4) to_int in
      let* () = transport ~operation:"transfer" ~target:from_ ~spend:(currency, amount) () in
      owner_only from_ (fun () ->
          let* () = Ledger.transfer t.ledger ~from_ ~to_ ~currency amount in
          trace t "transfer %d %s: %S -> %S" amount currency from_ to_;
          Ok (Wire.L []))
  | "deposit" ->
      Sim.Metrics.incr (Sim.Net.metrics t.net) "accounting.deposits";
      let* cw = field payload 1 in
      let* check = Check.of_wire cw in
      Sim.Span.with_span (Sim.Net.spans t.net) ~actor:(Principal.to_string t.me)
        ~kind:"acct.deposit"
        ~attrs:[ ("check", check.Check.number); ("client", Principal.to_string client) ]
      @@ fun () ->
      let* to_account = Result.bind (field payload 2) to_string in
      let* () =
        transport ~operation:"deposit" ~target:to_account
          ~spend:(check.Check.currency, check.Check.amount) ()
      in
      owner_only to_account (fun () ->
          let* amount = settle t ~presenter:client check in
          let* () =
            Ledger.credit t.ledger ~name:to_account ~currency:check.Check.currency amount
          in
          trace t "deposited check %s: %d %s into %S" check.Check.number amount
            check.Check.currency to_account;
          Ok (Wire.I amount))
  | "collect" ->
      Sim.Metrics.incr (Sim.Net.metrics t.net) "accounting.collects";
      let* cw = field payload 1 in
      let* check = Check.of_wire cw in
      Sim.Span.with_span (Sim.Net.spans t.net) ~actor:(Principal.to_string t.me)
        ~kind:"acct.collect"
        ~attrs:[ ("check", check.Check.number); ("client", Principal.to_string client) ]
      @@ fun () ->
      let* amount = settle t ~presenter:client check in
      Ok (Wire.I amount)
  | "certify" ->
      let* cw = field payload 1 in
      let* check = Check.of_wire cw in
      let name = check.Check.drawn_on.Principal.Account.account in
      if not (Principal.equal check.Check.drawn_on.Principal.Account.server t.me) then
        Error "certify: check is not drawn on this server"
      else
        owner_only name (fun () ->
            let* () =
              Ledger.hold t.ledger ~name ~id:check.Check.number ~currency:check.Check.currency
                check.Check.amount
            in
            let now = Sim.Net.now t.net in
            let proxy =
              Proxy.grant_pk ~drbg:(Sim.Net.drbg t.net) ~now ~expires:(now + proxy_lifetime_us)
                ~grantor:t.me ~grantor_key:t.signing_key
                ~restrictions:
                  [ Restriction.Authorized
                      [ { Restriction.target = "certified:" ^ check.Check.number;
                          ops = [ "verify" ] } ] ]
                ()
            in
            trace t "certified check %s for %d %s" check.Check.number check.Check.amount
              check.Check.currency;
            Ok (Proxy.transfer_to_wire proxy))
  | "cashier" ->
      let* from_account = Result.bind (field payload 1) to_string in
      let* payee = Result.bind (field payload 2) Principal.of_wire in
      let* currency = Result.bind (field payload 3) to_string in
      let* amount = Result.bind (field payload 4) to_int in
      let* () = transport ~operation:"cashier" ~target:from_account ~spend:(currency, amount) () in
      owner_only from_account (fun () ->
          let* () =
            Ledger.transfer t.ledger ~from_:from_account ~to_:escrow_account ~currency amount
          in
          let now = Sim.Net.now t.net in
          let check =
            Check.write ~drbg:(Sim.Net.drbg t.net) ~now ~expires:(now + proxy_lifetime_us)
              ~payor:t.me ~payor_key:t.signing_key ~account:(account t escrow_account) ~payee
              ~currency ~amount ()
          in
          trace t "cashier's check %s: %d %s for %s" check.Check.number amount currency
            (Principal.to_string payee);
          Ok (Check.to_wire check))
  | "seq-advance" ->
      (* Cross-server sequence progress handover: the guard re-derives the
         sequence from the self-describing key and only accepts the push
         when the authenticated caller is the server that ran the attested
         step (see {!Guard.import_seq_progress}). *)
      let* key = Result.bind (field payload 1) to_string in
      let* progress = Result.bind (field payload 2) to_int in
      let* expires = Result.bind (field payload 3) to_int in
      let* stag = Result.bind (field payload 4) to_string in
      let* () =
        Guard.import_seq_progress t.guard ~caller:client ~key ~progress ~expires ~tag:stag
      in
      trace t "sequence progress %d imported from %s" progress (Principal.to_string client);
      Ok (Wire.L [])
  | ("proxy-debit" | "proxy-release") as verb ->
      (* A draw on a presented delegate proxy (quota allocation, Section 4)
         or its release. The grant's running total is read before the one
         decision, so a draw's spend is the cumulative total and every
         Quota on the chain caps it. *)
      let* presented = Result.bind (field payload 1) Guard.presented_of_wire in
      let* payor_account = Result.bind (field payload 2) to_string in
      let* account = Result.bind (field payload 3) to_string in
      let* currency = Result.bind (field payload 4) to_string in
      let* amount = Result.bind (field payload 5) to_int in
      if amount <= 0 then Error (verb ^ ": amount must be positive")
      else
        owner_only account (fun () ->
            let key = grant_key presented ~currency in
            let already = Option.value (Hashtbl.find_opt t.drawn key) ~default:0 in
            let draw = verb = "proxy-debit" in
            let total = if draw then already + amount else already - amount in
            let* decision =
              Guard.decide t.guard ~operation:"debit" ~target:payor_account ~presenter:client
                ~proxies:[ presented ]
                ?spend:(if draw then Some (currency, total) else None)
                ()
            in
            (* The caller's own rights may grant the decision without the
               proxy; such a request must not move the total of a grant
               whose certificates anyone can copy. *)
            if decision.Guard.acting_for = [] then
              Error (verb ^ ": the presented proxy did not authorize the request")
            else if total < 0 then
              Error
                (Printf.sprintf "proxy-release: only %d %s drawn, cannot release %d" already
                   currency amount)
            else
              let from_, to_ =
                if draw then (payor_account, account) else (account, payor_account)
              in
              let* () = Ledger.debit t.ledger ~name:from_ ~currency amount in
              let* () = Ledger.credit t.ledger ~name:to_ ~currency amount in
              Hashtbl.replace t.drawn key total;
              if draw then
                trace t "standing draw: %d %s from %S to %S (cumulative %d)" amount currency
                  from_ to_ total
              else
                trace t "standing release: %d %s back to %S (cumulative %d)" amount currency
                  to_ total;
              Ok (Wire.I total))
  | "apply-bulletin" ->
      (* Bulletins are self-authenticating (authority-signed, monotonic
         epoch), so any authenticated caller may deliver one — the push leg
         of distribution. Replays and stale bulletins are ignored, not
         errors, so a duplicated push is harmless. *)
      let* bw = field payload 1 in
      let* b = Revocation.of_wire bw in
      let* advanced = Guard.apply_bulletin t.guard b in
      if advanced then
        trace t "revocation bulletin epoch %d applied (pushed by %s)" b.Revocation.epoch
          (Principal.to_string client);
      Ok (Wire.I (if advanced then 1 else 0))
  | other -> Error (Printf.sprintf "accounting: unknown operation %S" other)

let install t =
  Secure_rpc.serve t.net ~me:t.me ~my_key:t.my_key (fun ctx payload -> handle t ctx payload)

(* Standby side of replication: mirror the primary's journalled ledger
   ops (plus the ACL entry an account opening installs, and the
   accept-once record a check redemption consumes) without re-running any
   handler. The [drawn] table for standing authorities is not replicated —
   standing draws against a failed-over shard restart their cumulative
   count. *)
let apply_replicated t ?(seq = []) ~ops ~redeemed () =
  let now = Sim.Net.now t.net in
  let rec apply_ops = function
    | [] -> Ok ()
    | op :: rest -> (
        (match op with
        | Ledger.Op_open (owner, name) ->
            Acl.add (Guard.acl t.guard) ~target:name
              { Acl.subject = Acl.Principal_is owner; rights = [ "debit" ]; restrictions = [] }
        | _ -> ());
        match Ledger.apply t.ledger op with
        | Ok () -> apply_ops rest
        | Error e -> Error (Printf.sprintf "replica diverged: %s" e))
  in
  match apply_ops ops with
  | Error _ as e -> e
  | Ok () ->
      List.iter
        (fun number ->
          ignore
            (Replay_cache.record (Guard.replay_cache t.guard) ~now
               ~expires:(now + proxy_lifetime_us) number))
        redeemed;
      (* Mirrored sequence progress lands directly in the tracker: the
         replication channel already authenticated the primary, and the
         max-monotone store makes re-applied batches harmless. *)
      List.iter
        (fun (key, progress, expires, tag) ->
          Seq_tracker.set_progress (Guard.seq_tracker t.guard) ~now ~expires ~tag key
            progress)
        seq;
      Ok ()

(* --- client side --- *)

(* The operations that take [?retry] stay exactly-once under it: a
   retransmission reuses the same authenticator, so the server's response
   cache guarantees the ledger mutation happens exactly once however often
   the message is re-sent. *)

let open_account ?retry ?via ?on_failover net ~creds ~name =
  match
    Secure_rpc.call net ~creds ?retry ?via ?on_failover
      (Wire.L [ Wire.S "open-account"; Wire.S name ])
  with
  | Ok _ -> Ok ()
  | Error e -> Error e

let balance ?retry ?via ?on_failover net ~creds ~name ~currency =
  let open Wire in
  match
    Secure_rpc.call net ~creds ?retry ?via ?on_failover
      (Wire.L [ Wire.S "balance"; Wire.S name; Wire.S currency ])
  with
  | Error e -> Error e
  | Ok reply ->
      let* available = Result.bind (field reply 0) to_int in
      let* held = Result.bind (field reply 1) to_int in
      Ok (available, held)

let transfer ?retry ?via ?on_failover net ~creds ~from_ ~to_ ~currency ~amount =
  match
    Secure_rpc.call net ~creds ?retry ?via ?on_failover
      (Wire.L [ Wire.S "transfer"; Wire.S from_; Wire.S to_; Wire.S currency; Wire.I amount ])
  with
  | Ok _ -> Ok ()
  | Error e -> Error e

let deposit ?retry ?via ?on_failover net ~creds ~endorser_key ~check ~to_account =
  let now = Sim.Net.now net in
  let bank = creds.Ticket.cred_service in
  match
    Check.endorse ~drbg:(Sim.Net.drbg net) ~now ~expires:(now + proxy_lifetime_us)
      ~endorser:creds.Ticket.cred_client ~endorser_key ~next:bank check
  with
  | Error e -> Error e
  | Ok endorsed -> (
      match
        Secure_rpc.call net ~creds ?retry ?via ?on_failover
          (Wire.L [ Wire.S "deposit"; Check.to_wire endorsed; Wire.S to_account ])
      with
      | Error e -> Error e
      | Ok reply -> Wire.to_int reply)

let certify net ~creds ~check =
  match Secure_rpc.call net ~creds (Wire.L [ Wire.S "certify"; Check.to_wire check ]) with
  | Error e -> Error e
  | Ok reply -> Proxy.transfer_of_wire reply

let cashier_check net ~creds ~from_account ~payee ~currency ~amount =
  match
    Secure_rpc.call net ~creds
      (Wire.L
         [ Wire.S "cashier"; Wire.S from_account; Principal.to_wire payee; Wire.S currency;
           Wire.I amount ])
  with
  | Error e -> Error e
  | Ok reply -> Check.of_wire reply

let proxy_call verb ?retry ?via net ~creds ~presented ~payor_account ~account ~currency
    ~amount =
  Result.bind
    (Secure_rpc.call net ~creds ?retry ?via
       (Wire.L
          [ Wire.S verb; Guard.presented_to_wire presented; Wire.S payor_account;
            Wire.S account; Wire.S currency; Wire.I amount ]))
    Wire.to_int

let proxy_debit ?retry ?via net ~creds ~presented ~payor_account ~to_account ~currency
    ~amount =
  proxy_call "proxy-debit" ?retry ?via net ~creds ~presented ~payor_account
    ~account:to_account ~currency ~amount

let standing_call verb net ~creds ~(authority : Standing.t) ~account ~amount =
  proxy_call verb net ~creds
    ~presented:{ Guard.pres = Proxy.presentation authority.Standing.authority; pres_proof = None }
    ~payor_account:authority.Standing.drawn_from.Principal.Account.account ~account
    ~currency:authority.Standing.currency ~amount

let standing_debit net ~creds ~authority ~to_account ~amount =
  standing_call "proxy-debit" net ~creds ~authority ~account:to_account ~amount

let standing_release net ~creds ~authority ~from_account ~amount =
  standing_call "proxy-release" net ~creds ~authority ~account:from_account ~amount

let seq_advance ?retry ?via net ~creds ~key ~progress ~expires ~tag =
  match
    Secure_rpc.call net ~creds ?retry ?via
      (Wire.L [ Wire.S "seq-advance"; Wire.S key; Wire.I progress; Wire.I expires; Wire.S tag ])
  with
  | Ok _ -> Ok ()
  | Error e -> Error e

let push_bulletin ?via net ~creds b =
  match
    Secure_rpc.call net ~creds ?via (Wire.L [ Wire.S "apply-bulletin"; Revocation.to_wire b ])
  with
  | Error e -> Error e
  | Ok reply -> Result.map (fun n -> n = 1) (Wire.to_int reply)

let verify_certification ~lookup ~now ~server ~check_number proxy =
  match proxy.Proxy.flavor with
  | Proxy.Conventional _ | Proxy.Hybrid _ -> Error "certification proxy must be public-key"
  | Proxy.Public_key certs -> (
      match Verifier.verify_pk ~lookup ~now certs with
      | Error e -> Error e
      | Ok verified ->
          if not (Principal.equal verified.Verifier.grantor server) then
            Error "certification proxy not issued by the expected accounting server"
          else
            let req =
              Restriction.request ~server ~time:now ~operation:"verify"
                ~target:("certified:" ^ check_number) ()
            in
            Restriction.check_all verified.Verifier.restrictions req)
