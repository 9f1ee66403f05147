let escrow_account = "cashier-escrow"

let ( let* ) = Result.bind

(* Lifetime of what this server signs: endorsements, certification
   proxies and cashier's checks. *)
let proxy_lifetime_us = 24 * 3600 * 1_000_000

(* Every movement of the state a replica mirrors, in one ordered list. *)
type change =
  | Ledger of Ledger.op
  | Guard of Guard.change
  | Drawn of string * int  (* grant key, its new running total *)

type request =
  | Open_account of { name : string }
  | Balance of { name : string; currency : string }
  | Transfer of { from_ : string; to_ : string; currency : string; amount : int }
  | Deposit of { check : Check.t; to_account : string }
  | Collect of Check.t
  | Certify of Check.t
  | Cashier of { from_account : string; payee : Principal.t; currency : string; amount : int }
  | Seq_advance of { key : string; progress : int; expires : int; tag : string }
  | Proxy_draw of {
      release : bool;
      presented : Guard.presented;
      payor_account : string;
      account : string;
      currency : string;
      amount : int;
    }
  | Apply_bulletin of Revocation.bulletin

(* The one codec for every request: each layout is written once here, and
   [request_of_wire] accepts exactly these shapes, so a request with a
   missing, mistyped or trailing field is refused. *)
let request_to_wire r =
  let open Wire in
  match r with
  | Open_account { name } -> L [ S "open-account"; S name ]
  | Balance { name; currency } -> L [ S "balance"; S name; S currency ]
  | Transfer { from_; to_; currency; amount } ->
      L [ S "transfer"; S from_; S to_; S currency; I amount ]
  | Deposit { check; to_account } -> L [ S "deposit"; Check.to_wire check; S to_account ]
  | Collect check -> L [ S "collect"; Check.to_wire check ]
  | Certify check -> L [ S "certify"; Check.to_wire check ]
  | Cashier { from_account; payee; currency; amount } ->
      L [ S "cashier"; S from_account; Principal.to_wire payee; S currency; I amount ]
  | Seq_advance { key; progress; expires; tag } ->
      L [ S "seq-advance"; S key; I progress; I expires; S tag ]
  | Proxy_draw { release; presented; payor_account; account; currency; amount } ->
      L
        [ S (if release then "proxy-release" else "proxy-debit");
          Guard.presented_to_wire presented; S payor_account; S account; S currency; I amount ]
  | Apply_bulletin b -> L [ S "apply-bulletin"; Revocation.to_wire b ]

let request_of_wire v =
  let open Wire in
  match v with
  | L [ S "open-account"; S name ] -> Ok (Open_account { name })
  | L [ S "balance"; S name; S currency ] -> Ok (Balance { name; currency })
  | L [ S "transfer"; S from_; S to_; S currency; I amount ] ->
      Ok (Transfer { from_; to_; currency; amount })
  | L [ S "deposit"; check; S to_account ] ->
      let* check = Check.of_wire check in
      Ok (Deposit { check; to_account })
  | L [ S "collect"; check ] -> Result.map (fun c -> Collect c) (Check.of_wire check)
  | L [ S "certify"; check ] -> Result.map (fun c -> Certify c) (Check.of_wire check)
  | L [ S "cashier"; S from_account; payee; S currency; I amount ] ->
      let* payee = Principal.of_wire payee in
      Ok (Cashier { from_account; payee; currency; amount })
  | L [ S "seq-advance"; S key; I progress; I expires; S tag ] ->
      Ok (Seq_advance { key; progress; expires; tag })
  | L
      [ S (("proxy-debit" | "proxy-release") as verb); presented; S payor_account; S account;
        S currency; I amount ] ->
      let* presented = Guard.presented_of_wire presented in
      let release = verb = "proxy-release" in
      Ok (Proxy_draw { release; presented; payor_account; account; currency; amount })
  | L [ S "apply-bulletin"; b ] -> Result.map (fun b -> Apply_bulletin b) (Revocation.of_wire b)
  | L (S (( "open-account" | "balance" | "transfer" | "deposit" | "collect" | "certify"
           | "cashier" | "seq-advance" | "proxy-debit" | "proxy-release" | "apply-bulletin" )
           as verb) :: _) ->
      Error (Printf.sprintf "accounting: malformed %s request" verb)
  | L (S other :: _) -> Error (Printf.sprintf "accounting: unknown operation %S" other)
  | _ -> Error "accounting: malformed request"

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
  mutable journal : (change -> unit) option;
  mutable on_redeem : (string -> unit) list;
      (* fired in order with the check number whenever a check is paid
         here (scenario counters) *)
}

let note t c = match t.journal with None -> () | Some j -> j c

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
          journal = None;
          on_redeem = [];
        }
      in
      (* The escrow account backs cashier's checks. *)
      (match Ledger.open_account ledger ~owner:me ~name:escrow_account with
      | Ok () -> ()
      | Error _ -> assert false);
      Acl.add (Guard.acl guard) ~target:escrow_account
        { Acl.subject = Acl.Principal_is me; rights = [ "debit" ]; restrictions = [] };
      Ledger.set_journal ledger (Some (fun op -> note t (Ledger op)));
      Guard.set_journal guard (Some (fun c -> note t (Guard c)));
      Ok t

let set_journal t j = t.journal <- j

(* The running totals move only here, so the journal sees each new value. *)
let set_drawn t key total =
  Hashtbl.replace t.drawn key total;
  note t (Drawn (key, total))

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
  let debit () =
    let presented =
      { Guard.pres = Proxy.presentation check.Check.proxy; pres_binding = None }
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
  in
  (* Untraced, the span's actor and attributes are never built. *)
  match Sim.Net.spans t.net with
  | None -> debit ()
  | Some _ as sp ->
      Sim.Span.with_span sp ~actor:(Principal.to_string t.me) ~kind:"acct.debit"
        ~attrs:
          [
            ("check", check.Check.number);
            ("amount", string_of_int check.Check.amount);
            ("currency", check.Check.currency);
          ]
        debit

(* Forward a check toward its drawee: endorse to the next hop and send a
   collect request (Figure 5's E2 and beyond). *)
let forward_collect t (check : Check.t) =
  let drawee = check.Check.drawn_on.Principal.Account.server in
  let hop, via = next_hop t drawee in
  let forward () =
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
                (request_to_wire (Collect endorsed))
            with
            | Error e -> Error e
            | Ok reply -> Result.bind (Wire.to_int reply) (fun amount -> Ok amount)))
  in
  match Sim.Net.spans t.net with
  | None -> forward ()
  | Some _ as sp ->
      Sim.Span.with_span sp ~actor:(Principal.to_string t.me) ~kind:"acct.forward"
        ~attrs:[ ("check", check.Check.number); ("hop", Principal.to_string hop) ]
        forward

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

(* A deposit's or a collect's span; untraced, its actor and attributes
   are never built. *)
let check_span t ~kind ~client (check : Check.t) f =
  match Sim.Net.spans t.net with
  | None -> f ()
  | Some _ as sp ->
      Sim.Span.with_span sp ~actor:(Principal.to_string t.me) ~kind
        ~attrs:[ ("check", check.Check.number); ("client", Principal.to_string client) ]
        f

let handle t ctx request =
  let client = ctx.Secure_rpc.rpc_client in
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
  match request with
  | Open_account { name } ->
      let* () = Ledger.open_account t.ledger ~owner:client ~name in
      Acl.add (Guard.acl t.guard) ~target:name
        { Acl.subject = Acl.Principal_is client; rights = [ "debit" ]; restrictions = [] };
      trace t "opened account %S for %s" name (Principal.to_string client);
      Ok (Wire.L [])
  | Balance { name; currency } ->
      let* () = transport ~operation:"balance" ~target:name () in
      owner_only name (fun () ->
          Ok
            (Wire.L
               [ Wire.I (Ledger.balance t.ledger ~name ~currency);
                 Wire.I (Ledger.held t.ledger ~name ~currency) ]))
  | Transfer { from_; to_; currency; amount } ->
      let* () = transport ~operation:"transfer" ~target:from_ ~spend:(currency, amount) () in
      owner_only from_ (fun () ->
          let* () = Ledger.transfer t.ledger ~from_ ~to_ ~currency amount in
          trace t "transfer %d %s: %S -> %S" amount currency from_ to_;
          Ok (Wire.L []))
  | Deposit { check; to_account } ->
      Sim.Metrics.incr (Sim.Net.metrics t.net) "accounting.deposits";
      check_span t ~kind:"acct.deposit" ~client check (fun () ->
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
              Ok (Wire.I amount)))
  | Collect check ->
      Sim.Metrics.incr (Sim.Net.metrics t.net) "accounting.collects";
      check_span t ~kind:"acct.collect" ~client check (fun () ->
          let* amount = settle t ~presenter:client check in
          Ok (Wire.I amount))
  | Certify check ->
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
              Proxy.grant_keyless ~drbg:(Sim.Net.drbg t.net) ~now
                ~expires:(now + proxy_lifetime_us) ~grantor:t.me ~grantor_key:t.signing_key
                ~restrictions:
                  [ Restriction.Grantee ([ check.Check.payee ], 1);
                    Restriction.Authorized
                      [ { Restriction.target = "certified:" ^ check.Check.number;
                          ops = [ "verify" ] } ] ]
                ()
            in
            trace t "certified check %s for %d %s" check.Check.number check.Check.amount
              check.Check.currency;
            Ok (Proxy.presentation_to_wire proxy.Proxy.flavor))
  | Cashier { from_account; payee; currency; amount } ->
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
  | Seq_advance { key; progress; expires; tag } ->
      (* Cross-server sequence progress handover: the guard re-derives the
         sequence from the self-describing key and only accepts the push
         when the authenticated caller is the server that ran the attested
         step (see {!Guard.import_seq_progress}). *)
      let* () = Guard.import_seq_progress t.guard ~caller:client ~key ~progress ~expires ~tag in
      trace t "sequence progress %d imported from %s" progress (Principal.to_string client);
      Ok (Wire.L [])
  | Proxy_draw { release; presented; payor_account; account; currency; amount } ->
      (* A draw on a presented delegate proxy (quota allocation, Section 4)
         or its release. The grant's running total is read before the one
         decision, so a draw's spend is the cumulative total and every
         Quota on the chain caps it. A Quota bounds only its own currency,
         so a draw in a currency no Quota names is refused. *)
      let verb = if release then "proxy-release" else "proxy-debit" in
      if amount <= 0 then Error (verb ^ ": amount must be positive")
      else
        owner_only account (fun () ->
            let key = grant_key presented ~currency in
            let already = Option.value (Hashtbl.find_opt t.drawn key) ~default:0 in
            let draw = not release in
            let total = if draw then already + amount else already - amount in
            let* decision =
              Guard.decide t.guard ~operation:"debit" ~target:payor_account ~presenter:client
                ~ticket:ctx.Secure_rpc.rpc_ticket ~proxies:[ presented ]
                ?spend:(if draw then Some (currency, total) else None)
                ()
            in
            (* The caller's own rights may grant the decision without the
               proxy; such a request must not move the total of a grant
               whose certificates anyone can copy. *)
            if decision.Guard.acting_for = [] then
              Error (verb ^ ": the presented proxy did not authorize the request")
            else if draw && not (List.mem_assoc currency decision.Guard.quotas) then
              Error
                (Printf.sprintf "proxy-debit: no Quota on the presented chain names %s" currency)
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
              set_drawn t key total;
              if draw then
                trace t "standing draw: %d %s from %S to %S (cumulative %d)" amount currency
                  from_ to_ total
              else
                trace t "standing release: %d %s back to %S (cumulative %d)" amount currency
                  to_ total;
              Ok (Wire.I total))
  | Apply_bulletin b ->
      (* Bulletins are self-authenticating (authority-signed, monotonic
         epoch), so any authenticated caller may deliver one — the push leg
         of distribution. Replays and stale bulletins are ignored, not
         errors, so a duplicated push is harmless. *)
      let* advanced = Guard.apply_bulletin t.guard b in
      if advanced then
        trace t "revocation bulletin epoch %d applied (pushed by %s)" b.Revocation.epoch
          (Principal.to_string client);
      Ok (Wire.I (if advanced then 1 else 0))

let install t =
  Secure_rpc.serve t.net ~me:t.me ~my_key:t.my_key (fun ctx payload ->
      Result.bind (request_of_wire payload) (handle t ctx))

(* The one codec for everything a replica mirrors. *)
let change_to_wire c =
  let open Wire in
  match c with
  | Ledger (Ledger.Op_open (owner, name)) -> L [ S "open"; Principal.to_wire owner; S name ]
  | Ledger (Ledger.Op_credit (name, cur, n)) -> L [ S "credit"; S name; S cur; I n ]
  | Ledger (Ledger.Op_debit (name, cur, n)) -> L [ S "debit"; S name; S cur; I n ]
  | Ledger (Ledger.Op_hold_put (name, id, cur, n)) -> L [ S "hold"; S name; S id; S cur; I n ]
  | Ledger (Ledger.Op_take (name, id)) -> L [ S "take"; S name; S id ]
  | Guard (Guard.Accept_once { id; expires; tag }) -> L [ S "once"; S id; I expires; S tag ]
  | Guard (Guard.Seq_progress { key; progress; expires; tag }) ->
      L [ S "seq"; S key; I progress; I expires; S tag ]
  | Drawn (key, total) -> L [ S "drawn"; S key; I total ]

let change_of_wire v =
  let open Wire in
  match v with
  | L [ S "open"; owner; S name ] ->
      Result.map (fun owner -> Ledger (Ledger.Op_open (owner, name))) (Principal.of_wire owner)
  | L [ S "credit"; S name; S cur; I n ] -> Ok (Ledger (Ledger.Op_credit (name, cur, n)))
  | L [ S "debit"; S name; S cur; I n ] -> Ok (Ledger (Ledger.Op_debit (name, cur, n)))
  | L [ S "hold"; S name; S id; S cur; I n ] -> Ok (Ledger (Ledger.Op_hold_put (name, id, cur, n)))
  | L [ S "take"; S name; S id ] -> Ok (Ledger (Ledger.Op_take (name, id)))
  | L [ S "once"; S id; I expires; S tag ] -> Ok (Guard (Guard.Accept_once { id; expires; tag }))
  | L [ S "seq"; S key; I progress; I expires; S tag ] ->
      Ok (Guard (Guard.Seq_progress { key; progress; expires; tag }))
  | L [ S "drawn"; S key; I total ] -> Ok (Drawn (key, total))
  | _ -> Error "replication: malformed change"

(* Standby side of replication: apply one of the primary's changes,
   without re-running any handler. An opened account also gets the ACL
   entry the primary's handler installed. *)
let apply_replicated t = function
  | Ledger op ->
      (match op with
      | Ledger.Op_open (owner, name) ->
          Acl.add (Guard.acl t.guard) ~target:name
            { Acl.subject = Acl.Principal_is owner; rights = [ "debit" ]; restrictions = [] }
      | _ -> ());
      Result.map_error (Printf.sprintf "replica diverged: %s") (Ledger.apply t.ledger op)
  | Guard c -> Ok (Guard.apply_change t.guard ~now:(Sim.Net.now t.net) c)
  | Drawn (key, total) -> Ok (set_drawn t key total)

(* --- client side --- *)

(* The operations that take [?retry] stay exactly-once under it: a
   retransmission reuses the same authenticator, so the server's response
   cache guarantees the ledger mutation happens exactly once however often
   the message is re-sent. *)

let call ?retry ?via ?on_failover net ~creds request =
  Secure_rpc.call net ~creds ?retry ?via ?on_failover (request_to_wire request)

let open_account ?retry ?via ?on_failover net ~creds ~name =
  Result.map ignore (call ?retry ?via ?on_failover net ~creds (Open_account { name }))

let balance ?retry ?via ?on_failover net ~creds ~name ~currency =
  match call ?retry ?via ?on_failover net ~creds (Balance { name; currency }) with
  | Ok (Wire.L [ Wire.I available; Wire.I held ]) -> Ok (available, held)
  | Ok _ -> Error "balance: malformed reply"
  | Error e -> Error e

let transfer ?retry ?via ?on_failover net ~creds ~from_ ~to_ ~currency ~amount =
  Result.map ignore
    (call ?retry ?via ?on_failover net ~creds (Transfer { from_; to_; currency; amount }))

let deposit ?retry ?via ?on_failover net ~creds ~endorser_key ~check ~to_account =
  let now = Sim.Net.now net in
  let bank = creds.Ticket.cred_service in
  let* endorsed =
    Check.endorse ~drbg:(Sim.Net.drbg net) ~now ~expires:(now + proxy_lifetime_us)
      ~endorser:creds.Ticket.cred_client ~endorser_key ~next:bank check
  in
  Result.bind
    (call ?retry ?via ?on_failover net ~creds (Deposit { check = endorsed; to_account }))
    Wire.to_int

let certify net ~creds ~check =
  Result.bind (call net ~creds (Certify check)) Proxy.keyless_of_wire

let cashier_check net ~creds ~from_account ~payee ~currency ~amount =
  Result.bind
    (call net ~creds (Cashier { from_account; payee; currency; amount }))
    Check.of_wire

let proxy_call ~release ?retry ?via net ~creds ~proxy ~payor_account ~account ~currency ~amount =
  Result.bind
    (call ?retry ?via net ~creds
       (Proxy_draw
          { release; presented = Guard.present ~creds proxy; payor_account; account; currency;
            amount }))
    Wire.to_int

let proxy_debit ?retry ?via net ~creds ~proxy ~payor_account ~to_account ~currency ~amount =
  proxy_call ~release:false ?retry ?via net ~creds ~proxy ~payor_account ~account:to_account
    ~currency ~amount

let standing_call ~release net ~creds ~(authority : Standing.t) ~account ~amount =
  proxy_call ~release net ~creds ~proxy:authority.Standing.authority
    ~payor_account:authority.Standing.drawn_from.Principal.Account.account ~account
    ~currency:authority.Standing.currency ~amount

let standing_debit net ~creds ~authority ~to_account ~amount =
  standing_call ~release:false net ~creds ~authority ~account:to_account ~amount

let standing_release net ~creds ~authority ~from_account ~amount =
  standing_call ~release:true net ~creds ~authority ~account:from_account ~amount

let seq_advance ?retry ?via net ~creds ~key ~progress ~expires ~tag =
  Result.map ignore (call ?retry ?via net ~creds (Seq_advance { key; progress; expires; tag }))

let push_bulletin ?via net ~creds b =
  Result.bind (call ?via net ~creds (Apply_bulletin b)) (fun reply ->
      Result.map (fun n -> n = 1) (Wire.to_int reply))

let verify_certification ~lookup ~now ~server ~presenter ~check_number proxy =
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
                ~target:("certified:" ^ check_number) ~presenters:[ presenter ] ()
            in
            Result.map ignore
              (Restriction.check_all ~held:Restriction.no_state verified.Verifier.restrictions
                 req))
