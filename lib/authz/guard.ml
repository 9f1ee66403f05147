let log_src = Logs.Src.create "authz.guard" ~doc:"end-server authorization decisions"

module Log = (val Logs.src_log log_src : Logs.LOG)

type change =
  | Accept_once of { id : string; expires : int; tag : string }
  | Seq_progress of { key : string; progress : int; expires : int; tag : string }

type t = {
  net : Sim.Net.t;
  me : Principal.t;
  tickets : Ticket.holder;
  lookup_pub : Principal.t -> Crypto.Rsa.public option;
  decrypt : string -> string option;
  acl : Acl.t;
  accepted : unit Expiring.t;  (* accept-once identifiers (Section 7.7) *)
  progress : int Expiring.t;  (* Sequence progress, by Restriction.seq_key *)
  verify_cache : Verify_cache.t;
  revocation : Revocation.t option;
  mutable journal : (change -> unit) option;
  mutable seq_forward :
    (server:Principal.t -> key:string -> progress:int -> expires:int -> tag:string -> unit)
    option;
}

let create net ~me ~my_key ?(lookup_pub = fun _ -> None) ?my_rsa ?verify_cache ?revocation
    ~acl () =
  let decrypt =
    match my_rsa with None -> fun _ -> None | Some key -> Crypto.Rsa.decrypt key
  in
  let incr name () = Sim.Metrics.incr (Sim.Net.metrics net) name in
  let verify_cache =
    match verify_cache with
    | Some c -> c
    | None ->
        Verify_cache.create
          ~on_evict:(incr "verify_cache.evictions")
          ~on_invalidate:(incr "verify_cache.invalidations")
          ()
  in
  let guarantees counter = Expiring.create ~on_evict:(incr counter) ~capacity:(1 lsl 17) () in
  {
    net;
    me;
    tickets = Ticket.holder my_key;
    lookup_pub;
    decrypt;
    acl;
    accepted = guarantees "replay_cache.evictions";
    progress = guarantees "seq_tracker.evictions";
    verify_cache;
    revocation;
    journal = None;
    seq_forward = None;
  }

let me t = t.me
let acl t = t.acl
let accepted t = t.accepted
let progress t = t.progress
let set_journal t j = t.journal <- j
let set_seq_forward t f = t.seq_forward <- f
let verify_cache t = t.verify_cache
let revocation t = t.revocation

let note t c = match t.journal with None -> () | Some j -> j c

(* Accept-once records and sequence progress move only through here, and
   the journal sees each change that moved a table, in order. An
   accept-once record that is already live does not move. Progress is
   max-monotone: concurrent advancement, replicated imports and
   retransmitted forwards can only move a sequence forward, a change at
   or behind the line does not move it, and re-advancing a live key
   updates it in place. *)
let apply_change t ~now c =
  let moved =
    match c with
    | Accept_once { id; expires; tag } ->
        let fresh = Option.is_none (Expiring.find t.accepted ~now id) in
        if fresh then Expiring.add t.accepted ~now ~expires ~tag id ();
        fresh
    | Seq_progress { key; progress; expires; tag } ->
        let ahead = progress > Option.value (Expiring.find t.progress ~now key) ~default:0 in
        if ahead then Expiring.add t.progress ~now ~expires ~tag key progress;
        ahead
  in
  if moved then note t c

type presented = { pres : Proxy.presentation; pres_binding : string option }

let presented_to_wire p =
  let binding = match p.pres_binding with None -> Wire.L [] | Some b -> Wire.S b in
  Wire.L [ Proxy.presentation_to_wire p.pres; binding ]

let presented_of_wire_with ~pk_cert v =
  let open Wire in
  match v with
  | L [ pres; (L [] | S _ as binding) ] ->
      let* pres = Proxy.presentation_of_wire_with ~pk_cert pres in
      Ok { pres; pres_binding = (match binding with S b -> Some b | _ -> None) }
  | _ -> Error "presented proxy: malformed"

let presented_of_wire = presented_of_wire_with ~pk_cert:Proxy_cert.pk_cert_of_wire

let decode_presented t =
  presented_of_wire_with
    ~pk_cert:(Verify_cache.decode_cert t.verify_cache ~now:(Sim.Net.now t.net))

let bind ~server ~ticket proxy =
  {
    pres = Proxy.presentation proxy;
    pres_binding = Presentation.bind proxy.Proxy.key ~server ~ticket;
  }

(* The holder's bindings are keyed by the proxy key that made them: each
   certificate mints a fresh key, so the key names the chain. *)
let present ~creds proxy =
  let id =
    match proxy.Proxy.key with
    | Proxy.Sym k -> Some k
    | Proxy.Keypair kp -> Some (Crypto.Rsa.public_to_bytes kp.Crypto.Rsa.pub)
    | Proxy.No_key -> None
  in
  match Option.map (fun id -> (id, Hashtbl.find_opt creds.Ticket.cred_bindings id)) id with
  | None -> { pres = Proxy.presentation proxy; pres_binding = None }
  | Some (_, Some b) -> { pres = Proxy.presentation proxy; pres_binding = Some b }
  | Some (id, None) ->
      let p =
        bind ~server:creds.Ticket.cred_service
          ~ticket:(Ticket.digest creds.Ticket.ticket_blob) proxy
      in
      Option.iter (Hashtbl.replace creds.Ticket.cred_bindings id) p.pres_binding;
      p

let presentations ~creds proxies =
  Wire.L (List.map (fun p -> presented_to_wire (present ~creds p)) proxies)

let restrictions_of_auth_data auth_data =
  List.map
    (fun v ->
      match Restriction.of_wire v with
      | Ok r -> r
      | Error _ -> Restriction.Unknown "malformed-authorization-data")
    auth_data

let transport_ok ~me ~now ~auth_data ~operation ?(target = "") ?spend () =
  match restrictions_of_auth_data auth_data with
  | [] -> Ok ()
  | rs ->
      let req = Restriction.request ~server:me ~time:now ~operation ~target ?spend () in
      (match Restriction.check_all ~held:Restriction.no_state rs req with
      | Ok _ -> Ok ()
      | Error e -> Error (Printf.sprintf "refused by credential restriction: %s" e))

type decision = {
  granted_by : Acl.entry;
  acting_for : Principal.t list;
  via_groups : Principal.Group.t list;
  serials_used : string list;
  quotas : (Restriction.currency * int) list;
}

(* A verified chain that answered one question (a group it claims, or the
   request), and what a grant it contributes to writes: what [held]
   checked, in order. *)
type usable = { chain : Verifier.verified; changes : change list }

let tally t name = Sim.Metrics.incr (Sim.Net.metrics t.net) name

let open_base t ~now blob =
  match Ticket.open_held t.tickets ~now ~tally:(tally t) blob with
  | Error e -> Error e
  | Ok { Ticket.ticket; _ } ->
      if not (Principal.equal ticket.Ticket.service t.me) then
        Error "base ticket is for a different service"
      else
        Ok
          {
            Verifier.base_client = ticket.Ticket.client;
            base_session_key = ticket.Ticket.session_key;
            base_expires = ticket.Ticket.expires;
            base_restrictions = restrictions_of_auth_data ticket.Ticket.authorization_data;
          }

(* When the net is traced, hand the verifier a wrapper that opens one child
   span per certificate of the chain — each link's RSA / cache-hit cost
   lands on its own span, and resolver lookups nest underneath. *)
let span_hook t =
  match Sim.Net.spans t.net with
  | None -> None
  | Some _ as sp ->
      Some
        {
          Verifier.wrap =
            (fun ~name ~attrs f ->
              Sim.Span.with_span sp ~actor:(Principal.to_string t.me) ~kind:name ~attrs f);
        }

(* A bulletin that actually extends revocation coverage clears the whole
   verify cache: an entry does not say which serials its chains carry (a
   sealed link names none until it is opened), so the chains depending on
   a freshly revoked link cannot be enumerated — everything is invalidated
   in one bump and honest traffic re-verifies. A heartbeat bulletin (same
   entries, newer epoch) only refreshes the staleness anchor and leaves
   the cache warm. The table of opened base tickets is kept: a bulletin
   revokes certificates, not tickets, and a ticket's expiry is checked on
   every presentation. *)
let apply_bulletin t bulletin =
  match t.revocation with
  | None -> Error "guard has no revocation state configured"
  | Some r -> (
      match Revocation.apply r bulletin with
      | Error _ as e -> e
      | Ok Revocation.Ignored -> Ok false
      | Ok (Revocation.Applied { fresh; fresh_entries }) ->
          tally t "revocation.bulletins_applied";
          if fresh > 0 then begin
            let retired = Verify_cache.bump_generation t.verify_cache in
            Sim.Metrics.incr (Sim.Net.metrics t.net) "verify_cache.generation_bumps";
            (* Shed the freshly killed grantors' accept-once records: their
               credentials can no longer verify, so the records only burn
               capacity — and a re-issued credential (same check number,
               fresh post-revocation grant) must not collide with the dead
               grant's entry. Entries recorded for grantors that stay valid
               (or are re-recorded after re-issue) are untouched; only the
               grantors newly covered by THIS bulletin are swept. Sequence
               progress is keyed like the accept-once records and dies with
               its grantor for the same reason: a fresh post-revocation
               grant of the same sequence must restart at step one. *)
            let killed =
              List.filter_map
                (function
                  | Revocation.By_grantor_epoch { grantor; _ } ->
                      Some (Principal.to_string grantor)
                  | Revocation.By_serial _ -> None)
                fresh_entries
            in
            let shed_killed counter shed =
              let n = List.fold_left (fun n tag -> n + shed ~tag) 0 killed in
              if n > 0 then Sim.Metrics.add (Sim.Net.metrics t.net) counter n;
              n
            in
            let shed = shed_killed "replay_cache.shed" (Expiring.shed t.accepted) in
            ignore (shed_killed "seq_tracker.shed" (Expiring.shed t.progress));
            Sim.Trace.record (Sim.Net.trace t.net) ~time:(Sim.Net.now t.net)
              ~actor:(Principal.to_string t.me)
              (Printf.sprintf
                 "applied revocation bulletin epoch %d (%d new entries, %d cached chains \
                  invalidated, %d replay records shed)"
                 (Revocation.epoch r) fresh retired shed)
          end;
          Ok true)

(* The guard's [held] for one verified chain: one lookup per stateful
   restriction, under the grantor's tag and the head certificate's expiry
   (a later link is the presenter's to write, and a short one must not let
   a record lapse while the grant still verifies through a longer one). A
   live record is a replay, or for a sequence the progress the request
   must follow. A record that may have been evicted while live cannot be
   shown unspent, so it is refused (fail closed). An absent one passes.
   What it returns is the change a grant writes. *)
let held t ~req (v : Verifier.verified) stateful =
  let now = req.Restriction.time and expires = v.Verifier.head_expires in
  let tag = Principal.to_string v.Verifier.grantor in
  match stateful with
  | Restriction.Once id -> (
      match Expiring.lookup t.accepted ~now ~expires ~tag id with
      | Expiring.Live () -> Error (Printf.sprintf "accept-once: %s already used" id)
      | Expiring.Forgotten -> Error "accept-once: record forgotten under capacity pressure"
      | Expiring.Absent -> Ok (Accept_once { id; expires; tag }))
  | Restriction.Steps steps -> (
      let head = match v.Verifier.serials with head :: _ -> head | [] -> "" in
      let key = Restriction.seq_key ~head (Restriction.seq_canonical steps) in
      let next done_ =
        Result.map
          (fun () -> Seq_progress { key; progress = done_ + 1; expires; tag })
          (Restriction.seq_next steps ~done_ req)
      in
      match Expiring.lookup t.progress ~now ~expires ~tag key with
      | Expiring.Live done_ -> next done_
      | Expiring.Forgotten -> Error "sequence: progress forgotten under capacity pressure"
      | Expiring.Absent -> next 0)

(* Cross-server progress import (the receiving half of [seq_forward]): the
   key is self-describing, so we re-derive the sequence it claims to
   advance and insist the authenticated [caller] is the server the
   just-completed step named — only the server that granted step k-1 may
   attest progress k. Max-monotone storage makes retransmissions and
   replica replays harmless. *)
let import_seq_progress t ~caller ~key ~progress ~expires ~tag =
  match Restriction.seq_key_parse key with
  | Error e -> Error (Printf.sprintf "seq-advance refused: %s" e)
  | Ok (_head, steps) ->
      if progress < 1 || progress > List.length steps then
        Error "seq-advance refused: progress out of range"
      else (
        match (List.nth steps (progress - 1)).Restriction.step_server with
        | None -> Error "seq-advance refused: attested step names no server"
        | Some s when not (Principal.equal s caller) ->
            Error
              (Printf.sprintf "seq-advance refused: %s did not run step %d"
                 (Principal.to_string caller) (progress - 1))
        | Some _ ->
            apply_change t ~now:(Sim.Net.now t.net)
              (Seq_progress { key; progress; expires; tag });
            Sim.Metrics.incr (Sim.Net.metrics t.net) "seq_tracker.imports";
            Ok ())

(* After a step is granted here, hand the new progress to the server the
   sequence's next step names, when that is another server. The key is
   self-describing, so the steps come back out of it. *)
let forward t ~key ~progress ~expires ~tag =
  match t.seq_forward with
  | None -> ()
  | Some f -> (
      match Restriction.seq_key_parse key with
      | Ok (_, steps) when progress < List.length steps -> (
          match (List.nth steps progress).Restriction.step_server with
          | Some s when not (Principal.equal s t.me) -> f ~server:s ~key ~progress ~expires ~tag
          | Some _ | None -> ())
      | Ok _ | Error _ -> ())

let decide t ~operation ?(target = "") ?presenter ?(extra_presenters = []) ?ticket
    ?(proxies = []) ?(group_proxies = []) ?spend () =
  let sp = Sim.Net.spans t.net in
  let run () =
    Sim.Metrics.incr (Sim.Net.metrics t.net) "guard.decisions";
    let result =
    let now = Sim.Net.now t.net in
    let presenters = Option.to_list presenter @ extra_presenters in
    let verify (p : presented) =
      Verifier.verify ~open_base:(open_base t ~now) ~lookup:t.lookup_pub ~decrypt:t.decrypt
        ~me:t.me ~tally:(tally t) ~cache:t.verify_cache ?revocation:t.revocation
        ?hook:(span_hook t) ~now p.pres
    in
    let authorize ~req (p : presented) v =
      Result.map
        (fun changes -> { chain = v; changes })
        (Verifier.authorize ~tally:(tally t) ~cache:t.verify_cache ~held:(held t ~req v) v ~req
           ~ticket ~binding:p.pres_binding)
    in
    (* A group proxy proves the groups it names, at its grantor's server:
       it is verified once, then asked once per group it claims. *)
    let memberships =
      List.concat_map
        (fun gp ->
          match verify gp with
          | Error e -> [ Error e ]
          | Ok v ->
              List.map
                (fun group ->
                  let req =
                    Restriction.request ~server:t.me ~time:now
                      ~operation:Restriction.assert_membership ~target:group ~presenters ()
                  in
                  Result.map
                    (fun u -> (Principal.Group.make ~server:v.Verifier.grantor group, u))
                    (authorize ~req gp v))
                (Restriction.claimed_groups v.Verifier.restrictions))
        group_proxies
    in
    let asserted = List.filter_map Result.to_option memberships in
    let groups_asserted = List.map fst asserted in
    let req =
      Restriction.request ~server:t.me ~time:now ~operation ~target ~presenters ~groups_asserted
        ?spend ()
    in
    let contributions = List.map (fun p -> Result.bind (verify p) (authorize ~req p)) proxies in
    let usable = List.filter_map Result.to_option contributions in
    let facts =
      {
        Acl.principals = presenters @ List.map (fun u -> u.chain.Verifier.grantor) usable;
        groups = groups_asserted;
      }
    in
    match Acl.permitting t.acl ~target ~operation facts with
    | [] ->
        Log.debug (fun m ->
            m "%s: DENY %s on %S (presenters=%d proxies=%d/%d usable groups=%d)"
              (Principal.to_string t.me) operation target (List.length presenters)
              (List.length usable) (List.length proxies) (List.length groups_asserted));
        (* A refusal is cited only when nothing of its kind was usable: a
           group proxy's only when no group was asserted either. *)
        let refusal = function Error e -> Some e | Ok _ -> None in
        let group_refusals = if asserted = [] then List.filter_map refusal memberships else [] in
        let detail =
          match List.filter_map refusal contributions @ group_refusals with
          | e :: _ when usable = [] -> Printf.sprintf " (no presented proxy was usable: %s)" e
          | _ -> ""
        in
        Error (Printf.sprintf "access denied: no ACL entry permits %s on %S%s" operation target detail)
    | first :: others -> (
        (* The first entry whose own restrictions pass grants; when none
           does, the first one's refusal is the reason. *)
        let check e = Restriction.check_all ~held:Restriction.no_state e.Acl.restrictions req in
        let passes e = Result.is_ok (check e) in
        let chosen =
          match check first with
          | Ok _ -> Ok first
          | Error e -> Option.to_result ~none:e (List.find_opt passes others)
        in
        match chosen with
        | Error e -> Error (Printf.sprintf "access denied by ACL entry restriction: %s" e)
        | Ok entry ->
            (* Work out which proxies actually contributed to satisfying the
               entry, and write what their [held] checked. *)
            let rec contributors subject =
              match subject with
              | Acl.Anyone -> ([], [])
              | Acl.Principal_is p ->
                  if List.exists (Principal.equal p) presenters then ([], [])
                  else
                    let from_p u = Principal.equal u.chain.Verifier.grantor p in
                    (Option.to_list (List.find_opt from_p usable), [])
              | Acl.Group g -> (
                  match List.find_opt (fun (g', _) -> Principal.Group.equal g g') asserted with
                  | Some (_, u) -> ([ u ], [ g ])
                  | None -> ([], []))
              | Acl.Compound subs ->
                  let parts = List.map contributors subs in
                  (List.concat_map fst parts, List.concat_map snd parts)
            in
            let used, via_groups = contributors entry.Acl.subject in
            (* Accept-once records, and one step of each distinct sequence
               line: chains derived from one grant share a head serial, so a
               line they share advances once, not once per copy. *)
            let advanced = ref [] in
            List.iter
              (fun u ->
                List.iter
                  (function
                    | Accept_once _ as c -> apply_change t ~now c
                    | Seq_progress { key; progress; expires; tag } as c ->
                        if not (List.mem key !advanced) then begin
                          advanced := key :: !advanced;
                          apply_change t ~now c;
                          Sim.Metrics.incr (Sim.Net.metrics t.net) "seq_tracker.advances";
                          forward t ~key ~progress ~expires ~tag
                        end)
                  u.changes)
              used;
            let decision =
              {
                granted_by = entry;
                acting_for = List.map (fun u -> u.chain.Verifier.grantor) used;
                via_groups;
                serials_used = List.concat_map (fun u -> u.chain.Verifier.serials) used;
                quotas =
                  List.concat_map
                    (fun u ->
                      List.filter_map
                        (function Restriction.Quota (c, n) -> Some (c, n) | _ -> None)
                        u.chain.Verifier.restrictions)
                    used;
              }
            in
            Log.debug (fun m ->
                m "%s: GRANT %s on %S via %s" (Principal.to_string t.me) operation target
                  (Format.asprintf "%a" Acl.pp_subject entry.Acl.subject));
            (* Who was granted, and on whose authority, rides on this span; an
               untraced grant formats none of it ([add_attr] would still
               evaluate its arguments). *)
            if Option.is_some sp then begin
              Sim.Span.add_attr sp "presenter"
                (match presenter with Some p -> Principal.to_string p | None -> "<anonymous>");
              Sim.Span.add_attr sp "granted_by"
                (Format.asprintf "%a" Acl.pp_subject entry.Acl.subject);
              Sim.Span.add_attr sp "acting_for"
                (String.concat "," (List.map Principal.to_string decision.acting_for))
            end;
            Ok decision)
    in
    Sim.Span.add_attr sp "verdict" (match result with Ok _ -> "grant" | Error _ -> "deny");
    result
  in
  (* Untraced, the span's actor and attributes are never built. *)
  match sp with
  | None -> run ()
  | Some _ ->
      Sim.Span.with_span sp ~actor:(Principal.to_string t.me) ~kind:"guard.decide"
        ~attrs:[ ("operation", operation); ("target", target) ]
        run
