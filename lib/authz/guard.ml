let log_src = Logs.Src.create "authz.guard" ~doc:"end-server authorization decisions"

module Log = (val Logs.src_log log_src : Logs.LOG)

type t = {
  net : Sim.Net.t;
  me : Principal.t;
  tickets : Ticket.holder;
  lookup_pub : Principal.t -> Crypto.Rsa.public option;
  decrypt : string -> string option;
  max_skew_us : int;
  acl : Acl.t;
  replay : Replay_cache.t;
  seq : Seq_tracker.t;
  verify_cache : Verify_cache.t;
  revocation : Revocation.t option;
  mutable seq_observer :
    (key:string -> progress:int -> expires:int -> tag:string -> unit) option;
  mutable seq_forward :
    (server:Principal.t -> key:string -> progress:int -> expires:int -> tag:string -> unit)
    option;
}

let create net ~me ~my_key ?(lookup_pub = fun _ -> None) ?my_rsa
    ?(max_skew_us = 5 * 60 * 1_000_000) ?verify_cache ?revocation ~acl () =
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
  {
    net;
    me;
    tickets = Ticket.holder my_key;
    lookup_pub;
    decrypt;
    max_skew_us;
    acl;
    replay = Replay_cache.create ~on_evict:(incr "replay_cache.evictions") ();
    seq = Seq_tracker.create ~on_evict:(incr "seq_tracker.evictions") ();
    verify_cache;
    revocation;
    seq_observer = None;
    seq_forward = None;
  }

let me t = t.me
let acl t = t.acl
let replay_cache t = t.replay
let seq_tracker t = t.seq
let set_seq_observer t f = t.seq_observer <- f
let set_seq_forward t f = t.seq_forward <- f
let verify_cache t = t.verify_cache
let revocation t = t.revocation

type presented = { pres : Proxy.presentation; pres_proof : Presentation.proof option }

let presented_to_wire p =
  let proof =
    match p.pres_proof with None -> Wire.L [] | Some pr -> Presentation.proof_to_wire pr
  in
  Wire.L [ Proxy.presentation_to_wire p.pres; proof ]

let presented_of_wire v =
  let open Wire in
  let* pw = field v 0 in
  let* pres = Proxy.presentation_of_wire pw in
  let* proof_w = field v 1 in
  match proof_w with
  | Wire.L [] -> Ok { pres; pres_proof = None }
  | _ ->
      let* proof = Presentation.proof_of_wire proof_w in
      Ok { pres; pres_proof = Some proof }

let present ~proxy ~time ~server ~operation ?(target = "") ?spend () =
  let req = Restriction.request ~server ~time ~operation ~target ?spend () in
  {
    pres = Proxy.presentation proxy;
    pres_proof =
      Presentation.prove ~key:proxy.Proxy.key ~time
        ~request_digest:(Presentation.digest_request req);
  }

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
      (match Restriction.check_all rs req with
      | Ok () -> Ok ()
      | Error e -> Error (Printf.sprintf "refused by credential restriction: %s" e))

type decision = {
  granted_by : Acl.subject;
  acting_for : Principal.t list;
  via_groups : Principal.Group.t list;
  serials_used : string list;
  restrictions_used : Restriction.t list;
}

(* Everything the guard learned about one successfully verified and
   authorized proxy. *)
type usable = {
  u_grantor : Principal.t;
  u_restrictions : Restriction.t list;
  u_expires : int;
  u_serials : string list;
}

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
            let shed = shed_killed "replay_cache.shed" (Replay_cache.shed t.replay) in
            ignore (shed_killed "seq_tracker.shed" (Seq_tracker.shed t.seq));
            Sim.Trace.record (Sim.Net.trace t.net) ~time:(Sim.Net.now t.net)
              ~actor:(Principal.to_string t.me)
              (Printf.sprintf
                 "applied revocation bulletin epoch %d (%d new entries, %d cached chains \
                  invalidated, %d replay records shed)"
                 (Revocation.epoch r) fresh retired shed)
          end;
          Ok true)

(* Verify a presented proxy and check it authorizes [req]; [Ok usable] if it
   contributes its grantor's authority to the request. *)
let evaluate t ~req (p : presented) =
  match
    let now = req.Restriction.time in
    Verifier.verify ~open_base:(open_base t ~now) ~lookup:t.lookup_pub ~decrypt:t.decrypt
      ~me:t.me ~tally:(tally t) ~cache:t.verify_cache ?revocation:t.revocation
      ?hook:(span_hook t) ~now p.pres
  with
  | Error e -> Error e
  | Ok verified -> (
      match
        Verifier.authorize verified ~req ~proof:p.pres_proof ~max_skew:t.max_skew_us
      with
      | Error e -> Error e
      | Ok () ->
          Ok
            {
              u_grantor = verified.Verifier.grantor;
              u_restrictions = verified.Verifier.restrictions;
              u_expires = verified.Verifier.expires;
              u_serials = verified.Verifier.serials;
            })

(* Groups named in the ACL that this group proxy could possibly assert. *)
let candidate_groups t =
  List.concat_map
    (fun target ->
      List.filter_map
        (fun (e : Acl.entry) ->
          let rec groups_of = function
            | Acl.Group g -> [ g ]
            | Acl.Compound subs -> List.concat_map groups_of subs
            | Acl.Principal_is _ | Acl.Anyone -> []
          in
          match groups_of e.Acl.subject with [] -> None | gs -> Some gs)
        (Acl.entries_for t.acl ~target)
      |> List.concat)
    (Acl.targets t.acl)

let accept_once_ids restrictions =
  List.filter_map
    (function Restriction.Accept_once id -> Some id | _ -> None)
    restrictions

(* Like accept-once consumption, sequence advancement reads only the
   chain's top-level restrictions: a limit-scoped sequence is checked by
   the servers it names but never advanced here. *)
let top_sequences restrictions =
  List.filter_map
    (function Restriction.Sequence steps -> Some steps | _ -> None)
    restrictions

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
            Seq_tracker.set_progress t.seq ~now:(Sim.Net.now t.net) ~expires ~tag key
              progress;
            Sim.Metrics.incr (Sim.Net.metrics t.net) "seq_tracker.imports";
            (match t.seq_observer with
            | Some f -> f ~key ~progress ~expires ~tag
            | None -> ());
            Ok ())

let decide t ~operation ?(target = "") ?presenter ?(extra_presenters = []) ?(proxies = [])
    ?(group_proxies = []) ?spend () =
  let sp = Sim.Net.spans t.net in
  Sim.Span.with_span sp ~actor:(Principal.to_string t.me) ~kind:"guard.decide"
    ~attrs:[ ("operation", operation); ("target", target) ]
  @@ fun () ->
  Sim.Metrics.incr (Sim.Net.metrics t.net) "guard.decisions";
  let result =
  let now = Sim.Net.now t.net in
  let presenters = Option.to_list presenter @ extra_presenters in
  let seen id = Replay_cache.seen t.replay ~now id in
  (* Pass 1: which groups do the group proxies prove?  A group proxy is used
     with operation "assert-membership" on the group's local name. *)
  let asserted =
    List.concat_map
      (fun gp ->
        List.filter_map
          (fun (g : Principal.Group.t) ->
            let req =
              Restriction.request ~server:t.me ~time:now ~operation:"assert-membership"
                ~target:g.Principal.Group.group ~presenters
                ~claimed_memberships:[ g.Principal.Group.group ] ~accept_once_seen:seen ()
            in
            match evaluate t ~req gp with
            | Ok u when Principal.equal u.u_grantor g.Principal.Group.server -> Some (g, u)
            | Ok _ | Error _ -> None)
          (candidate_groups t))
      group_proxies
  in
  let groups_asserted = List.map fst asserted in
  (* Pass 2: which grantors do the regular proxies contribute for this
     operation? *)
  let req =
    Restriction.request ~server:t.me ~time:now ~operation ~target ~presenters ~groups_asserted
      ?spend ~accept_once_seen:seen
      ~sequence_progress:(fun key -> Seq_tracker.progress t.seq ~now key)
      ()
  in
  let contributions = List.map (fun p -> evaluate t ~req p) proxies in
  let usable = List.filter_map Result.to_option contributions in
  let facts =
    {
      Acl.principals = presenters @ List.map (fun u -> u.u_grantor) usable;
      groups = groups_asserted;
    }
  in
  match Acl.find_permitting t.acl ~target ~operation facts with
  | None ->
      Log.debug (fun m ->
          m "%s: DENY %s on %S (presenters=%d proxies=%d/%d usable groups=%d)"
            (Principal.to_string t.me) operation target (List.length presenters)
            (List.length usable) (List.length proxies) (List.length groups_asserted));
      let detail =
        match (proxies, contributions) with
        | _ :: _, _ when usable = [] ->
            let first_error =
              List.find_map (function Error e -> Some e | Ok _ -> None) contributions
            in
            Printf.sprintf " (no presented proxy was usable: %s)"
              (Option.value first_error ~default:"?")
        | _ -> ""
      in
      Error (Printf.sprintf "access denied: no ACL entry permits %s on %S%s" operation target detail)
  | Some entry -> (
      (* Enforce any restrictions recorded on the ACL entry itself. *)
      match Restriction.check_all entry.Acl.restrictions req with
      | Error e -> Error (Printf.sprintf "access denied by ACL entry restriction: %s" e)
      | Ok () ->
          (* Work out which proxies actually contributed to satisfying the
             entry, and consume their accept-once identifiers. *)
          let rec contributors subject =
            match subject with
            | Acl.Anyone -> ([], [])
            | Acl.Principal_is p ->
                if List.exists (Principal.equal p) presenters then ([], [])
                else
                  (Option.to_list (List.find_opt (fun u -> Principal.equal u.u_grantor p) usable), [])
            | Acl.Group g -> (
                match List.find_opt (fun (g', _) -> Principal.Group.equal g g') asserted with
                | Some (_, u) -> ([ u ], [ g ])
                | None -> ([], []))
            | Acl.Compound subs ->
                let parts = List.map contributors subs in
                (List.concat_map fst parts, List.concat_map snd parts)
          in
          let used, via_groups = contributors entry.Acl.subject in
          List.iter
            (fun u ->
              List.iter
                (fun id ->
                  match
                    Replay_cache.record t.replay ~now ~expires:u.u_expires
                      ~tag:(Principal.to_string u.u_grantor) id
                  with
                  | Ok () -> ()
                  | Error _ -> () (* already checked by accept_once_seen *))
                (accept_once_ids u.u_restrictions))
            used;
          (* Advance each distinct sequence a used chain carries: its check
             just matched this operation at the current step, so the step is
             consumed. Keys dedup across chains — derivations of one grant
             share a head serial and must advance once, not once per copy. *)
          let advanced = ref [] in
          List.iter
            (fun u ->
              match u.u_serials with
              | [] -> ()
              | head :: _ ->
                  List.iter
                    (fun steps ->
                      let canon = Restriction.seq_canonical steps in
                      let key = Restriction.seq_key ~head canon in
                      if not (List.mem key !advanced) then begin
                        advanced := key :: !advanced;
                        let tag = Principal.to_string u.u_grantor in
                        let k =
                          Seq_tracker.advance t.seq ~now ~expires:u.u_expires ~tag key
                        in
                        Sim.Metrics.incr (Sim.Net.metrics t.net) "seq_tracker.advances";
                        (match t.seq_observer with
                        | Some f -> f ~key ~progress:k ~expires:u.u_expires ~tag
                        | None -> ());
                        match t.seq_forward with
                        | Some f when k < List.length steps -> (
                            (* The next step belongs to another server: hand
                               the progress over so the sequence can continue
                               there. *)
                            match (List.nth steps k).Restriction.step_server with
                            | Some s when not (Principal.equal s t.me) ->
                                f ~server:s ~key ~progress:k ~expires:u.u_expires ~tag
                            | Some _ | None -> ())
                        | Some _ | None -> ()
                      end)
                    (top_sequences u.u_restrictions))
            used;
          let decision =
            {
              granted_by = entry.Acl.subject;
              acting_for = List.map (fun u -> u.u_grantor) used;
              via_groups;
              serials_used = List.concat_map (fun u -> u.u_serials) used;
              restrictions_used = List.concat_map (fun u -> u.u_restrictions) used;
            }
          in
          Log.debug (fun m ->
              m "%s: GRANT %s on %S via %s" (Principal.to_string t.me) operation target
                (Format.asprintf "%a" Acl.pp_subject entry.Acl.subject));
          Sim.Trace.record (Sim.Net.trace t.net) ~time:now ~actor:(Principal.to_string t.me)
            (Printf.sprintf "granted %s on %S to %s via [%s]%s" operation target
               (match presenter with Some p -> Principal.to_string p | None -> "<anonymous>")
               (Format.asprintf "%a" Acl.pp_subject entry.Acl.subject)
               (match decision.acting_for with
               | [] -> ""
               | ps -> " acting-for " ^ String.concat "," (List.map Principal.to_string ps)));
          Ok decision)
  in
  Sim.Span.add_attr sp "verdict" (match result with Ok _ -> "grant" | Error _ -> "deny");
  result
