(* The executable reference semantics: a pure interpretation of
   authorization programs with no cryptography.  Chains are data, restriction
   satisfaction is a predicate, and the accounting ledger is an int array.

   This mirrors, in a few dozen lines, what the real stack implements with
   sealed/signed certificates, tickets, guards and ledgers:

   - certificate-chain validity (expiry; delegate-cascade signer must be a
     named grantee of the preceding certificate — [Verifier.verify_pk]);
   - restriction accumulation (additive concatenation for conventional and
     hybrid cascades; the pending/discharge rule for public-key delegate
     cascades);
   - restriction satisfaction ([Restriction.check_all]);
   - the guard's decision procedure (ACL entry matching, proxy contribution,
     accept-once and sequence records written only for proxies that
     contributed, wherever the restriction applies at the file server);
   - check clearing at the accounting server (endorsement by the payee,
     accept-once consumed before the debit, bounce on insufficient funds).

   Any disagreement between this model and the real stack is a finding. *)

open Program

type mcheck = { c_payor : int; c_payee : int; c_amount : int; c_id : int }

type link = {
  l_rs : rspec list;
  l_expired : bool;
  l_signer : [ `Auto | `Delegate of int ];
      (** [`Auto]: grantor key at the head, proxy key in a bearer cascade —
          either way the signature always verifies.  [`Delegate d]: user
          [d]'s long-term key; valid only when [d] is a named grantee of the
          preceding certificate. *)
}

type mproxy = {
  m_flavor : flavor;
  m_grantor : int;
  m_root : int;
      (** identity of the head certificate.  Every cascade derived from the
          same grant shares the head, so revoking it by serial — the only
          revocation the program vocabulary expresses — kills exactly the
          slots sharing [m_root], mirroring [Revocation.By_serial] against
          the real chain walk. *)
  m_links : link list (* head first *);
}

type state = {
  mutable slots : mproxy list;  (** creation order *)
  mutable checks : mcheck list;  (** creation order *)
  revoked : bool array;
  revoked_roots : (int, unit) Hashtbl.t;  (** bulletin-revoked head certificates *)
  members : bool array;
  fs_seen : (int, unit) Hashtbl.t;  (** consumed accept-once ids at fs *)
  bank_seen : (int, unit) Hashtbl.t;  (** consumed check numbers at the bank *)
  seq_progress : (int * (string * target) list, int) Hashtbl.t;
      (** sequence progress, keyed (chain head, steps) — the pure mirror of
          the guard's progress table keyed on head serial + canonical form *)
  balances : int array;
}

(* --- restriction satisfaction (mirrors Restriction.check_all) --- *)

type mreq = {
  q_server : server;
  q_operation : string;
  q_target : string;
  q_presenters : int list;
  q_spend : int option;
  q_seen : int -> bool;
  q_seq : (string * target) list -> int;
      (** current progress of a sequence presented on this chain; the
          Present interpreter closes this over the chain's head identity,
          exactly as the guard keys progress by head serial *)
}

let rec distinct_steps = function
  | [] -> true
  | s :: tl -> (not (List.mem s tl)) && distinct_steps tl

let rec rcheck req = function
  | R_grantee us -> List.exists (fun u -> List.mem u req.q_presenters) us
  | R_issued_for ss -> List.mem req.q_server ss
  | R_quota limit -> ( match req.q_spend with Some a -> a <= limit | None -> true)
  | R_authorized es ->
      List.exists
        (fun (t, ops) ->
          target_name t = req.q_target && (ops = [] || List.mem req.q_operation ops))
        es
  | R_accept_once n -> not (req.q_seen n)
  | R_limit (s, rs) -> s <> req.q_server || List.for_all (rcheck req) rs
  | R_sequence steps ->
      (* Empty and duplicate-step sequences fail closed, mirroring
         [Restriction.seq_validate]; otherwise the request must be exactly
         the next unconsumed step. *)
      steps <> []
      && distinct_steps steps
      &&
      let k = req.q_seq steps in
      k < List.length steps
      &&
      let op, t = List.nth steps k in
      op = req.q_operation && target_name t = req.q_target
  | R_unknown -> false

let rcheck_all req rs = List.for_all (rcheck req) rs

let is_grantee = function R_grantee _ -> true | _ -> false

(* Final restriction set of a valid chain, or None when the chain does not
   verify (an expired certificate, or a delegate-cascade signer that the
   preceding certificate did not name). *)
let chain_restrictions (p : mproxy) =
  match p.m_flavor with
  | Conv | Hybrid ->
      if List.exists (fun l -> l.l_expired) p.m_links then None
      else Some (List.concat_map (fun l -> l.l_rs) p.m_links)
  | Pk ->
      let rec walk acc pending = function
        | [] -> Some (acc @ pending)
        | l :: rest ->
            if l.l_expired then None
            else
              let signer_ok =
                match l.l_signer with
                | `Auto -> true
                | `Delegate d ->
                    (* Proxy.classify: the union of every Grantee list of the
                       preceding certificate. *)
                    List.exists
                      (function R_grantee us -> List.mem d us | _ -> false)
                      pending
              in
              if not signer_ok then None
              else
                let discharged =
                  match l.l_signer with `Delegate _ -> [] | `Auto -> pending
                in
                let grantee_rs, other_rs = List.partition is_grantee l.l_rs in
                walk (acc @ discharged @ other_rs) grantee_rs rest
      in
      walk [] [] p.m_links

(* The pending/discharge walk keys off the *previous certificate's* Grantee
   restrictions, so [pending] entering each step is exactly what the real
   verifier consults; the head enters with [pending = []] and [`Auto]. *)

(* The restrictions that bind at [server]: the top level, and inside every
   limit naming it, at any depth. The accept-once ids and sequences among
   them are the ones the guard records. *)
let rec applies server rs =
  List.concat_map
    (function R_limit (s, inner) -> if s = server then applies server inner else [] | r -> [ r ])
    rs

let nth_mod l i = match l with [] -> None | _ -> Some (List.nth l (i mod List.length l))

let run (prog : Program.t) : Program.run =
  let st =
    {
      slots = [];
      checks = [];
      revoked = Array.make n_users false;
      revoked_roots = Hashtbl.create 8;
      members = Array.make n_users false;
      fs_seen = Hashtbl.create 8;
      bank_seen = Hashtbl.create 8;
      seq_progress = Hashtbl.create 8;
      balances = Array.make n_users initial_balance;
    }
  in
  let n_checks = ref 0 in
  let outcome op =
    match op with
    | Grant { grantor; flavor; expired; rs } ->
        st.slots <-
          st.slots
          @ [ { m_flavor = flavor; m_grantor = grantor;
                m_root = List.length st.slots;
                m_links = [ { l_rs = rs; l_expired = expired; l_signer = `Auto } ] } ];
        O_done
    | Derive { slot; expired; rs; delegate } -> (
        match nth_mod st.slots slot with
        | None -> O_skip
        | Some parent ->
            (* A delegate-cascade signature only exists in the public-key
               realization; conventional and hybrid cascades are sealed under
               the previous proxy key. *)
            let signer =
              match (parent.m_flavor, delegate) with
              | Pk, Some d -> `Delegate d
              | _ -> `Auto
            in
            st.slots <-
              st.slots
              @ [ { parent with
                    m_links =
                      parent.m_links @ [ { l_rs = rs; l_expired = expired; l_signer = signer } ] } ];
            O_done)
    | Present { slot; presenter; verb; target } -> (
        let operation = match verb with `Read -> "read" | `Write -> "write" in
        let req =
          {
            q_server = Fs;
            q_operation = operation;
            q_target = target_name target;
            q_presenters = [ presenter ];
            q_spend = None;
            q_seen = Hashtbl.mem st.fs_seen;
            q_seq = (fun _ -> 0);
          }
        in
        match target with
        | Shared ->
            (* shared.dat is guarded by a Group entry only: without a group
               proxy no regular presentation can satisfy it. *)
            O_ok false
        | File owner ->
            if st.revoked.(owner) then O_ok false
            else if presenter = owner then O_ok true
            else (
              match nth_mod st.slots slot with
              | None -> O_ok false
              | Some proxy when Hashtbl.mem st.revoked_roots proxy.m_root ->
                  (* The verifier walks the chain, finds the head serial on
                     the bulletin, and the proxy fails to contribute — the
                     denial is indistinguishable from an invalid chain, and
                     accept-once state is untouched. *)
                  O_ok false
              | Some proxy -> (
                  match chain_restrictions proxy with
                  | None -> O_ok false
                  | Some rs ->
                      (* The chain's head identity keys sequence progress:
                         every cascade of one grant shares the counter. *)
                      let req =
                        { req with
                          q_seq =
                            (fun steps ->
                              Option.value
                                (Hashtbl.find_opt st.seq_progress (proxy.m_root, steps))
                                ~default:0) }
                      in
                      let usable = proxy.m_grantor = owner && rcheck_all req rs in
                      if usable then begin
                        (* The proxy contributed, so each accept-once id
                           that applies here is consumed, and each distinct
                           sequence that applies here advances by exactly
                           one step, however often it appears on the
                           chain. *)
                        let advanced = ref [] in
                        List.iter
                          (function
                            | R_accept_once n -> Hashtbl.replace st.fs_seen n ()
                            | R_sequence steps when not (List.mem steps !advanced) ->
                                advanced := steps :: !advanced;
                                let key = (proxy.m_root, steps) in
                                Hashtbl.replace st.seq_progress key (req.q_seq steps + 1)
                            | _ -> ())
                          (applies Fs rs)
                      end;
                      O_ok usable)))
    | Revoke { owner } ->
        st.revoked.(owner) <- true;
        O_done
    | Revoke_proxy { slot } -> (
        match nth_mod st.slots slot with
        | None -> O_skip
        | Some p ->
            Hashtbl.replace st.revoked_roots p.m_root ();
            O_done)
    | Add_member { member } ->
        st.members.(member) <- true;
        O_done
    | Remove_member { member } ->
        st.members.(member) <- false;
        O_done
    | Assert_group { member } ->
        (* Membership proxy granted iff the member is in the group; the
           subsequent shared-file read succeeds exactly when the proxy was
           granted (the proxy itself always verifies: fresh, unexpired, and
           presented by its named grantee). *)
        let m = st.members.(member) in
        O_group (m, m)
    | Write_check { payor; payee; amount } ->
        let id = !n_checks in
        incr n_checks;
        st.checks <- st.checks @ [ { c_payor = payor; c_payee = payee; c_amount = amount; c_id = id } ];
        O_done
    | Deposit { cslot; depositor } -> (
        match nth_mod st.checks cslot with
        | None -> O_skip
        | Some c ->
            (* The check chain verifies at the bank only when the depositor
               is the payee (the endorsement is a delegate-cascade signature
               that must match the check's Grantee), and its accept-once
               check number must not have been consumed. *)
            let usable = depositor = c.c_payee && not (Hashtbl.mem st.bank_seen c.c_id) in
            (* The payor depositing a check drawn on their own account needs
               no proxy at all: the ACL names them directly, and then the
               check's accept-once number is NOT consumed (the proxy did not
               contribute to the decision). *)
            let granted = depositor = c.c_payor || usable in
            if granted && depositor <> c.c_payor then Hashtbl.replace st.bank_seen c.c_id ();
            if not granted then O_ok false
            else if st.balances.(c.c_payor) < c.c_amount then
              (* Bounce: insufficient funds — but the accept-once was already
                 consumed above, exactly as the real guard consumes it before
                 the ledger debit. *)
              O_ok false
            else begin
              st.balances.(c.c_payor) <- st.balances.(c.c_payor) - c.c_amount;
              st.balances.(depositor) <- st.balances.(depositor) + c.c_amount;
              O_ok true
            end)
  in
  let outcomes = List.map outcome prog in
  { outcomes; balances = st.balances }
