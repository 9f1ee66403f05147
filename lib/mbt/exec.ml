(* Execute a generated program against the real stack: a simulated network
   with a KDC, a PKI directory, a guarded file server, a group server and an
   accounting server.  Every run is deterministic in the world seed.

   [mutation] deliberately mis-implements one rule at the execution level
   (the model is not told), so the harness can demonstrate that the oracle
   catches injected semantics bugs — the mutation-killing check. *)

open Program

type mutation =
  | Drop_derived_restriction
      (** derive silently drops the first appended restriction — violates
          Section 6.2's "restrictions may only be added" *)
  | Ignore_expiry
      (** certificates requested as already-expired are minted with a long
          lifetime instead *)
  | Misbind_proof
      (** proofs of possession are bound to the wrong request digest *)
  | Ignore_bulletin
      (** revocation bulletins are dropped on the floor instead of applied —
          a revoked chain keeps verifying, the revoke-vs-present ordering the
          model insists on is violated *)
  | Ignore_sequence_order
      (** a Sequence restriction is lowered to a stateless Authorized set of
          its steps — any step usable in any order, any number of times *)
  | Reset_progress_on_retry
      (** the guard's sequence tracker is wiped after every presentation, as
          if retry handling reset earned progress — in-order second steps
          that the model grants are denied by the stack *)

let mutation_name = function
  | Drop_derived_restriction -> "drop-derived-restriction"
  | Ignore_expiry -> "ignore-expiry"
  | Misbind_proof -> "misbind-proof"
  | Ignore_bulletin -> "ignore-bulletin"
  | Ignore_sequence_order -> "ignore-sequence-order"
  | Reset_progress_on_retry -> "reset-progress-on-retry"

let mutations =
  [ Drop_derived_restriction; Ignore_expiry; Misbind_proof; Ignore_bulletin;
    Ignore_sequence_order; Reset_progress_on_retry ]

let mutation_of_name s =
  List.find_opt (fun m -> mutation_name m = s) mutations

(* Long-term RSA keys are expensive to generate, deterministic, and carry no
   per-program state, so one process-global pool (generated eagerly, in a
   fixed order, from a dedicated DRBG) serves every program. *)
type keypool = {
  pk_users : Crypto.Rsa.private_ array;
  pk_fs : Crypto.Rsa.private_;
  pk_bank : Crypto.Rsa.private_;
  pk_authority : Crypto.Rsa.private_;  (** signs revocation bulletins *)
}

let pool =
  lazy
    (let drbg = Crypto.Drbg.create ~seed:"mbt-keypool" in
     let gen () = Crypto.Rsa.generate drbg ~bits:512 in
     let pk_users = Array.init n_users (fun _ -> gen ()) in
     let pk_fs = gen () in
     let pk_bank = gen () in
     let pk_authority = gen () in
     { pk_users; pk_fs; pk_bank; pk_authority })

let uname i = Printf.sprintf "u%d" i

type univ = {
  net : Sim.Net.t;
  users : Principal.t array;
  fs_creds : Ticket.credentials array;
  bank_creds : Ticket.credentials array;
  gs_creds : Ticket.credentials array;
  fs : File_server.t;
  fs_name : Principal.t;
  gs : Group_server.t;
  bank : Accounting_server.t;
  bank_name : Principal.t;
  team : Principal.Group.t;
  authority : Principal.t;  (** the revocation authority the fs subscribes to *)
  caches : Verify_cache.t list;  (** the three servers' verify caches *)
}

let build ~cache ~seed =
  let kp = Lazy.force pool in
  let w = World.create ~seed () in
  let net = w.World.net in
  let users = Array.init n_users (fun i -> fst (World.enrol w (uname i))) in
  Array.iteri
    (fun i p -> Directory.add_public w.World.dir p kp.pk_users.(i).Crypto.Rsa.pub)
    users;
  let fs_name, fs_key = World.enrol w "fs" in
  Directory.add_public w.World.dir fs_name kp.pk_fs.Crypto.Rsa.pub;
  let gs_name, gs_key = World.enrol w "gs" in
  let bank_name, bank_key = World.enrol w "bank" in
  Directory.add_public w.World.dir bank_name kp.pk_bank.Crypto.Rsa.pub;
  let vcache () = Verify_cache.create ~capacity:(if cache then 1024 else 0) () in
  let fs_cache = vcache () and gs_cache = vcache () and bank_cache = vcache () in
  let lookup_pub = Directory.public w.World.dir in
  let team = Principal.Group.make ~server:gs_name group in
  let acl = Acl.create () in
  for i = 0 to n_users - 1 do
    Acl.add acl ~target:(target_name (File i))
      { Acl.subject = Acl.Principal_is users.(i); rights = [ "read"; "write" ]; restrictions = [] }
  done;
  Acl.add acl ~target:(target_name Shared)
    { Acl.subject = Acl.Group team; rights = [ "read"; "write" ]; restrictions = [] };
  let authority = Principal.make ~realm:w.World.realm "revoker" in
  (* The staleness bound is effectively infinite: MBT programs probe
     revocation *ordering* (revoke-vs-present races), not partition
     staleness — that path is the revocation-storm scenario's business. *)
  let revocation =
    Revocation.create ~issuer:authority ~issuer_pub:kp.pk_authority.Crypto.Rsa.pub
      ~staleness_bound_us:max_int ~now:(Sim.Net.now net) ()
  in
  let fs =
    File_server.create net ~me:fs_name ~my_key:fs_key ~lookup_pub ~my_rsa:kp.pk_fs
      ~verify_cache:fs_cache ~revocation ~acl ()
  in
  File_server.install fs;
  for i = 0 to n_users - 1 do
    File_server.put_direct fs ~path:(target_name (File i)) (Printf.sprintf "contents of u%d" i)
  done;
  File_server.put_direct fs ~path:(target_name Shared) "shared contents";
  let gs =
    match
      Group_server.create net ~me:gs_name ~my_key:gs_key ~kdc:w.World.kdc_name ~lookup_pub
        ~verify_cache:gs_cache ()
    with
    | Ok gs -> gs
    | Error e -> failwith ("mbt: group server: " ^ e)
  in
  Group_server.install gs;
  let bank =
    match
      Accounting_server.create net ~me:bank_name ~my_key:bank_key ~kdc:w.World.kdc_name
        ~signing_key:kp.pk_bank ~lookup:lookup_pub ~verify_cache:bank_cache ()
    with
    | Ok b -> b
    | Error e -> failwith ("mbt: accounting server: " ^ e)
  in
  Accounting_server.install bank;
  let creds_for target =
    Array.init n_users (fun i ->
        World.credentials_for w ~tgt:(World.login w users.(i)) target)
  in
  (* One login per user per target keeps per-op work purely the operation's
     own RPCs.  (Logins are cheap but ordering must be fixed: everything at
     build time, in user order.) *)
  let fs_creds = creds_for fs_name in
  let bank_creds = creds_for bank_name in
  let gs_creds = creds_for gs_name in
  for i = 0 to n_users - 1 do
    (match Accounting_server.open_account net ~creds:bank_creds.(i) ~name:(uname i) with
    | Ok () -> ()
    | Error e -> failwith ("mbt: open account: " ^ e));
    match
      Ledger.mint (Accounting_server.ledger bank) ~name:(uname i) ~currency initial_balance
    with
    | Ok () -> ()
    | Error e -> failwith ("mbt: mint: " ^ e)
  done;
  { net; users; fs_creds; bank_creds; gs_creds; fs; fs_name; gs; bank; bank_name; team;
    authority; caches = [ fs_cache; gs_cache; bank_cache ] }

(* --- lowering restriction specs to real restrictions --- *)

let server_principal u = function
  | Fs -> u.fs_name
  | Bank -> u.bank_name
  | Gs -> Group_server.me u.gs

let rec lower ~mutation u = function
  | R_grantee us -> Restriction.Grantee (List.map (fun i -> u.users.(i)) us, 1)
  | R_issued_for ss -> Restriction.Issued_for (List.map (server_principal u) ss)
  | R_quota n -> Restriction.Quota (currency, n)
  | R_authorized es ->
      Restriction.Authorized
        (List.map (fun (t, ops) -> { Restriction.target = target_name t; ops }) es)
  | R_accept_once n -> Restriction.Accept_once (string_of_int n)
  | R_limit (s, rs) ->
      Restriction.Limit_restriction
        ([ server_principal u s ], List.map (lower ~mutation u) rs)
  | R_sequence steps ->
      if mutation = Some Ignore_sequence_order then
        (* The deliberate bug: forget the ordering and the consumption — the
           steps become a plain stateless permission set. *)
        Restriction.Authorized
          (List.map (fun (op, t) -> { Restriction.target = target_name t; ops = [ op ] }) steps)
      else
        Restriction.Sequence
          (List.map
             (fun (op, t) ->
               { Restriction.step_op = op; step_server = None;
                 step_target = Some (target_name t) })
             steps)
  | R_unknown -> Restriction.Unknown "mbt-unrecognized"

let nth_mod l i = match l with [] -> None | _ -> Some (List.nth l (i mod List.length l))

(* The serial of a chain's head certificate — what a grantor quotes when
   asking the authority to revoke a grant.  Public-key and hybrid heads are
   world-readable; a conventional head is sealed under the grantor's own
   session key, which the grantor of course holds. *)
let head_serial u ~grantor (proxy : Proxy.t) =
  match proxy.Proxy.flavor with
  | Proxy.Public_key (c :: _) -> c.Proxy_cert.pk_body.Proxy_cert.serial
  | Proxy.Public_key [] -> failwith "mbt: empty pk chain"
  | Proxy.Hybrid (h, _) -> h.Proxy_cert.h_body.Proxy_cert.serial
  | Proxy.Conventional { Proxy.cert_blobs; _ } -> (
      match cert_blobs with
      | [] -> failwith "mbt: empty conventional chain"
      | head :: _ -> (
          let creds = u.fs_creds.(grantor) in
          match
            Proxy_cert.open_conventional ~sealing_key:creds.Ticket.session_key head
          with
          | Ok (body, _) -> body.Proxy_cert.serial
          | Error e -> failwith ("mbt: open conventional head: " ^ e)))

(* The run, and how many conventional-link opens its verify caches
   answered. *)
let run ?mutation ~cache ~seed (prog : Program.t) : Program.run * int =
  let kp = Lazy.force pool in
  let u = build ~cache ~seed in
  let drbg = Sim.Net.drbg u.net in
  let slots = ref [] (* (proxy, grantor) in creation order *) in
  let checks = ref [] in
  let revoked_serials = ref [] in
  let rev_epoch = ref 0 in
  let expires_for ~now expired =
    if expired && mutation <> Some Ignore_expiry then now else now + World.hour
  in
  let outcome op =
    match op with
    | Grant { grantor; flavor; expired; rs } ->
        let now = Sim.Net.now u.net in
        let expires = expires_for ~now expired in
        let restrictions = List.map (lower ~mutation u) rs in
        let proxy =
          match flavor with
          | Conv ->
              let creds = u.fs_creds.(grantor) in
              Proxy.grant_conventional ~drbg ~now ~expires ~grantor:u.users.(grantor)
                ~session_key:creds.Ticket.session_key ~base:creds.Ticket.ticket_blob
                ~restrictions
          | Pk ->
              Proxy.grant_pk ~drbg ~now ~expires ~grantor:u.users.(grantor)
                ~grantor_key:kp.pk_users.(grantor) ~restrictions ()
          | Hybrid -> (
              match
                Proxy.grant_hybrid ~drbg ~now ~expires ~grantor:u.users.(grantor)
                  ~grantor_key:kp.pk_users.(grantor) ~end_server:u.fs_name
                  ~end_server_pub:kp.pk_fs.Crypto.Rsa.pub ~restrictions ()
              with
              | Ok p -> p
              | Error e -> failwith ("mbt: grant_hybrid: " ^ e))
        in
        slots := !slots @ [ (proxy, grantor) ];
        O_done
    | Derive { slot; expired; rs; delegate } -> (
        match nth_mod !slots slot with
        | None -> O_skip
        | Some (parent, pgrantor) ->
            let now = Sim.Net.now u.net in
            let expires = expires_for ~now expired in
            let rs =
              if mutation = Some Drop_derived_restriction then
                match rs with [] -> [] | _ :: tl -> tl
              else rs
            in
            let restrictions = List.map (lower ~mutation u) rs in
            let derived =
              match (parent.Proxy.flavor, delegate) with
              | Proxy.Conventional _, _ ->
                  Proxy.restrict_conventional ~drbg ~now ~expires ~restrictions parent
              | Proxy.Public_key _, Some d ->
                  Proxy.delegate_pk ~drbg ~now ~expires ~intermediate:u.users.(d)
                    ~intermediate_key:kp.pk_users.(d) ~restrictions parent
              | Proxy.Public_key _, None ->
                  Proxy.restrict_pk ~drbg ~now ~expires ~restrictions parent
              | Proxy.Hybrid _, _ ->
                  Proxy.restrict_hybrid ~drbg ~now ~expires ~restrictions parent
            in
            (match derived with
            | Ok p -> slots := !slots @ [ (p, pgrantor) ]
            | Error e -> failwith ("mbt: derive: " ^ e));
            O_done)
    | Present { slot; presenter; verb; target } -> (
        let path = target_name target in
        let operation = match verb with `Read -> "read" | `Write -> "write" in
        let proxies =
          match nth_mod !slots slot with
          | None -> []
          | Some (proxy, _) ->
              let bound_op = if mutation = Some Misbind_proof then "stat" else operation in
              [ Guard.present ~proxy ~time:(Sim.Net.now u.net) ~server:u.fs_name
                  ~operation:bound_op ~target:path () ]
        in
        let creds = u.fs_creds.(presenter) in
        let granted =
          match verb with
          | `Read -> Result.is_ok (File_server.read u.net ~creds ~proxies ~path ())
          | `Write -> Result.is_ok (File_server.write u.net ~creds ~proxies ~path "mbt write")
        in
        if mutation = Some Reset_progress_on_retry then
          Seq_tracker.clear (Guard.seq_tracker (File_server.guard u.fs));
        O_ok granted)
    | Revoke { owner } ->
        Acl.remove_subject (File_server.acl u.fs) ~target:(target_name (File owner))
          (Acl.Principal_is u.users.(owner));
        O_done
    | Revoke_proxy { slot } -> (
        match nth_mod !slots slot with
        | None -> O_skip
        | Some (proxy, grantor) ->
            let serial = head_serial u ~grantor proxy in
            if not (List.mem serial !revoked_serials) then
              revoked_serials := !revoked_serials @ [ serial ];
            (* Bulletins carry the full cumulative list under a strictly
               increasing epoch; the guard bumps its verify-cache generation
               when coverage actually extends, so a re-revocation is a pure
               heartbeat. *)
            incr rev_epoch;
            let bulletin =
              Revocation.sign ~key:kp.pk_authority ~issuer:u.authority
                ~epoch:!rev_epoch ~issued_at:(Sim.Net.now u.net)
                (List.map (fun s -> Revocation.By_serial s) !revoked_serials)
            in
            if mutation <> Some Ignore_bulletin then
              (match Guard.apply_bulletin (File_server.guard u.fs) bulletin with
              | Ok _ -> ()
              | Error e -> failwith ("mbt: apply bulletin: " ^ e));
            O_done)
    | Add_member { member } ->
        Group_server.add_member u.gs ~group u.users.(member);
        O_done
    | Remove_member { member } ->
        Group_server.remove_member u.gs ~group u.users.(member);
        O_done
    | Assert_group { member } -> (
        match
          Group_server.request_membership_proxy u.net ~creds:u.gs_creds.(member) ~group
            ~end_server:u.fs_name ()
        with
        | Error _ -> O_group (false, false)
        | Ok proxy ->
            let presented =
              { Guard.pres = Proxy.presentation proxy; pres_proof = None }
            in
            let read =
              File_server.read u.net ~creds:u.fs_creds.(member) ~group_proxies:[ presented ]
                ~path:(target_name Shared) ()
            in
            O_group (true, Result.is_ok read))
    | Write_check { payor; payee; amount } ->
        let now = Sim.Net.now u.net in
        let check =
          Check.write ~drbg ~now ~expires:(now + World.hour) ~payor:u.users.(payor)
            ~payor_key:kp.pk_users.(payor)
            ~account:(Accounting_server.account u.bank (uname payor))
            ~payee:u.users.(payee) ~currency ~amount ()
        in
        checks := !checks @ [ check ];
        O_done
    | Deposit { cslot; depositor } -> (
        match nth_mod !checks cslot with
        | None -> O_skip
        | Some check ->
            let r =
              Accounting_server.deposit u.net ~creds:u.bank_creds.(depositor)
                ~endorser_key:kp.pk_users.(depositor) ~check ~to_account:(uname depositor)
            in
            O_ok (Result.is_ok r))
  in
  let outcomes = List.map outcome prog in
  let ledger = Accounting_server.ledger u.bank in
  let balances =
    Array.init n_users (fun i -> Ledger.balance ledger ~name:(uname i) ~currency)
  in
  let link_hits =
    List.fold_left (fun n c -> n + (Verify_cache.stats c).Verify_cache.link_hits) 0 u.caches
  in
  ({ outcomes; balances }, link_hits)
