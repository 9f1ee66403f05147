(* Lane-parallel accounting cluster on the {!Sim.Lane} epoch/barrier
   scheduler.

   One lane per shard: each lane owns a full private world — its own
   simulated net (clock, DRBG, metrics, trace, span collector), KDC,
   directory, and a replicated bank shard — so lanes share no mutable
   state and can execute on separate OCaml 5 domains. Everything that
   crosses shards (check clearing, clearing advice, revocation bulletin
   pushes, sequence-progress handovers) travels as a Wire-encoded lane
   message, delivered only at epoch boundaries in canonical order. Same
   seed + same config is therefore byte-identical — merged metrics, trace,
   span JSONL — whatever [domains] is; [domains = 1] runs the very same
   schedule inline.

   Clearing a remote purchase takes three boundary crossings, mirroring
   the paper's check life cycle with the banks in different lanes:

     buyer lane --x-check-->  shop lane   (buyer draws the check)
     shop lane  --x-collect-> buyer lane  (shop + its bank endorse;
                                           the drawee settles and debits)
     buyer lane --x-advice--> shop lane   (the shop's bank credits)

   The drawee leg calls {!Accounting_server.settle} directly — the lane
   boundary replaces the inter-bank RPC hop, and the endorsement chain on
   the check itself remains the authorization, exactly as in Section 4. *)

type flavor = Checks | Seq | Load

type config = {
  seed : string;
  shards : int;  (** = lanes *)
  domains : int;
  epochs : int;  (** workload epochs; draining may add a few more *)
  ops_per_epoch : int;  (** per lane *)
  buyers : int;  (** per shard on average (ring-placed, counts vary) *)
  drop : float;
  duplicate : float;
  retries : int;
  timeout_us : int;
  flavor : flavor;
}

let default =
  {
    seed = "lanes";
    shards = 4;
    domains = 1;
    epochs = 6;
    ops_per_epoch = 6;
    buyers = 3;
    drop = 0.02;
    duplicate = 0.02;
    retries = 8;
    timeout_us = 10_000;
    flavor = Checks;
  }

type outcome = {
  epochs_run : int;
  delivered : int;  (** cross-lane messages *)
  attempted : int;
  succeeded : int;
  remote_sent : int;  (** checks mailed to another lane's shop *)
  remote_cleared : int;
  remote_bounced : int;
  double_redemptions : int;
  bulletins_applied : int;
  conserved : (unit, string) result;
  gates : Drive.gate list;
  digest : string;
}

let usd = "usd"

let ( let* ) = Result.bind

(* Public keys cross lane boundaries only as deep copies: the Nat words
   behind a shared key would otherwise be reachable from several domains.
   Reads would be safe (they are immutable after creation), but copying
   keeps the no-shared-state invariant unconditional. *)
let copy_pub (p : Crypto.Rsa.public) =
  let copy n = Bignum.Nat.of_bytes_be (Bignum.Nat.to_bytes_be n) in
  { Crypto.Rsa.n = copy p.Crypto.Rsa.n; e = copy p.Crypto.Rsa.e }

let lane_world cfg i =
  World.create ~seed:(Sim.Lane.seed_for ~seed:cfg.seed (string_of_int i)) ()

let install_noise cfg i net =
  Sim.Net.install_fault_plan net
    (Sim.Fault.plan
       ~seed:(Printf.sprintf "lane-fault:%s:%d" cfg.seed i)
       [ Sim.Fault.drop cfg.drop; Sim.Fault.duplicate cfg.duplicate ])

(* ------------------------------------------------------------------ *)
(* Checks / Load flavor                                               *)
(* ------------------------------------------------------------------ *)

type buyer = {
  b_name : string;
  b_p : Principal.t;
  b_rsa : Crypto.Rsa.private_;
  b_creds : Ticket.credentials;
}

type chk_lane = {
  cl_id : int;
  cl_world : World.t;
  cl_bank : Shard.t;
  cl_bank_p : Principal.t;
  cl_bank_rsa : Crypto.Rsa.private_;
  cl_shop_p : Principal.t;
  cl_shop_rsa : Crypto.Rsa.private_;
  cl_shop_creds : Ticket.credentials;
  cl_shop_account : string;
  cl_buyers : buyer array;
  cl_wl : Crypto.Drbg.t;  (** workload stream, separate from the net's *)
  cl_pending : (string, int * string) Hashtbl.t;
      (** check number -> (amount, currency) awaiting clearing advice *)
  cl_paid : Drive.tally;  (** checks paid by either replica of this lane's shard *)
  cl_authority : (Principal.t * Crypto.Rsa.private_) option;
      (** lane 0 hosts the revocation authority *)
  cl_revoked_payor : Principal.t;  (** the bulletin's sacrificial grantor *)
}

let retry cfg = Sim.Retry.policy ~retries:cfg.retries ~timeout_us:cfg.timeout_us ()
let bank_via st = [ Shard.primary_node st.cl_bank; Shard.standby_node st.cl_bank ]

let setup_checks cfg =
  let n = cfg.shards in
  let worlds = Array.init n (lane_world cfg) in
  let ring = Ring.create (List.init n (Printf.sprintf "shard-%d")) in
  let lane_of_shard_id sid = Scanf.sscanf sid "shard-%d" Fun.id in
  (* Enrol every lane's principals in its own world first, then replicate
     the public halves everywhere: the drawee verifies a chain endorsed by
     a remote shop and a remote bank, and every shard verifies the one
     revocation authority's bulletins. All sequential, in lane order. *)
  let bank_enrolled =
    Array.init n (fun i -> World.enrol_pk worlds.(i) (Printf.sprintf "bank-%d" i))
  in
  let shop_enrolled =
    Array.init n (fun i -> World.enrol_pk worlds.(i) (Printf.sprintf "shop-%d" i))
  in
  let auth_p, _, auth_rsa = World.enrol_pk worlds.(0) "lane-authority" in
  let auth_pub =
    match Directory.public worlds.(0).World.dir auth_p with
    | Some pub -> pub
    | None -> failwith "Cluster.Lanes setup: authority has no public key"
  in
  let buyer_names = List.init (cfg.buyers * n) (Printf.sprintf "buyer-%d") in
  let home name = lane_of_shard_id (Ring.lookup ring name) in
  let buyers_of =
    Array.init n (fun i ->
        List.filter (fun b -> home b = i) buyer_names
        |> List.map (fun name ->
               let p, _, rsa = World.enrol_pk worlds.(i) name in
               (name, p, rsa))
        |> Array.of_list)
  in
  Array.iteri
    (fun i w ->
      let dir = w.World.dir in
      Directory.add_public dir auth_p (copy_pub auth_pub);
      for j = 0 to n - 1 do
        if j <> i then begin
          let copy_of (p, _, _) =
            match Directory.public worlds.(j).World.dir p with
            | Some pub -> Directory.add_public dir p (copy_pub pub)
            | None -> ()
          in
          copy_of bank_enrolled.(j);
          copy_of shop_enrolled.(j)
        end
      done)
    worlds;
  let revoked_payor =
    if Array.length buyers_of.(0) > 0 then
      let _, p, _ = buyers_of.(0).(0) in
      p
    else
      let p, _, _ = shop_enrolled.(0) in
      p
  in
  Array.init n (fun i ->
      let w = worlds.(i) in
      let net = w.World.net in
      Sim.Net.enable_tracing net;
      let bank_p, bank_key, bank_rsa = bank_enrolled.(i) in
      let shop_p, _, shop_rsa = shop_enrolled.(i) in
      let bank =
        Drive.ok_or "shard"
          (Shard.create net ~me:bank_p ~my_key:bank_key ~kdc:w.World.kdc_name
             ~signing_key:bank_rsa ~lookup:(World.lookup w)
             ~revocation_authority:(auth_p, copy_pub auth_pub)
             ~primary_node:(Printf.sprintf "bank-%d-a" i)
             ~standby_node:(Printf.sprintf "bank-%d-b" i)
             ())
      in
      Shard.install bank;
      let via = [ Shard.primary_node bank; Shard.standby_node bank ] in
      let creds_for who = World.credentials_for w ~tgt:(World.login w who) bank_p in
      let open_acct creds name =
        Drive.ok_or ("account " ^ name)
          (Accounting_server.open_account ~retry:(retry cfg) ~via net ~creds ~name)
      in
      let shop_account = Printf.sprintf "shop-%d" i in
      let shop_creds = creds_for shop_p in
      open_acct shop_creds shop_account;
      let buyers =
        Array.map
          (fun (name, p, rsa) ->
            let creds = creds_for p in
            open_acct creds name;
            Drive.ok_or ("mint " ^ name) (Shard.mint bank ~name ~currency:usd 10_000);
            { b_name = name; b_p = p; b_rsa = rsa; b_creds = creds })
          buyers_of.(i)
      in
      let paid = Drive.tally () in
      Drive.watch paid (Shard.primary_server bank);
      Drive.watch paid (Shard.standby_server bank);
      install_noise cfg i net;
      {
        cl_id = i;
        cl_world = w;
        cl_bank = bank;
        cl_bank_p = bank_p;
        cl_bank_rsa = bank_rsa;
        cl_shop_p = shop_p;
        cl_shop_rsa = shop_rsa;
        cl_shop_creds = shop_creds;
        cl_shop_account = shop_account;
        cl_buyers = buyers;
        cl_wl = Crypto.Drbg.create ~seed:(Printf.sprintf "lane-wl:%s:%d" cfg.seed i);
        cl_pending = Hashtbl.create 16;
        cl_paid = paid;
        cl_authority = (if i = 0 then Some (auth_p, auth_rsa) else None);
        cl_revoked_payor = revoked_payor;
      })

let write_check st buyer ~payee ~amount =
  let net = st.cl_world.World.net in
  let now = Sim.Net.now net in
  let account = Accounting_server.account (Shard.authoritative st.cl_bank) buyer.b_name in
  Check.write ~drbg:(Sim.Net.drbg net) ~now ~expires:(now + World.hour) ~payor:buyer.b_p
    ~payor_key:buyer.b_rsa ~account ~payee ~currency:usd ~amount ()

(* Shop side of an incoming remote check: endorse shop -> own bank -> the
   drawee bank (the check's [drawn_on] server), record the pending credit,
   and mail the endorsed check back to the drawee's lane for collection. *)
let on_check st ~src ~emit blob =
  let net = st.cl_world.World.net in
  let m = Sim.Net.metrics net in
  match Check.of_wire blob with
  | Error _ -> Sim.Metrics.incr m "lanes.malformed"
  | Ok check -> (
      Sim.Metrics.incr m "lanes.checks_in";
      let now = Sim.Net.now net in
      let drbg = Sim.Net.drbg net in
      let drawee = check.Check.drawn_on.Principal.Account.server in
      let endorsed =
        let* c1 =
          Check.endorse ~drbg ~now ~expires:(now + World.hour) ~endorser:st.cl_shop_p
            ~endorser_key:st.cl_shop_rsa ~next:st.cl_bank_p check
        in
        Check.endorse ~drbg ~now ~expires:(now + World.hour) ~endorser:st.cl_bank_p
          ~endorser_key:st.cl_bank_rsa ~next:drawee c1
      in
      match endorsed with
      | Error _ -> Sim.Metrics.incr m "lanes.endorse_failures"
      | Ok endorsed ->
          Sim.Metrics.incr m "accounting.endorsements";
          Hashtbl.replace st.cl_pending check.Check.number
            (check.Check.amount, check.Check.currency);
          emit src (Wire.L [ Wire.S "x-collect"; Check.to_wire endorsed ]))

(* Drawee side: the check is drawn on this lane's bank. The lane boundary
   stands in for the inter-bank RPC hop, so run the collection leg through
   {!Accounting_server.settle} with the presenting bank as presenter — the
   guard still validates the whole endorsement chain, debits, and records
   the check number accept-once. *)
let on_collect st ~presenter ~src ~emit blob =
  let m = Sim.Net.metrics st.cl_world.World.net in
  match Check.of_wire blob with
  | Error _ -> Sim.Metrics.incr m "lanes.malformed"
  | Ok check ->
      let reply =
        match Accounting_server.settle (Shard.authoritative st.cl_bank) ~presenter check with
        | Ok amount -> Wire.L [ Wire.S "x-advice"; Wire.S check.Check.number; Wire.I amount ]
        | Error e ->
            Wire.L [ Wire.S "x-advice"; Wire.S check.Check.number; Wire.I (-1); Wire.S e ]
      in
      emit src reply

let on_advice st number paid =
  let m = Sim.Net.metrics st.cl_world.World.net in
  match Hashtbl.find_opt st.cl_pending number with
  | None -> Sim.Metrics.incr m "lanes.advice_unknown"
  | Some (amount, currency) ->
      Hashtbl.remove st.cl_pending number;
      if paid >= 0 then begin
        (* Credit the primary's ledger directly; the shard's journal picks
           the op up and ships it to the standby with the next replication
           batch, same as any handled mutation. *)
        Drive.ok_or "advice credit"
          (Ledger.credit
             (Accounting_server.ledger (Shard.primary_server st.cl_bank))
             ~name:st.cl_shop_account ~currency amount);
        Sim.Metrics.incr m "lanes.cleared"
      end
      else Sim.Metrics.incr m "lanes.bounced"

let on_bulletin st blob =
  let m = Sim.Net.metrics st.cl_world.World.net in
  match Revocation.of_wire blob with
  | Error _ -> Sim.Metrics.incr m "lanes.malformed"
  | Ok b -> (
      match Shard.apply_bulletin st.cl_bank b with
      | Ok true -> Sim.Metrics.incr m "lanes.bulletins"
      | Ok false | Error _ -> Sim.Metrics.incr m "lanes.bulletin_rejects")

(* Mid-run, lane 0's authority revokes one sacrificial payor by grantor
   epoch and pushes the bulletin to every lane: checks that payor drew
   before the cut bounce at their drawee with "revoked", wherever the
   clearing had got to. *)
let publish_bulletin st ~emit ~lanes =
  match st.cl_authority with
  | None -> ()
  | Some (auth_p, auth_rsa) ->
      let now = Sim.Net.now st.cl_world.World.net in
      let b =
        Revocation.sign ~key:auth_rsa ~issuer:auth_p ~epoch:1 ~issued_at:now
          [ Revocation.By_grantor_epoch { grantor = st.cl_revoked_payor; not_before = now } ]
      in
      on_bulletin st (Revocation.to_wire b);
      let wire = Wire.L [ Wire.S "x-bulletin"; Revocation.to_wire b ] in
      for dst = 0 to lanes - 1 do
        if dst <> st.cl_id then emit dst wire
      done

let handle_chk_msg lanes_arr st ~src ~emit payload =
  let m = Sim.Net.metrics st.cl_world.World.net in
  match Wire.decode payload with
  | Error _ -> Sim.Metrics.incr m "lanes.malformed"
  | Ok v -> (
      match Wire.to_list v with
      | Ok (Wire.S "x-check" :: blob :: _) -> on_check st ~src ~emit blob
      | Ok (Wire.S "x-collect" :: blob :: _) ->
          on_collect st ~presenter:lanes_arr.(src).cl_bank_p ~src ~emit blob
      | Ok (Wire.S "x-advice" :: Wire.S number :: Wire.I paid :: _) -> on_advice st number paid
      | Ok (Wire.S "x-bulletin" :: blob :: _) -> on_bulletin st blob
      | _ -> Sim.Metrics.incr m "lanes.malformed")

(* One workload operation, drawn from the lane's private workload DRBG.
   [Load] skews buyer choice towards low indices (a triangular Zipf-ish
   weighting) and reads more; [Checks] spreads uniformly and mutates more. *)
let one_op cfg lanes_arr st ~emit =
  let net = st.cl_world.World.net in
  let m = Sim.Net.metrics net in
  let nb = Array.length st.cl_buyers in
  if nb = 0 then Sim.Metrics.incr m "lanes.idle"
  else begin
    let pick_idx () =
      match cfg.flavor with
      | Load ->
          (* Triangular weights: buyer 0 is ~nb times hotter than the last. *)
          let tri = nb * (nb + 1) / 2 in
          let r = Crypto.Drbg.uniform_int st.cl_wl tri in
          let rec go i acc = if r < acc + (nb - i) then i else go (i + 1) (acc + (nb - i)) in
          go 0 0
      | Checks | Seq -> Crypto.Drbg.uniform_int st.cl_wl nb
    in
    let bi = pick_idx () in
    let b = st.cl_buyers.(bi) in
    let amount = 1 + Crypto.Drbg.uniform_int st.cl_wl 5 in
    let retry = retry cfg and via = bank_via st in
    let tally r =
      Sim.Metrics.incr m "lanes.ops";
      match r with
      | Ok _ -> Sim.Metrics.incr m "lanes.ok"
      | Error _ -> Sim.Metrics.incr m "lanes.err"
    in
    let balance_read () =
      tally
        (Accounting_server.balance ~retry ~via net ~creds:b.b_creds ~name:b.b_name
           ~currency:usd)
    in
    let other_buyer () = st.cl_buyers.((bi + 1 + Crypto.Drbg.uniform_int st.cl_wl (nb - 1)) mod nb) in
    let roll = Crypto.Drbg.uniform_int st.cl_wl 100 in
    let read_cut, transfer_cut, deposit_cut =
      match cfg.flavor with Load -> (55, 70, 85) | Checks | Seq -> (25, 50, 75)
    in
    if roll < read_cut then balance_read ()
    else if roll < transfer_cut then
      if nb < 2 then balance_read ()
      else
        let b2 = other_buyer () in
        tally
          (Accounting_server.transfer ~retry ~via net ~creds:b.b_creds ~from_:b.b_name
             ~to_:b2.b_name ~currency:usd ~amount)
    else if roll < deposit_cut then
      if nb < 2 then balance_read ()
      else begin
        (* Intra-lane check: b draws on itself payable to b2, who deposits. *)
        let b2 = other_buyer () in
        let check = write_check st b ~payee:b2.b_p ~amount in
        tally
          (Accounting_server.deposit ~retry ~via net ~creds:b2.b_creds ~endorser_key:b2.b_rsa
             ~check ~to_account:b2.b_name)
      end
    else if cfg.shards < 2 then balance_read ()
    else begin
      (* Remote purchase: mail a check to another lane's shop. *)
      let other =
        (st.cl_id + 1 + Crypto.Drbg.uniform_int st.cl_wl (cfg.shards - 1)) mod cfg.shards
      in
      let check = write_check st b ~payee:lanes_arr.(other).cl_shop_p ~amount in
      emit other (Wire.L [ Wire.S "x-check"; Check.to_wire check ]);
      Sim.Metrics.incr m "lanes.remote_sent";
      Sim.Metrics.incr m "lanes.ops";
      Sim.Metrics.incr m "lanes.ok"
    end
  end

(* Shops batch-poll their account once per workload epoch — a pipelined
   {!Secure_rpc.call_batch} exercising the hot path inside a lane. *)
let shop_sweep cfg st =
  let net = st.cl_world.World.net in
  let creds = st.cl_shop_creds in
  let item = Wire.L [ Wire.S "balance"; Wire.S st.cl_shop_account; Wire.S usd ] in
  ignore
    (Secure_rpc.call_batch net ~creds ~retry:(retry cfg) ~via:(bank_via st)
       [ item; item; item; item ])

let chk_step cfg lanes_arr ~epoch ~lane ~inbox =
  let st = lanes_arr.(lane) in
  let m = Sim.Net.metrics st.cl_world.World.net in
  Sim.Metrics.guard_here m;
  Fun.protect
    ~finally:(fun () -> Sim.Metrics.unguard m)
    (fun () ->
      let out = ref [] in
      let emit dst w = out := (dst, Wire.encode w) :: !out in
      List.iter (fun (src, payload) -> handle_chk_msg lanes_arr st ~src ~emit payload) inbox;
      if epoch = cfg.epochs / 2 then publish_bulletin st ~emit ~lanes:cfg.shards;
      if epoch < cfg.epochs then begin
        for _ = 1 to cfg.ops_per_epoch do
          one_op cfg lanes_arr st ~emit
        done;
        if cfg.flavor = Load then shop_sweep cfg st
      end;
      List.rev !out)

(* ------------------------------------------------------------------ *)
(* Seq flavor                                                         *)
(* ------------------------------------------------------------------ *)

(* Pair [i] spans two lanes: bob-i must open /contract at lane i's file
   server before lane ((i+1) mod n)'s bank lets the same chain debit
   alice-i. The file server's seq-forward hook captures the earned
   progress into the lane outbox; the bank lane imports it into both
   replicas at the next boundary (the lane analogue of the "seq-advance"
   verb + journal replication). Script: epoch 0 = out-of-order debit
   denied + in-order open (+ reopen denied); epoch 1 = import + debit;
   epoch 2 = repeat debit denied. *)

type seq_lane = {
  sl_id : int;
  sl_world : World.t;
  sl_fs : File_server.t;
  sl_bank : Shard.t;
  sl_bank_p : Principal.t;
  (* fs-side client state for pair sl_id *)
  sl_bob_fs_creds : Ticket.credentials;
  sl_presented_fs : Guard.presented;
  sl_seq_out : (string * int * int * string) list ref;  (** captured by the hook *)
  (* bank-side client state for pair (sl_id - 1 + n) mod n *)
  sl_bob_bank_creds : Ticket.credentials;
  sl_presented_bank : Guard.presented;
  sl_alice_account : string;
  sl_bob_account : string;
  sl_fs_of_pair : Principal.t;  (** the import caller: that pair's fs *)
  sl_gates : (string, bool) Hashtbl.t;
}

let seq_amount = 100

let gate st name v =
  Hashtbl.replace st.sl_gates name
    (v && Option.value (Hashtbl.find_opt st.sl_gates name) ~default:true)

let setup_seq cfg =
  let n = cfg.shards in
  if n < 2 then invalid_arg "Cluster.Lanes: the Seq flavor needs at least 2 shards";
  let worlds = Array.init n (lane_world cfg) in
  let fs_enrolled = Array.init n (fun i -> World.enrol worlds.(i) (Printf.sprintf "fs-%d" i)) in
  let bank_enrolled =
    Array.init n (fun i -> World.enrol_pk worlds.(i) (Printf.sprintf "bank-%d" i))
  in
  let alice_enrolled =
    Array.init n (fun i -> World.enrol_pk worlds.(i) (Printf.sprintf "alice-%d" i))
  in
  (* bob-i lives in lane i (for the fs) and lane i+1 (for the bank);
     alice-i's public key must verify at lane i+1's bank, and alice-i
     herself opens her account there. *)
  Array.iteri
    (fun i w ->
      let j = (i + 1) mod n in
      let wj = worlds.(j) in
      ignore (World.enrol w (Printf.sprintf "bob-%d" i));
      ignore (World.enrol wj (Printf.sprintf "bob-%d" i));
      ignore (World.enrol wj (Printf.sprintf "alice-%d" i));
      let alice_p, _, _ = alice_enrolled.(i) in
      (match Directory.public w.World.dir alice_p with
      | Some pub -> Directory.add_public wj.World.dir alice_p (copy_pub pub)
      | None -> ()))
    worlds;
  Array.init n (fun i ->
      let w = worlds.(i) in
      let net = w.World.net in
      Sim.Net.enable_tracing net;
      let j = (i + 1) mod n in
      let p = (i - 1 + n) mod n in
      let fs_p, fs_key = fs_enrolled.(i) in
      let bank_p, bank_key, bank_rsa = bank_enrolled.(i) in
      let alice_i, _, alice_i_rsa = alice_enrolled.(i) in
      let alice_p_of_pair, _, _ = alice_enrolled.(p) in
      let bank_j, _, _ = bank_enrolled.(j) in
      let bob_i = fst (World.enrol w (Printf.sprintf "bob-%d" i)) in
      let bob_p = fst (World.enrol w (Printf.sprintf "bob-%d" p)) in
      (* fs-i: ACL lets alice-i grant "open" on the contract *)
      let fs_acl = Acl.create () in
      Acl.add fs_acl ~target:"/contract"
        { Acl.subject = Acl.Principal_is alice_i; rights = [ "open"; "read" ]; restrictions = [] };
      let fs =
        File_server.create net ~me:fs_p ~my_key:fs_key ~lookup_pub:(World.lookup w) ~acl:fs_acl ()
      in
      File_server.install fs;
      File_server.put_direct fs ~path:"/contract" "in consideration of services rendered";
      let seq_out = ref [] in
      Guard.set_seq_forward (File_server.guard fs)
        (Some
           (fun ~server:_ ~key ~progress ~expires ~tag ->
             seq_out := (key, progress, expires, tag) :: !seq_out));
      (* bank-i serves pair p: alice-p's account lives here *)
      let bank =
        Drive.ok_or "shard"
          (Shard.create net ~me:bank_p ~my_key:bank_key ~kdc:w.World.kdc_name
             ~signing_key:bank_rsa ~lookup:(World.lookup w)
             ~primary_node:(Printf.sprintf "bank-%d-a" i)
             ~standby_node:(Printf.sprintf "bank-%d-b" i)
             ())
      in
      Shard.install bank;
      let via = [ Shard.primary_node bank; Shard.standby_node bank ] in
      let creds_for who = World.credentials_for w ~tgt:(World.login w who) bank_p in
      let alice_account = Printf.sprintf "alice-%d" p in
      let bob_account = Printf.sprintf "bob-%d" p in
      let open_acct creds name =
        Drive.ok_or ("account " ^ name)
          (Accounting_server.open_account ~retry:(retry cfg) ~via net ~creds ~name)
      in
      open_acct (creds_for alice_p_of_pair) alice_account;
      open_acct (creds_for bob_p) bob_account;
      Drive.ok_or "mint" (Shard.mint bank ~name:alice_account ~currency:usd 1_000);
      (* pair i's sequence-restricted grant, shared (immutable) with lane j *)
      let steps =
        [
          { Restriction.step_op = "open"; step_server = Some fs_p; step_target = Some "/contract" };
          {
            Restriction.step_op = "debit";
            step_server = Some bank_j;
            step_target = Some (Printf.sprintf "alice-%d" i);
          };
        ]
      in
      let now = World.now w in
      let proxy =
        Proxy.grant_pk ~drbg:(Sim.Net.drbg net) ~now ~expires:(now + (24 * World.hour))
          ~grantor:alice_i ~grantor_key:alice_i_rsa
          ~restrictions:[ Restriction.Grantee ([ bob_i ], 1); Restriction.Sequence steps ]
          ()
      in
      (* every credential fetch happens on the quiet network — World raises
         on drops, and the noisy run must never take a KDC round trip *)
      let bob_fs_creds = World.credentials_for w ~tgt:(World.login w bob_i) fs_p in
      let bob_bank_creds = creds_for bob_p in
      install_noise cfg i net;
      {
        sl_id = i;
        sl_world = w;
        sl_fs = fs;
        sl_bank = bank;
        sl_bank_p = bank_p;
        sl_bob_fs_creds = bob_fs_creds;
        sl_presented_fs = { Guard.pres = Proxy.presentation proxy; pres_proof = None };
        sl_seq_out = seq_out;
        sl_bob_bank_creds = bob_bank_creds;
        sl_presented_bank = { Guard.pres = Proxy.presentation proxy; pres_proof = None };
        sl_alice_account = alice_account;
        sl_bob_account = bob_account;
        sl_fs_of_pair = fst fs_enrolled.(p);
        sl_gates = Hashtbl.create 8;
      })

(* The bank-side presentation for pair p is held by lane p (which granted
   it); lane (p+1) debits with it. The presentation is immutable, so the
   cross-lane read is safe — it is shared data, not shared state. *)
let fixup_seq_presentations lanes_arr =
  let n = Array.length lanes_arr in
  Array.map
    (fun st ->
      let p = (st.sl_id - 1 + n) mod n in
      { st with sl_presented_bank = lanes_arr.(p).sl_presented_fs })
    lanes_arr

let seq_step cfg lanes_arr ~epoch ~lane ~inbox =
  let st = lanes_arr.(lane) in
  let net = st.sl_world.World.net in
  let m = Sim.Net.metrics net in
  Sim.Metrics.guard_here m;
  Fun.protect
    ~finally:(fun () -> Sim.Metrics.unguard m)
    (fun () ->
      let n = cfg.shards in
      let out = ref [] in
      let emit dst w = out := (dst, Wire.encode w) :: !out in
      (* Imports first: progress earned at the partner fs last epoch. *)
      List.iter
        (fun (_src, payload) ->
          match Wire.decode payload with
          | Ok (Wire.L [ Wire.S "x-seq"; Wire.S key; Wire.I progress; Wire.I expires; Wire.S tag ])
            ->
              let import server =
                Guard.import_seq_progress
                  (Accounting_server.guard server)
                  ~caller:st.sl_fs_of_pair ~key ~progress ~expires ~tag
              in
              let ok =
                Result.is_ok (import (Shard.primary_server st.sl_bank))
                && Result.is_ok (import (Shard.standby_server st.sl_bank))
              in
              gate st "progress imported on both replicas" ok
          | _ -> Sim.Metrics.incr m "lanes.malformed")
        inbox;
      let retry = retry cfg
      and via = [ Shard.primary_node st.sl_bank; Shard.standby_node st.sl_bank ] in
      let debit () =
        Accounting_server.proxy_debit ~retry ~via net ~creds:st.sl_bob_bank_creds
          ~presented:st.sl_presented_bank ~payor_account:st.sl_alice_account
          ~to_account:st.sl_bob_account ~currency:usd ~amount:seq_amount
      in
      (match epoch with
      | 0 ->
          (* Out-of-order attack at the bank: no open has happened. *)
          gate st "out-of-order debit denied" (Result.is_error (debit ()));
          (* In-order open at the fs; the hook captures the handover. *)
          let open_ok =
            Result.is_ok
              (File_server.open_ net ~creds:st.sl_bob_fs_creds ~retry
                 ~proxies:[ st.sl_presented_fs ] ~path:"/contract" ())
          in
          gate st "in-order open granted" open_ok;
          gate st "reopen denied: step consumed"
            (Result.is_error
               (File_server.open_ net ~creds:st.sl_bob_fs_creds ~retry
                  ~proxies:[ st.sl_presented_fs ] ~path:"/contract" ()));
          List.iter
            (fun (key, progress, expires, tag) ->
              emit ((lane + 1) mod n)
                (Wire.L
                   [ Wire.S "x-seq"; Wire.S key; Wire.I progress; Wire.I expires; Wire.S tag ]))
            (List.rev !(st.sl_seq_out));
          st.sl_seq_out := []
      | 1 ->
          (* Progress imported above; the gated debit must now clear. *)
          gate st "debit granted after the handover"
            (match debit () with Ok a -> a = seq_amount | Error _ -> false);
          Sim.Metrics.incr m "lanes.ops";
          Sim.Metrics.incr m "lanes.ok"
      | 2 -> gate st "repeat debit denied: sequence exhausted" (Result.is_error (debit ()))
      | _ -> ());
      List.rev !out)

(* ------------------------------------------------------------------ *)
(* Run + merge                                                        *)
(* ------------------------------------------------------------------ *)

(* Merge per-lane results in lane order. The flavor gates read the merged
   counters; the digest holds the schedule's shape, every gate, and each
   lane's metrics, trace and spans. *)
let finish ~nets ~(sched : Sim.Lane.outcome) ~conserved ~double_redemptions
    ~flavor_gates =
  let merged = Sim.Metrics.create () in
  List.iter (fun net -> Sim.Metrics.merge_into ~into:merged (Sim.Net.metrics net)) nets;
  let get = Sim.Metrics.get merged in
  let gates =
    Drive.conserved conserved :: Drive.redeemed_once double_redemptions :: flavor_gates get
  in
  let digest =
    String.concat ""
      ((Printf.sprintf "epochs_run=%d\ndelivered=%d\n" sched.Sim.Lane.epochs_run
          sched.Sim.Lane.delivered
       :: List.map (fun (label, holds) -> Printf.sprintf "%s=%b\n" label holds) gates)
      @ List.mapi (fun i net -> Drive.digest ~lane:i net) nets)
  in
  {
    epochs_run = sched.Sim.Lane.epochs_run;
    delivered = sched.Sim.Lane.delivered;
    attempted = get "lanes.ops";
    succeeded = get "lanes.ok";
    remote_sent = get "lanes.remote_sent";
    remote_cleared = get "lanes.cleared";
    remote_bounced = get "lanes.bounced";
    double_redemptions;
    bulletins_applied = get "lanes.bulletins";
    conserved;
    gates;
    digest;
  }

let run_checks cfg =
  let lanes_arr = setup_checks cfg in
  let ledgers () =
    Array.to_list lanes_arr
    |> List.map (fun st -> Accounting_server.ledger (Shard.authoritative st.cl_bank))
  in
  let before = Invariant.capture (ledgers ()) in
  let sched =
    Sim.Lane.run ~domains:cfg.domains ~lanes:cfg.shards ~min_epochs:cfg.epochs
      ~step:(chk_step cfg lanes_arr) ()
  in
  let multi = cfg.shards >= 2 in
  finish ~sched
    ~nets:(Array.to_list lanes_arr |> List.map (fun st -> st.cl_world.World.net))
    ~conserved:(Invariant.check before (ledgers ()))
    ~double_redemptions:
      (Array.fold_left (fun acc st -> acc + Drive.double_redemptions st.cl_paid) 0 lanes_arr)
    ~flavor_gates:(fun get ->
      [ ("some operations succeeded", get "lanes.ok" > 0);
        ("remote checks cleared", (not multi) || get "lanes.cleared" > 0);
        ("bulletin applied on every lane", (not multi) || get "lanes.bulletins" = cfg.shards) ])

let seq_gate_names =
  [ "out-of-order debit denied";
    "in-order open granted";
    "reopen denied: step consumed";
    "progress imported on both replicas";
    "debit granted after the handover";
    "repeat debit denied: sequence exhausted" ]

let run_seq cfg =
  let lanes_arr = fixup_seq_presentations (setup_seq cfg) in
  let ledgers () =
    Array.to_list lanes_arr
    |> List.map (fun st -> Accounting_server.ledger (Shard.authoritative st.sl_bank))
  in
  let before = Invariant.capture (ledgers ()) in
  let sched =
    Sim.Lane.run ~domains:cfg.domains ~lanes:cfg.shards ~min_epochs:3
      ~step:(seq_step cfg lanes_arr) ()
  in
  finish ~sched
    ~nets:(Array.to_list lanes_arr |> List.map (fun st -> st.sl_world.World.net))
    ~conserved:(Invariant.check before (ledgers ()))
    ~double_redemptions:0
    ~flavor_gates:(fun _ ->
      List.map
        (fun name ->
          ( name,
            Array.for_all
              (fun st -> Option.value (Hashtbl.find_opt st.sl_gates name) ~default:false)
              lanes_arr ))
        seq_gate_names)

let run cfg =
  if cfg.shards < 1 then invalid_arg "Cluster.Lanes: at least one shard";
  if cfg.domains < 1 then invalid_arg "Cluster.Lanes: at least one domain";
  match cfg.flavor with Checks | Load -> run_checks cfg | Seq -> run_seq cfg

let entry cfg =
  let label = match cfg.flavor with Checks -> "cluster" | Seq -> "seq" | Load -> "load" in
  Drive.entry ~label:(label ^ " lane") ~gates:(fun o -> o.gates) ~digest:(fun o -> o.digest)
    ~reference:("--domains 1", fun () -> run { cfg with domains = 1 })
    (fun () -> run cfg)
