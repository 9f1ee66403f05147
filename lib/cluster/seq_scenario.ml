(* Two-server sequence scenario: one Sequence restriction spans a file
   server and a sharded bank — an fs "open" step gates a bank "debit" step.

   Alice grants Bob a delegate proxy restricted to the sequence
   [open@fs:/contract; debit@bank:alice]. Bob must open the contract at
   the file server before the bank will let the same chain draw from
   Alice's account; the file server hands the earned progress to the bank
   over the "seq-advance" verb, and the bank's primary replicates it to
   its standby through the PR-5 journal path *before* releasing the
   seq-advance reply. A mid-sequence fault plan then permanently crashes
   the bank primary: the debit fails over to the standby, which promotes
   and honours the progress it was shipped — the sequence completes
   exactly once across the crash. Out-of-order, repeated and post-
   completion presentations are all denied.

   Everything is seeded; a same-seed rerun is byte-identical (metrics
   snapshot and trace). *)

type config = {
  seed : string;
  drop : float;
  duplicate : float;
  retries : int;
  timeout_us : int;
  crash_after_us : int;
}

let default =
  {
    seed = "seq";
    drop = 0.05;
    duplicate = 0.05;
    retries = 8;
    timeout_us = 10_000;
    crash_after_us = 40_000;
  }

type outcome = {
  crashed_node : string;
  promotions : int;
  seq_advances : int;
  seq_imports : int;
  alice_available : int;
  bob_available : int;
  gates : Drive.gate list;
  digest : string;
}

let usd = "usd"
let amount = 100

let run cfg =
  let w = World.create ~seed:cfg.seed () in
  let net = w.World.net in
  let drbg = Sim.Net.drbg net in
  let m = Sim.Net.metrics net in
  let retry = Sim.Retry.policy ~retries:cfg.retries ~timeout_us:cfg.timeout_us () in
  let repl_retry = Sim.Retry.policy ~retries:12 ~timeout_us:cfg.timeout_us () in
  (* -- principals -- *)
  let alice, _, alice_rsa = World.enrol_pk w "alice" in
  let bob, _ = World.enrol w "bob" in
  let fs_p, fs_key = World.enrol w "seq-fs" in
  let bank_p, bank_key, bank_rsa = World.enrol_pk w "seq-bank" in
  (* -- servers -- *)
  let fs_acl = Acl.create () in
  Acl.add fs_acl ~target:"/contract"
    { Acl.subject = Acl.Principal_is alice; rights = [ "open"; "read" ]; restrictions = [] };
  let fs =
    File_server.create net ~me:fs_p ~my_key:fs_key ~lookup_pub:(World.lookup w) ~acl:fs_acl ()
  in
  File_server.install fs;
  File_server.put_direct fs ~path:"/contract" "in consideration of services rendered";
  let bank =
    Drive.ok_or "bank"
      (Shard.create net ~me:bank_p ~my_key:bank_key ~kdc:w.World.kdc_name
         ~signing_key:bank_rsa ~lookup:(World.lookup w) ~repl_retry
         ~primary_node:"seq-bank-a" ~standby_node:"seq-bank-b" ())
  in
  Shard.install bank;
  let via = [ Shard.primary_node bank; Shard.standby_node bank ] in
  (* -- accounts and funds (before any fault plan) -- *)
  let creds_for who target = World.credentials_for w ~tgt:(World.login w who) target in
  let alice_bank = creds_for alice bank_p in
  let bob_bank = creds_for bob bank_p in
  let bob_fs = creds_for bob fs_p in
  Drive.ok_or "alice account"
    (Accounting_server.open_account ~retry ~via net ~creds:alice_bank ~name:"alice");
  Drive.ok_or "bob account"
    (Accounting_server.open_account ~retry ~via net ~creds:bob_bank ~name:"bob");
  Drive.ok_or "mint" (Shard.mint bank ~name:"alice" ~currency:usd 1_000);
  (* -- the sequence-restricted delegate proxy -- *)
  let steps =
    [
      { Restriction.step_op = "open"; step_server = Some fs_p; step_target = Some "/contract" };
      { Restriction.step_op = "debit"; step_server = Some bank_p; step_target = Some "alice" };
    ]
  in
  let now = World.now w in
  let proxy =
    Proxy.grant_pk ~drbg ~now ~expires:(now + (24 * World.hour)) ~grantor:alice
      ~grantor_key:alice_rsa
      ~restrictions:[ Restriction.Grantee ([ bob ], 1); Restriction.Sequence steps ]
      ()
  in
  let presented = { Guard.pres = Proxy.presentation proxy; pres_proof = None } in
  (* -- cross-server handover: fs forwards earned progress to the bank -- *)
  let fs_bank = creds_for fs_p bank_p in
  let advanced_key = ref None in
  Guard.set_seq_observer (File_server.guard fs)
    (Some (fun ~key ~progress:_ ~expires:_ ~tag:_ -> advanced_key := Some key));
  Guard.set_seq_forward (File_server.guard fs)
    (Some
       (fun ~server:_ ~key ~progress ~expires ~tag ->
         match
           Accounting_server.seq_advance ~retry ~via net ~creds:fs_bank ~key ~progress
             ~expires ~tag
         with
         | Ok () -> ()
         | Error _ -> Sim.Metrics.incr m "seq_tracker.forward_failures"));
  (* -- chaos begins: message noise now, primary crash mid-sequence -- *)
  let t0 = Sim.Net.now net in
  let crash_at = t0 + cfg.crash_after_us in
  let crashed_node = Shard.primary_node bank in
  Sim.Net.install_fault_plan net
    (Sim.Fault.plan ~seed:cfg.seed
       [
         Sim.Fault.drop cfg.drop;
         Sim.Fault.duplicate cfg.duplicate;
         Sim.Fault.crash crashed_node ~at:crash_at ();
       ]);
  let debit () =
    Accounting_server.proxy_debit ~retry ~via net ~creds:bob_bank ~presented
      ~payor_account:"alice" ~to_account:"bob" ~currency:usd ~amount
  in
  (* 1. Out-of-order attack: debit before open must bounce. *)
  let attack_denied = Result.is_error (debit ()) in
  (* 2. In-order: open the contract at the fs. The granted decision
        advances the fs tracker and hands progress to the bank primary,
        whose journal ships it to the standby before the seq-advance reply
        is released. *)
  let open_ok =
    Result.is_ok
      (File_server.open_ net ~creds:bob_fs ~retry ~proxies:[ presented ] ~path:"/contract" ())
  in
  (* 3. The open step is consumed: presenting it again must bounce. *)
  let reopen_denied =
    Result.is_error
      (File_server.open_ net ~creds:bob_fs ~retry ~proxies:[ presented ] ~path:"/contract" ())
  in
  let standby_progress_before_crash =
    match !advanced_key with
    | None -> 0
    | Some key ->
        Seq_tracker.progress
          (Guard.seq_tracker (Accounting_server.guard (Shard.standby_server bank)))
          ~now:(Sim.Net.now net) key
  in
  (* 4. Let virtual time reach the crash: harmless owner reads against the
        bank until the fault plan has taken the primary down. *)
  let spins = ref 0 in
  while Sim.Net.now net < crash_at && !spins < 10_000 do
    incr spins;
    ignore (Accounting_server.balance ~retry ~via net ~creds:bob_bank ~name:"bob" ~currency:usd)
  done;
  (* 5. Mid-sequence failover: the debit must succeed exactly once on the
        promoted standby, which learned the progress from replication. *)
  let failover_debit_ok = match debit () with Ok n -> n = amount | Error _ -> false in
  (* 6. The sequence is exhausted: a repeat debit must bounce. *)
  let second_debit_denied = Result.is_error (debit ()) in
  Sim.Net.clear_fault_plan net;
  let authoritative = Shard.authoritative bank in
  let balance_of name =
    Ledger.balance (Accounting_server.ledger authoritative) ~name ~currency:usd
  in
  let promotions = Sim.Metrics.get m "cluster.promotions" in
  {
    crashed_node;
    promotions;
    seq_advances = Sim.Metrics.get m "seq_tracker.advances";
    seq_imports = Sim.Metrics.get m "seq_tracker.imports";
    alice_available = balance_of "alice";
    bob_available = balance_of "bob";
    gates =
      [ ("out-of-order debit denied", attack_denied);
        ("in-order open granted", open_ok);
        ("reopen denied: step consumed", reopen_denied);
        (* the standby tracker's view right after the open: 1 proves the
           journal carried the handover before the crash *)
        ("standby held the progress before the crash", standby_progress_before_crash = 1);
        ("debit granted once after failover", failover_debit_ok);
        ("repeat debit denied: sequence exhausted", second_debit_denied);
        ("standby promoted", promotions >= 1) ];
    digest = Drive.digest net;
  }

let entry cfg =
  Drive.entry ~label:"seq" ~gates:(fun o -> o.gates) ~digest:(fun o -> o.digest) (fun () ->
      run cfg)
