(* proxykit command-line tool: self-tests, a scripted demo, key generation,
   and a wire-blob inspector. *)

open Cmdliner

let hex_of_string s =
  let buf = Buffer.create (2 * String.length s) in
  String.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%02x" (Char.code c))) s;
  Buffer.contents buf

let string_of_hex s =
  if String.length s mod 2 <> 0 then Error "odd-length hex"
  else
    try
      Ok
        (String.init (String.length s / 2) (fun i ->
             Char.chr (int_of_string ("0x" ^ String.sub s (2 * i) 2))))
    with _ -> Error "invalid hex"

(* --- selftest --- *)

let selftest () =
  let failures = ref 0 in
  let check name ok =
    Printf.printf "  %-40s %s\n" name (if ok then "PASS" else "FAIL");
    if not ok then incr failures
  in
  print_endline "crypto self-test:";
  check "SHA-256 empty-string vector"
    (Crypto.Sha256.hex_digest ""
    = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  check "SHA-256 'abc' vector"
    (Crypto.Sha256.hex_digest "abc"
    = "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  check "HMAC-SHA256 RFC 4231 case 2"
    (Crypto.Sha256.to_hex (Crypto.Hmac.mac ~key:"Jefe" "what do ya want for nothing?")
    = "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
  let key = Crypto.Sha256.digest "k" and nonce = String.make 12 'n' in
  check "ChaCha20 involution"
    (Crypto.Chacha20.encrypt ~key ~nonce (Crypto.Chacha20.encrypt ~key ~nonce "roundtrip")
    = "roundtrip");
  let box = Crypto.Aead.seal ~key ~nonce "sealed payload" in
  check "AEAD roundtrip" (Crypto.Aead.open_ ~key box = Some "sealed payload");
  check "AEAD tamper detection"
    (Crypto.Aead.open_ ~key { box with Crypto.Aead.tag = String.make 32 '\x00' } = None);
  let drbg = Crypto.Drbg.create ~seed:"selftest" in
  let rsa = Crypto.Rsa.generate drbg ~bits:512 in
  let signature = Crypto.Rsa.sign rsa "message" in
  check "RSA-512 sign/verify" (Crypto.Rsa.verify rsa.Crypto.Rsa.pub ~msg:"message" ~signature);
  check "RSA rejects altered message"
    (not (Crypto.Rsa.verify rsa.Crypto.Rsa.pub ~msg:"other" ~signature));
  print_endline "proxy self-test:";
  let alice = Principal.make ~realm:"self" "alice" in
  let session_key = Crypto.Drbg.generate drbg 32 in
  let proxy =
    Proxy.grant_conventional ~drbg ~now:0 ~expires:1000 ~grantor:alice ~session_key ~base:"b"
      ~restrictions:[ Restriction.Quota ("usd", 5) ]
  in
  let open_base _ =
    Ok
      {
        Verifier.base_client = alice;
        base_session_key = session_key;
        base_expires = 1000;
        base_restrictions = [];
      }
  in
  let chain = match proxy.Proxy.flavor with Proxy.Conventional c -> c | _ -> assert false in
  check "conventional grant/verify"
    (Result.is_ok (Verifier.verify_conventional ~open_base ~now:1 chain));
  check "expired proxy rejected"
    (Result.is_error (Verifier.verify_conventional ~open_base ~now:2000 chain));
  if !failures = 0 then begin
    print_endline "all self-tests passed";
    0
  end
  else begin
    Printf.printf "%d self-test(s) FAILED\n" !failures;
    1
  end

(* --- demo --- *)

let demo seed verbose =
  if verbose then begin
    Logs.set_reporter (Logs_fmt.reporter ());
    Logs.set_level (Some Logs.Debug)
  end;
  let w = World.create ~seed () in
  let alice, _ = World.enrol w "alice" in
  let bob, _ = World.enrol w "bob" in
  let fs_name, fs_key = World.enrol w "fileserver" in
  let acl = Acl.create () in
  Acl.add acl ~target:"report.txt"
    { Acl.subject = Acl.Principal_is alice; rights = []; restrictions = [] };
  let fs = File_server.create w.World.net ~me:fs_name ~my_key:fs_key ~acl () in
  File_server.install fs;
  File_server.put_direct fs ~path:"report.txt" "numbers are up";
  Printf.printf "world (seed %S): kdc, file server, alice (owner), bob\n" seed;
  let tgt = World.login w alice in
  let cap =
    match
      Capability.mint_via_kdc w.World.net ~kdc:w.World.kdc_name ~tgt ~end_server:fs_name
        ~target:"report.txt" ~ops:[ "read" ] ()
    with
    | Ok c -> c
    | Error e -> failwith e
  in
  Printf.printf "alice minted a read capability for report.txt\n";
  let creds_b = World.credentials_for w ~tgt:(World.login w bob) fs_name in
  let presented =
    File_server.attach w.World.net ~proxy:cap ~server:fs_name ~operation:"read"
      ~path:"report.txt"
  in
  (match File_server.read w.World.net ~creds:creds_b ~proxies:[ presented ] ~path:"report.txt" () with
  | Ok content -> Printf.printf "bob read through the capability: %S\n" content
  | Error e -> Printf.printf "unexpected failure: %s\n" e);
  (match File_server.read w.World.net ~creds:creds_b ~path:"report.txt" () with
  | Error e -> Printf.printf "bob without the capability is refused: %s\n" e
  | Ok _ -> print_endline "BUG: unauthorized read succeeded");
  let m = Sim.Net.metrics w.World.net in
  Printf.printf "totals: %d messages, %d bytes on the simulated network\n"
    (Sim.Metrics.get m "net.messages") (Sim.Metrics.get m "net.bytes");
  0

(* --- keygen --- *)

let keygen bits seed =
  if bits < 512 then begin
    prerr_endline "keygen: need at least 512 bits for SHA-256 signatures";
    1
  end
  else begin
    let drbg = Crypto.Drbg.create ~seed in
    let key = Crypto.Rsa.generate drbg ~bits in
    let pub_bytes = Crypto.Rsa.public_to_bytes key.Crypto.Rsa.pub in
    Printf.printf "modulus bits: %d\n" (Bignum.Nat.bit_length key.Crypto.Rsa.pub.Crypto.Rsa.n);
    Printf.printf "public key:   %s\n" (hex_of_string pub_bytes);
    Printf.printf "fingerprint:  %s\n"
      (String.sub (Crypto.Sha256.hex_digest pub_bytes) 0 16);
    0
  end

(* --- inspect --- *)

let inspect hex =
  match string_of_hex hex with
  | Error e ->
      Printf.eprintf "inspect: %s\n" e;
      1
  | Ok bytes -> (
      match Wire.decode bytes with
      | Error e ->
          Printf.eprintf "inspect: not a wire value: %s\n" e;
          1
      | Ok v ->
          Format.printf "%a@." Wire.pp v;
          (* If it parses as a restriction list or presentation, say so. *)
          (match Restriction.list_of_wire v with
          | Ok rs when rs <> [] ->
              Format.printf "as restrictions:@.";
              List.iter (fun r -> Format.printf "  - %a@." Restriction.pp r) rs
          | Ok _ | Error _ -> ());
          (match Proxy.presentation_of_wire v with
          | Ok (Proxy.Conventional c) ->
              Format.printf "as presentation: conventional chain, %d certificate(s)@."
                (List.length c.Proxy.cert_blobs)
          | Ok (Proxy.Public_key certs) ->
              Format.printf "as presentation: public-key chain, %d certificate(s)@."
                (List.length certs);
              List.iter
                (fun (c : Proxy_cert.pk_cert) ->
                  Format.printf "  grantor %a, serial %s..., %d restriction(s)@." Principal.pp
                    c.Proxy_cert.pk_body.Proxy_cert.grantor
                    (String.sub c.Proxy_cert.pk_body.Proxy_cert.serial 0 8)
                    (List.length c.Proxy_cert.pk_body.Proxy_cert.restrictions))
                certs
          | Ok (Proxy.Hybrid (head, blobs)) ->
              Format.printf
                "as presentation: hybrid, grantor %a for %a, %d cascade certificate(s)@."
                Principal.pp head.Proxy_cert.h_body.Proxy_cert.grantor Principal.pp
                head.Proxy_cert.h_end_server (List.length blobs)
          | Error _ -> ());
          (match Proxy.presentation_of_wire v with
          | Ok pres ->
              Format.printf "audit chain:@.%a@." Audit.pp_chain
                (Audit.chain_of_presentation pres)
          | Error _ -> ());
          0)

(* --- cmdliner wiring --- *)

let selftest_cmd =
  Cmd.v (Cmd.info "selftest" ~doc:"Run crypto and proxy self-tests")
    Term.(const selftest $ const ())

let demo_cmd =
  let seed =
    Arg.(value & opt string "demo" & info [ "seed" ] ~docv:"SEED" ~doc:"Deterministic seed")
  in
  let verbose =
    Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Log every simulated network message")
  in
  Cmd.v (Cmd.info "demo" ~doc:"Run the capability demo scenario")
    Term.(const demo $ seed $ verbose)

let keygen_cmd =
  let bits =
    Arg.(value & opt int 512 & info [ "bits" ] ~docv:"BITS" ~doc:"RSA modulus size")
  in
  let seed =
    Arg.(value & opt string "keygen" & info [ "seed" ] ~docv:"SEED" ~doc:"Deterministic seed")
  in
  Cmd.v (Cmd.info "keygen" ~doc:"Generate a deterministic RSA key pair")
    Term.(const keygen $ bits $ seed)

let inspect_cmd =
  let blob = Arg.(required & pos 0 (some string) None & info [] ~docv:"HEX") in
  Cmd.v
    (Cmd.info "inspect" ~doc:"Decode a hex-encoded wire value (restrictions, presentations)")
    Term.(const inspect $ blob)

let bench list_only ids =
  if list_only then begin
    List.iter (fun (id, desc, _) -> Printf.printf "  %-4s %s\n" id desc) Experiments.all;
    0
  end
  else begin
    Experiments.run ids;
    0
  end

let bench_cmd =
  let ids = Arg.(value & pos_all string [] & info [] ~docv:"ID" ~doc:"Experiment ids (default: all)") in
  let list_only = Arg.(value & flag & info [ "list" ] ~doc:"List experiment ids and exit") in
  Cmd.v
    (Cmd.info "bench"
       ~doc:"Regenerate the paper's experiment tables and their BENCH_<ID>.json artifacts")
    Term.(const bench $ list_only $ ids)

let bench_check baseline current =
  match (Benchout.load baseline, Benchout.load current) with
  | Error e, _ ->
      Printf.eprintf "bench-check: %s: %s\n" baseline e;
      1
  | _, Error e ->
      Printf.eprintf "bench-check: %s: %s\n" current e;
      1
  | Ok b, Ok c -> (
      match Benchout.check ~baseline:b ~current:c with
      | Ok () ->
          Printf.printf "bench-check: OK — %s: %d row(s), logical metrics match baseline\n"
            c.Benchout.id
            (List.length c.Benchout.rows);
          0
      | Error msgs ->
          Printf.eprintf "bench-check: %s: logical metrics diverged from baseline:\n"
            c.Benchout.id;
          List.iter (fun m -> Printf.eprintf "  - %s\n" m) msgs;
          1)

let bench_check_cmd =
  let baseline =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"BASELINE" ~doc:"Committed BENCH_*.json")
  in
  let current =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"CURRENT" ~doc:"Freshly generated BENCH_*.json")
  in
  Cmd.v
    (Cmd.info "bench-check"
       ~doc:
         "Validate two BENCH_*.json artifacts and compare their logical (integer) metrics — \
          ops, bytes, crypto-op counts — exactly; timings are never compared. Exits non-zero \
          on schema errors or divergence.")
    Term.(const bench_check $ baseline $ current)

(* --- scenario entries ---

   Each scenario subcommand maps its options to a driver config and hands
   the driver's entry to [Drive.main], which prints the report below, then
   the driver's gates; under --smoke it also reruns the entry's reference
   and gates on digest equality. *)

(* Options the entries share; each entry picks its own defaults. *)
let seed_t default =
  Arg.(value & opt string default & info [ "seed" ] ~docv:"SEED" ~doc:"Deterministic seed")

let drop_t default =
  Arg.(value & opt float default & info [ "drop" ] ~docv:"P" ~doc:"Per-message drop probability")

let duplicate_t default =
  Arg.(value & opt float default
       & info [ "duplicate" ] ~docv:"P" ~doc:"Per-message duplication probability")

let retries_t default =
  Arg.(value & opt int default & info [ "retries" ] ~docv:"N" ~doc:"Client retransmission budget")

let timeout_t =
  Arg.(value & opt int 10_000 & info [ "timeout" ] ~docv:"US" ~doc:"Client timeout (us)")

let domains_t
    ?(doc =
      "Run the lane-parallel engine on N OCaml domains (0 = the classic synchronous scenario). \
       With --smoke, gates that the run is byte-identical to the same seed at --domains 1") () =
  Arg.(value & opt int 0 & info [ "domains" ] ~docv:"N" ~doc)

let smoke_t doc = Arg.(value & flag & info [ "smoke" ] ~doc)
let pct p = p *. 100.

let chaos_cmd =
  let ops = Arg.(value & opt int 40 & info [ "ops" ] ~docv:"N" ~doc:"Workload operations") in
  let jitter =
    Arg.(value & opt int 2_000 & info [ "jitter" ] ~docv:"US" ~doc:"Max extra latency (us)")
  in
  let no_crash =
    Arg.(value & flag & info [ "no-crash" ] ~doc:"Skip the drawee-bank crash window")
  in
  let report (o : Chaos.outcome) =
    Printf.printf "  goodput:            %d/%d operations succeeded\n" o.succeeded o.attempted;
    Printf.printf "  faults injected:    %d dropped, %d duplicated\n" o.faults_dropped
      o.faults_duplicated;
    Printf.printf "  retransmissions:    %d (%d calls gave up, %d absorbed by response caches)\n"
      o.retries_used o.gave_up o.dedups;
    Option.iter
      (fun d ->
        Printf.printf "  latency per call:   mean %.0f us, max %d us\n" (Sim.Metrics.mean d)
          d.Sim.Metrics.max)
      o.latency;
    Printf.printf "  checks redeemed:    %d\n" (List.length o.redemptions)
  in
  let chaos seed ops drop duplicate jitter no_crash retries timeout =
    Printf.printf
      "chaos run: seed %S, %d ops, drop %.0f%%, duplicate %.0f%%, jitter <=%d us,%s %d retries\n%!"
      seed ops (pct drop) (pct duplicate) jitter
      (if no_crash then "" else " drawee crash window,")
      retries;
    Drive.main ~smoke:false ~report
      (Chaos.entry
         {
           Chaos.seed;
           ops;
           drop;
           duplicate;
           jitter_us = jitter;
           crash_drawee = not no_crash;
           retries;
           timeout_us = timeout;
         })
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Run the two-bank accounting workload under seeded fault injection and check the \
          robustness invariants (value conservation, at-most-once redemption); exits non-zero \
          on violation")
    Term.(const chaos $ seed_t "chaos" $ ops $ drop_t 0.15 $ duplicate_t 0.10 $ jitter $ no_crash
          $ retries_t 8 $ timeout_t)

(* The lane-parallel engine behind cluster, seq and load at --domains N. *)
let lanes ~smoke (cfg : Cluster.Lanes.config) =
  let e = Cluster.Lanes.entry cfg in
  Printf.printf "%s run: seed %S, %d shard(s) on %d domain(s)\n%!" e.Drive.label cfg.seed
    cfg.shards cfg.domains;
  let report (o : Cluster.Lanes.outcome) =
    Printf.printf "  epochs:             %d run, %d cross-lane message(s) delivered\n" o.epochs_run
      o.delivered;
    Printf.printf "  goodput:            %d/%d operations succeeded\n" o.succeeded o.attempted;
    if o.remote_sent > 0 || o.remote_cleared > 0 then
      Printf.printf "  remote clearing:    %d check(s) mailed, %d cleared, %d bounced\n"
        o.remote_sent o.remote_cleared o.remote_bounced
  in
  Drive.main ~smoke ~report e

let cluster_cmd =
  let shards =
    Arg.(value & opt int 4 & info [ "shards" ] ~docv:"N" ~doc:"Bank shards (each primary+standby)")
  in
  let ops = Arg.(value & opt int 60 & info [ "ops" ] ~docv:"N" ~doc:"Workload operations") in
  let buyers = Arg.(value & opt int 4 & info [ "buyers" ] ~docv:"N" ~doc:"Buyer principals") in
  let no_crash = Arg.(value & flag & info [ "no-crash" ] ~doc:"Skip the primary crash") in
  let crash_buyer =
    Arg.(value & flag
         & info [ "crash-buyer" ] ~doc:"Crash buyer-0's shard primary (a drawee) instead of the shop's")
  in
  let crash_after =
    Arg.(value & opt int 30_000
         & info [ "crash-after" ] ~docv:"US" ~doc:"Crash instant relative to workload start (us)")
  in
  let report (o : Cluster.Scenario.outcome) =
    Printf.printf "  shards:             %s (crashed primary: %s)\n"
      (String.concat ", " o.shard_ids)
      (Option.value o.crashed_node ~default:"none");
    Printf.printf "  goodput:            %d/%d operations succeeded\n" o.succeeded o.attempted;
    Printf.printf "  failover:           %d failover(s), %d promotion(s)\n" o.failovers
      o.promotions;
    Printf.printf "  replication:        %d batch(es) shipped, %d failed\n" o.repl_shipped
      o.repl_failures;
    Printf.printf "  retransmissions:    %d (%d gave up, %d absorbed by response caches)\n"
      o.retries_used o.gave_up o.dedups;
    Printf.printf "  latency per op:     p50 %d us, p99 %d us (%d messages)\n" o.p50_us o.p99_us
      o.messages;
    Printf.printf "  checks redeemed:    %d\n" (List.length o.redemptions)
  in
  let cluster seed shards ops buyers drop duplicate no_crash crash_buyer crash_after retries
      timeout domains smoke =
    if domains > 0 then
      lanes ~smoke
        {
          Cluster.Lanes.seed;
          shards;
          domains;
          epochs = 6;
          ops_per_epoch = max 1 (ops / 6);
          buyers;
          drop;
          duplicate;
          retries;
          timeout_us = timeout;
          flavor = Cluster.Lanes.Checks;
        }
    else begin
      (* A smoke always crashes a primary: its gates ask for the failover. *)
      let crash =
        if no_crash then if smoke then Cluster.Scenario.Shop_primary else Cluster.Scenario.No_crash
        else if crash_buyer then Cluster.Scenario.Buyer_primary
        else Cluster.Scenario.Shop_primary
      in
      Printf.printf
        "cluster run: seed %S, %d shard(s), %d ops, %d buyer(s), drop %.0f%%, duplicate %.0f%%\n%!"
        seed shards ops buyers (pct drop) (pct duplicate);
      Drive.main ~smoke ~report
        (Cluster.Scenario.entry
           {
             Cluster.Scenario.seed;
             shards;
             ops;
             buyers;
             drop;
             duplicate;
             crash;
             crash_after_us = crash_after;
             retries;
             timeout_us = timeout;
           })
    end
  in
  Cmd.v
    (Cmd.info "cluster"
       ~doc:
         "Run the sharded accounting cluster scenario: consistent-hash placement over \
          primary/standby shard pairs with replay-log replication, under seeded faults that \
          crash a primary mid-run; checks conservation and exactly-once redemption across \
          the failover")
    Term.(const cluster $ seed_t "cluster" $ shards $ ops $ buyers $ drop_t 0.05
          $ duplicate_t 0.05 $ no_crash $ crash_buyer $ crash_after $ retries_t 8 $ timeout_t
          $ domains_t ()
          $ smoke_t
              "Run the acceptance gates: forced failover with conservation, exactly-once \
               redemption, and a byte-identical same-seed rerun; exit non-zero on violation")

let seq_cmd =
  let crash_after =
    Arg.(value & opt int 40_000
         & info [ "crash-after" ] ~docv:"US"
             ~doc:"Bank-primary crash instant relative to chaos start (us)")
  in
  let report (o : Cluster.Seq_scenario.outcome) =
    Printf.printf "  handover:       %d advance(s), %d import(s)\n" o.seq_advances o.seq_imports;
    Printf.printf "  failover:       %s crashed, %d promotion(s)\n" o.crashed_node o.promotions;
    Printf.printf "  balances:       alice %d, bob %d\n" o.alice_available o.bob_available
  in
  let seq seed drop duplicate retries timeout crash_after domains smoke =
    if domains > 0 then
      lanes ~smoke
        {
          Cluster.Lanes.default with
          Cluster.Lanes.seed;
          shards = max 2 domains;
          domains;
          drop;
          duplicate;
          retries;
          timeout_us = timeout;
          flavor = Cluster.Lanes.Seq;
        }
    else begin
      Printf.printf "seq run: seed %S, drop %.0f%%, duplicate %.0f%%, crash at +%d us\n%!" seed
        (pct drop) (pct duplicate) crash_after;
      Drive.main ~smoke ~report
        (Cluster.Seq_scenario.entry
           {
             Cluster.Seq_scenario.seed;
             drop;
             duplicate;
             retries;
             timeout_us = timeout;
             crash_after_us = crash_after;
           })
    end
  in
  Cmd.v
    (Cmd.info "seq"
       ~doc:
         "Run the two-server sequence scenario: one Sequence restriction spans a file server \
          and a sharded bank (an fs open gates a bank debit); earned progress is handed over \
          and journalled to the standby, surviving a mid-sequence primary crash")
    Term.(const seq $ seed_t "seq" $ drop_t 0.05 $ duplicate_t 0.05 $ retries_t 8 $ timeout_t
          $ crash_after $ domains_t ()
          $ smoke_t
              "Run the acceptance gates: out-of-order presentations denied, the in-order \
               sequence accepted exactly once across a mid-sequence primary crash, and a \
               byte-identical same-seed rerun; exit non-zero on violation")

let load_cmd =
  let population =
    Arg.(value & opt int 100_000
         & info [ "population" ] ~docv:"N"
             ~doc:"Principal universe size (lazy: only touched principals are materialized)")
  in
  let objects =
    Arg.(value & opt int 512 & info [ "objects" ] ~docv:"N" ~doc:"Guarded files on the server")
  in
  let shards =
    Arg.(value & opt int 4
         & info [ "shards" ] ~docv:"N" ~doc:"Accounting shards (each primary+standby)")
  in
  let sweep_width =
    Arg.(value & opt int 6
         & info [ "sweep-width" ] ~docv:"N" ~doc:"Balance queries coalesced per audit sweep")
  in
  let churn_every =
    Arg.(value & opt int 16
         & info [ "churn-every" ] ~docv:"N"
             ~doc:"Retire the oldest materialized principal every N arrivals (0 = never)")
  in
  let no_pipeline =
    Arg.(value & flag
         & info [ "no-pipeline" ] ~doc:"Issue sweep balance queries as N serial calls")
  in
  let report (o : Load.Driver.outcome) =
    let m = Load.Driver.metric o in
    Printf.printf "  goodput:        %d/%d arrivals ok (%d failed)\n" o.succeeded o.arrivals
      o.failed;
    Printf.printf "  latency:        p50 %d us, p99 %d us, max %d us (open-loop, incl. lateness)\n"
      o.p50_us o.p99_us o.max_us;
    Printf.printf "  population:     %d touched, %d materializations, %d retired\n" o.touched
      o.materializations o.retired;
    Printf.printf "  key pool:       %d generated, %d reused\n" o.keys_generated o.keys_reused;
    Printf.printf "  mix:            %d grants, %d presents, %d debits, %d clears, %d sweeps\n"
      o.grants o.presents o.debits o.clears o.sweeps;
    Printf.printf "  verification:   %d rsa verifies; verify cache %d hit(s) / %d miss(es)\n"
      (m "crypto.rsa_verify") (m "verify_cache.hits") (m "verify_cache.misses");
    Printf.printf "  pipelining:     %d batch call(s), %d coalesced, %d item(s)\n"
      (m "rpc.batch.calls") (m "rpc.batch.coalesced") (m "rpc.batch.items");
    Printf.printf "  replication:    %d ship(s) (%d replies, %d ops), %d read skip(s)\n"
      (m "cluster.repl_shipped") (m "cluster.repl_replies_shipped") (m "cluster.repl_ops_shipped")
      (m "cluster.repl_read_skips");
    Printf.printf "  spans:          %d\n" o.span_count
  in
  let load seed population objects shards sweep_width churn_every no_pipeline retries timeout
      domains smoke =
    if domains > 0 then
      lanes ~smoke
        {
          Cluster.Lanes.default with
          Cluster.Lanes.seed;
          shards;
          domains;
          epochs = 6;
          ops_per_epoch = 8;
          buyers = 4;
          retries;
          timeout_us = timeout;
          flavor = Cluster.Lanes.Load;
        }
    else begin
      (* A smoke runs batched: its gates ask for the hot path to engage. *)
      let cfg =
        {
          Load.Driver.default with
          Load.Driver.seed;
          population;
          objects;
          shards;
          sweep_width;
          churn_every;
          pipeline = smoke || not no_pipeline;
          retries;
          timeout_us = timeout;
        }
      in
      Printf.printf
        "load run: seed %S, %d principals (lazy), %d objects, %d shard(s), pipelining %s\n%!"
        seed population objects shards
        (if cfg.pipeline then "on" else "off");
      Drive.main ~smoke ~report (Load.Driver.entry cfg)
    end
  in
  Cmd.v
    (Cmd.info "load"
       ~doc:
         "Drive a deterministic open-loop mixed workload (grants, presentations, debits, \
          check clearing, audit sweeps) from a lazily-materialized Zipf population against \
          the full stack, and report goodput and latency percentiles")
    Term.(const load $ seed_t "l1" $ population $ objects $ shards $ sweep_width $ churn_every
          $ no_pipeline $ retries_t 4 $ timeout_t $ domains_t ()
          $ smoke_t
              "Run the acceptance gates: batched hot path engaged (coalesced sweeps, \
               replication read-skips) and byte-identical same-seed reruns with batching on \
               and off; exit non-zero on violation")

let revoke_cmd =
  let grants =
    Arg.(value & opt int 6
         & info [ "grants" ] ~docv:"N" ~doc:"Proxies the doomed grantor issues (storm width)")
  in
  let staleness_bound =
    Arg.(value & opt int 600_000_000
         & info [ "staleness-bound" ] ~docv:"US"
             ~doc:"Bulletin staleness bound before servers fail closed (us)")
  in
  let lifetime =
    Arg.(value & opt int 900_000_000
         & info [ "lifetime" ] ~docv:"US" ~doc:"Short-TTL proxy lifetime (us)")
  in
  let report (o : Cluster.Revocation_storm.outcome) =
    Printf.printf "  warm reads served:         %d\n" o.warm_reads;
    Printf.printf "  revocations accepted:      %d (final epoch %d)\n" o.revocations o.final_epoch;
    Printf.printf "  degradation-window serves: %d\n" o.stale_window_served;
    Printf.printf "  fail-closed when stale:    %d denial(s)\n" o.stale_denials;
    Printf.printf "  direct ACL while stale:    %d read(s)\n" o.direct_reads_while_stale;
    Printf.printf "  cache invalidation storm:  %d entries over %d generation bump(s)\n"
      o.invalidations o.generation_bumps
  in
  let revoke seed grants staleness_bound lifetime smoke =
    Printf.printf
      "revocation storm: seed %S, %d grant(s), staleness bound %d us, proxy TTL %d us\n%!" seed
      grants staleness_bound lifetime;
    Drive.main ~smoke ~report
      (Cluster.Revocation_storm.entry
         {
           Cluster.Revocation_storm.seed;
           grants;
           staleness_bound_us = staleness_bound;
           lifetime_us = lifetime;
         })
  in
  Cmd.v
    (Cmd.info "revoke"
       ~doc:
         "Run the revocation-storm scenario: signed epoch bulletins revoke a grantor's output \
          while one subscriber is partitioned from the authority — immediate denial plus \
          verify-cache invalidation on fresh servers, a bounded degradation window then \
          fail-closed behaviour on stale ones, short-TTL refresh for healthy grantors, and \
          bulletin delivery to both replicas of a bank shard")
    Term.(const revoke $ seed_t "revocation-storm" $ grants $ staleness_bound $ lifetime
          $ smoke_t
              "Run the acceptance gates: conservation across the bounced check, fail-closed \
               when stale, and a byte-identical same-seed rerun; exit non-zero on violation")

let federate_cmd =
  let members =
    Arg.(value & opt int 3
         & info [ "members" ] ~docv:"N" ~doc:"Members of the replicated group")
  in
  let staleness_bound =
    Arg.(value & opt int 600_000_000
         & info [ "staleness-bound" ] ~docv:"US"
             ~doc:"Membership-replica staleness bound before it fails closed (us)")
  in
  let report (o : Cluster.Federation.outcome) =
    Printf.printf "  forged TGT refused with:   %s\n" o.forged_error;
    Printf.printf "  cross-realm TGTs accepted: %d\n" o.cross_tgs;
    Printf.printf "  stale replica refused:     %s\n" o.stale_error;
    Printf.printf "  replica counters:          %d hit(s), %d stale denial(s), %d snapshot(s) \
                   applied, epoch %d\n"
      o.replica_hits o.replica_stale_denials o.snapshots_applied o.replica_epoch
  in
  let report_lanes (o : Cluster.Federation.lanes_outcome) =
    Printf.printf "  epochs run: %d, snapshots delivered: %d\n" o.l_epochs_run o.l_delivered
  in
  let federate seed members staleness_bound domains smoke =
    let cfg = { Cluster.Federation.seed; members; staleness_bound_us = staleness_bound } in
    if domains > 0 then begin
      Printf.printf "federate lanes: seed %S, %d domain(s), one realm per lane\n%!" seed domains;
      Drive.main ~smoke ~report:report_lanes (Cluster.Federation.lanes_entry ~domains cfg)
    end
    else begin
      Printf.printf
        "federation: seed %S, 3 realms, %d group member(s), staleness bound %d us\n%!" seed
        members staleness_bound;
      Drive.main ~smoke ~report (Cluster.Federation.entry cfg)
    end
  in
  Cmd.v
    (Cmd.info "federate"
       ~doc:
         "Run the cross-realm federation scenario: three realms with pairwise inter-realm \
          keys, forged-TGT probes against the trusting TGS, cascaded authorization whose \
          chain crosses all three realms, granter recovery after a link rekey, and a \
          Grapevine-style replicated group served across a partition of the origin realm")
    Term.(const federate $ seed_t "federation" $ members $ staleness_bound
          $ domains_t
              ~doc:
                "Run the lane-parallel variant on N OCaml domains, one realm per lane (0 = the \
                 classic synchronous three-realm scenario). With --smoke, gates that the run \
                 is byte-identical to the same seed at --domains 1"
              ()
          $ smoke_t
              "Run the acceptance gates: forged inter-realm TGTs refused with the pinned \
               realm-mismatch error, the legitimate three-realm cascade served, the membership \
               replica serving through a partition then failing closed past its staleness \
               bound, and a byte-identical same-seed rerun; exit non-zero on violation")

(* --- trace --- *)

let write_artifact ~what path content =
  if path = "-" then print_string content
  else begin
    let oc = open_out path in
    output_string oc content;
    close_out oc;
    Printf.printf "trace: wrote %s to %s (%d bytes)\n" what path (String.length content)
  end

(* Per-kind rollup of span counts and summed self costs. *)
let kind_rollup spans =
  let order = ref [] in
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let k = s.Sim.Span.sp_kind in
      let count, costs =
        match Hashtbl.find_opt tbl k with
        | Some row -> row
        | None ->
            let row = (ref 0, Hashtbl.create 8) in
            Hashtbl.add tbl k row;
            order := k :: !order;
            row
      in
      incr count;
      List.iter
        (fun (c, v) ->
          Hashtbl.replace costs c (v + Option.value ~default:0 (Hashtbl.find_opt costs c)))
        s.Sim.Span.sp_costs)
    spans;
  List.rev_map (fun k -> (k, Hashtbl.find tbl k)) !order

let print_summary scenario (o : Tracing.outcome) =
  let spans = o.spans in
  Printf.printf "trace %s: %d/%d request(s) ok — %d span(s), %d actor(s), max depth %d%s\n"
    scenario o.ok o.requests (List.length spans)
    (List.length (Sim.Span.actors spans))
    (Sim.Span.max_depth spans)
    (if o.dropped = 0 then ""
     else Printf.sprintf " (%d span(s) dropped by the ring)" o.dropped);
  Printf.printf "  %-16s %6s %6s %8s %8s %10s\n" "kind" "count" "msgs" "bytes" "rsa.vfy"
    "cache.hits";
  List.iter
    (fun (kind, (count, costs)) ->
      let get name = Option.value ~default:0 (Hashtbl.find_opt costs name) in
      Printf.printf "  %-16s %6d %6d %8d %8d %10d\n" kind !count (get "net.messages")
        (get "net.bytes") (get "crypto.rsa_verify") (get "verify_cache.hits"))
    (kind_rollup spans)

let print_top spans n =
  let dur s = s.Sim.Span.sp_end - s.Sim.Span.sp_start in
  let sorted = List.stable_sort (fun a b -> compare (dur b) (dur a)) spans in
  let rec take k = function x :: tl when k > 0 -> x :: take (k - 1) tl | _ -> [] in
  Printf.printf "  top %d span(s) by inclusive duration:\n" n;
  List.iter
    (fun s ->
      Printf.printf "    %8d us  %-16s %-24s %s\n" (dur s) s.Sim.Span.sp_kind
        s.Sim.Span.sp_actor
        (String.concat " "
           (List.map (fun (k, v) -> Printf.sprintf "%s=%s" k v) s.Sim.Span.sp_attrs)))
    (take n sorted)

let trace_cmd =
  let scenario =
    Arg.(value & pos 0 string "f4"
         & info [] ~docv:"SCENARIO"
             ~doc:"Traced scenario: f4 (cascaded file-server authorization with an injected \
                   drop) or f5 (inter-bank check clearing)")
  in
  let seed =
    Arg.(value & opt (some string) None
         & info [ "seed" ] ~docv:"SEED" ~doc:"Deterministic seed (default: per-scenario)")
  in
  let requests =
    Arg.(value & opt (some int) None & info [ "requests" ] ~docv:"N" ~doc:"Traced requests")
  in
  let depth =
    Arg.(value & opt (some int) None
         & info [ "depth" ] ~docv:"D" ~doc:"Proxy cascade depth (f4 only)")
  in
  let chrome =
    Arg.(value & opt ~vopt:(Some "-") (some string) None
         & info [ "chrome" ] ~docv:"FILE"
             ~doc:"Export Chrome trace-event JSON (for chrome://tracing or ui.perfetto.dev) to \
                   $(docv), or stdout when given bare")
  in
  let jsonl =
    Arg.(value & opt ~vopt:(Some "-") (some string) None
         & info [ "jsonl" ] ~docv:"FILE"
             ~doc:"Export one JSON object per span (byte-identical across same-seed runs) to \
                   $(docv), or stdout when given bare")
  in
  let top =
    Arg.(value & opt int 0 & info [ "top" ] ~docv:"N" ~doc:"Show the $(docv) longest spans")
  in
  let trace scenario seed requests depth chrome jsonl top smoke =
    let entry =
      match scenario with
      | "f4" -> Ok (Tracing.f4_entry ?seed ?requests ?depth ())
      | "f5" ->
          if depth <> None then prerr_endline "trace: --depth only applies to f4; ignored";
          Ok (Tracing.f5_entry ?seed ?requests ())
      | other -> Error (Printf.sprintf "unknown scenario %S (known: f4, f5)" other)
    in
    match entry with
    | Error e ->
        Printf.eprintf "trace: %s\n" e;
        2
    | Ok entry ->
        let quiet = chrome = Some "-" || jsonl = Some "-" in
        let report (o : Tracing.outcome) =
          if not quiet then begin
            print_summary scenario o;
            if top > 0 then print_top o.spans top
          end;
          let write what export path = write_artifact ~what path (export o.spans) in
          Option.iter (write "chrome trace" Sim.Span.to_chrome_trace) chrome;
          Option.iter (write "jsonl" Sim.Span.to_jsonl) jsonl
        in
        if quiet && not smoke then begin
          (* The artifact owns stdout: exit on the gates without printing them. *)
          let o = entry.run () in
          report o;
          if List.for_all snd (entry.gates o) then 0 else 1
        end
        else Drive.main ~smoke ~report entry
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run a traced end-to-end scenario and report its causal span tree with per-span cost \
          attribution; optionally export Chrome trace / JSONL artifacts")
    Term.(const trace $ scenario $ seed $ requests $ depth $ chrome $ jsonl $ top
          $ smoke_t
              "Check the causal-tracing invariants (nesting depth, actor spread, exact cost \
               attribution, retry child, export validity, rerun byte-identity); exit non-zero \
               on violation")

(* --- model-based conformance testing --- *)

(* A repro file optionally records the mutation it was found under; replaying
   it with that mutation re-applied must still produce a finding (the mutant
   stays killed), while replaying without any mutation must find agreement. *)
let repro_mutation path =
  let prefix = "# found with injected mutation: " in
  let ic = open_in path in
  let found = ref None in
  (try
     while !found = None do
       let line = input_line ic in
       let pl = String.length prefix in
       if String.length line > pl && String.sub line 0 pl = prefix then
         found := Mbt.Exec.mutation_of_name (String.sub line pl (String.length line - pl))
     done
   with End_of_file -> ());
  close_in ic;
  !found

let replay_one path =
  let mutation = repro_mutation path in
  let expect_finding = mutation <> None in
  match Mbt.Runner.replay ?mutation path with
  | Error e ->
      Printf.printf "  %-40s FAIL (%s)\n" (Filename.basename path) e;
      false
  | Ok (Some f) when expect_finding ->
      Printf.printf "  %-40s OK (mutant still killed: %s)\n" (Filename.basename path)
        (Mbt.Runner.kind_name f.Mbt.Runner.f_kind);
      true
  | Ok None when not expect_finding ->
      Printf.printf "  %-40s OK (stack, cache and model agree)\n" (Filename.basename path);
      true
  | Ok (Some f) ->
      Printf.printf "  %-40s FAIL (unexpected disagreement: %s)\n" (Filename.basename path)
        f.Mbt.Runner.f_detail;
      false
  | Ok None ->
      Printf.printf "  %-40s FAIL (injected mutation no longer detected)\n"
        (Filename.basename path);
      false

let replay_repro_dir dir =
  let files =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".repro")
    |> List.sort compare
  in
  if files = [] then begin
    Printf.printf "mbt: no .repro files in %s\n" dir;
    true
  end
  else begin
    Printf.printf "mbt: replaying %d repro(s) from %s\n" (List.length files) dir;
    List.for_all replay_one (List.map (Filename.concat dir) files)
  end

let run_campaign ?mutation ?(require_coverage = false) ~seed_base ~n_seeds ~per_seed
    ~shrink_budget ~save () =
  let seeds = List.init n_seeds (fun i -> Printf.sprintf "%s-%d" seed_base i) in
  let t0 = Unix.gettimeofday () in
  let finding, stats =
    Mbt.Runner.campaign ?mutation ~seeds ~per_seed ()
  in
  let dt = Unix.gettimeofday () -. t0 in
  let rate = if dt > 0. then float_of_int stats.Mbt.Runner.programs /. dt else 0. in
  Printf.printf
    "mbt: %d program(s), %d op(s) (%d carrying sequences) across %d seed(s)%s — %.1f programs/s\n"
    stats.Mbt.Runner.programs stats.Mbt.Runner.ops stats.Mbt.Runner.seq_ops n_seeds
    (match mutation with
    | Some m -> Printf.sprintf " [mutation: %s]" (Mbt.Exec.mutation_name m)
    | None -> "")
    rate;
  (* The clean smoke must reach what it claims to check: sequence
     restrictions, and conventional-link opens answered by the verify
     cache, so the cache differential covers link memoization. *)
  if require_coverage then
    Printf.printf "mbt: %d conventional-link open(s) answered by the verify caches (cache on)\n"
      stats.Mbt.Runner.link_hits;
  let gate ok what =
    if require_coverage && not ok then Printf.printf "mbt: FAIL — the campaign %s\n" what;
    ok || not require_coverage
  in
  let seq_ok = gate (stats.Mbt.Runner.seq_ops > 0) "exercised no sequence restrictions" in
  let links_ok =
    gate (stats.Mbt.Runner.link_hits > 0) "served no conventional link from the verify cache"
  in
  let covered = seq_ok && links_ok in
  match (finding, mutation) with
  | None, None ->
      if covered then
        Printf.printf "mbt: conformance OK — stack, cache differential and model agree\n";
      covered
  | None, Some m ->
      Printf.printf "mbt: FAIL — injected mutation %s survived %d program(s)\n"
        (Mbt.Exec.mutation_name m) stats.Mbt.Runner.programs;
      false
  | Some f, _ ->
      Printf.printf "mbt: finding (%s) after %d program(s): %s\n"
        (Mbt.Runner.kind_name f.Mbt.Runner.f_kind)
        stats.Mbt.Runner.programs f.Mbt.Runner.f_detail;
      let f', candidates = Mbt.Runner.shrink ?mutation ~budget:shrink_budget f in
      Printf.printf "mbt: shrunk %d -> %d op(s) in %d candidate(s):\n"
        (List.length f.Mbt.Runner.f_program)
        (List.length f'.Mbt.Runner.f_program)
        candidates;
      List.iteri
        (fun i op -> Printf.printf "  op %d: %s\n" i (Format.asprintf "%a" Mbt.Program.pp_op op))
        f'.Mbt.Runner.f_program;
      (match save with
      | Some path ->
          Mbt.Runner.save_repro ~path ?mutation f';
          Printf.printf "mbt: repro written to %s\n" path
      | None -> ());
      (* A finding is the expected outcome under an injected mutation (the
         harness killed the mutant) and a failure otherwise. *)
      mutation <> None

let mbt smoke replay repros mutation_name seed_base n_seeds per_seed shrink_budget save =
  let mutation =
    match mutation_name with
    | None -> None
    | Some n -> (
        match Mbt.Exec.mutation_of_name n with
        | Some m -> Some m
        | None ->
            Printf.eprintf "mbt: unknown mutation %S (known: %s)\n" n
              (String.concat ", " (List.map Mbt.Exec.mutation_name Mbt.Exec.mutations));
            exit 2)
  in
  let ok =
    if smoke then begin
      (* CI budget: a clean mini-campaign, one kill check per mutation, and a
         replay of the committed repro corpus. *)
      let clean =
        run_campaign ~require_coverage:true ~seed_base:"smoke" ~n_seeds:2 ~per_seed:20
          ~shrink_budget ~save:None ()
      in
      let kills =
        (* Seed chosen (deterministically probed) so every mutation is
           found well inside the budget; the [--programs] headroom guards
           against generator drift, not randomness. *)
        List.for_all
          (fun m ->
            run_campaign ~mutation:m ~seed_base:"rk-4" ~n_seeds:1 ~per_seed:80
              ~shrink_budget:120 ~save:None ())
          Mbt.Exec.mutations
      in
      let repros_ok =
        if Sys.file_exists "test/repros" && Sys.is_directory "test/repros" then
          replay_repro_dir "test/repros"
        else true
      in
      clean && kills && repros_ok
    end
    else
      match (replay, repros) with
      | Some path, _ -> replay_one path
      | None, Some dir -> replay_repro_dir dir
      | None, None ->
          run_campaign ?mutation ~seed_base ~n_seeds ~per_seed ~shrink_budget ~save ()
  in
  if ok then 0 else 1

let mbt_cmd =
  let smoke =
    Arg.(value & flag
         & info [ "smoke" ]
             ~doc:"CI smoke: small clean campaign, one kill check per injected mutation, and a \
                   replay of test/repros/")
  in
  let replay =
    Arg.(value & opt (some string) None
         & info [ "replay" ] ~docv:"FILE" ~doc:"Replay one committed repro file")
  in
  let repros =
    Arg.(value & opt (some string) None
         & info [ "repros" ] ~docv:"DIR" ~doc:"Replay every .repro file in $(docv)")
  in
  let mutation =
    Arg.(value & opt (some string) None
         & info [ "mutation" ] ~docv:"NAME"
             ~doc:"Inject a named stack mutation; the campaign must find and shrink a disagreement \
                   (drop-derived-restriction, ignore-expiry, misbind-proof, ignore-bulletin, \
                   ignore-sequence-order, reset-progress-on-retry)")
  in
  let seed_base =
    Arg.(value & opt string "mbt" & info [ "seed" ] ~docv:"SEED" ~doc:"Campaign seed base")
  in
  let n_seeds =
    Arg.(value & opt int 5 & info [ "seeds" ] ~docv:"N" ~doc:"Number of campaign seeds")
  in
  let per_seed =
    Arg.(value & opt int 200 & info [ "programs" ] ~docv:"M" ~doc:"Programs per seed")
  in
  let shrink_budget =
    Arg.(value & opt int 400 & info [ "shrink-budget" ] ~docv:"N" ~doc:"Shrink candidate budget")
  in
  let save =
    Arg.(value & opt (some string) None
         & info [ "save" ] ~docv:"FILE" ~doc:"Write the shrunk finding as a repro file")
  in
  Cmd.v
    (Cmd.info "mbt"
       ~doc:
         "Model-based conformance testing: run generated authorization programs against the real \
          stack (verification cache on and off) and a pure reference model; disagreements shrink \
          to minimal replayable repro files. Exits non-zero on an unexpected disagreement, or — \
          under --mutation — when the injected bug survives.")
    Term.(const mbt $ smoke $ replay $ repros $ mutation $ seed_base $ n_seeds $ per_seed
          $ shrink_budget $ save)

(* --- wire-codec fuzzing --- *)

let fuzz smoke iters seed corpus save_corpus =
  let report (s : Mbt.Fuzz.stats) =
    Printf.printf
      "fuzz: %d mutant(s) (%d from the sequence seed): wire decode ok/err %d/%d, typed decode \
       ok/err %d/%d, %d crash(es)\n"
      s.Mbt.Fuzz.iterations s.Mbt.Fuzz.seq_iters s.Mbt.Fuzz.decode_ok s.Mbt.Fuzz.decode_error
      s.Mbt.Fuzz.typed_ok s.Mbt.Fuzz.typed_error
      (List.length s.Mbt.Fuzz.crashes);
    List.iter
      (fun (c : Mbt.Fuzz.crash) ->
        Printf.printf "  CRASH seed=%s stage=%s: %s\n    input: %s\n" c.Mbt.Fuzz.c_seed
          c.Mbt.Fuzz.c_stage c.Mbt.Fuzz.c_exn c.Mbt.Fuzz.c_input_hex)
      s.Mbt.Fuzz.crashes;
    s.Mbt.Fuzz.crashes = []
  in
  let replay_dir dir =
    let r = Mbt.Fuzz.replay_corpus ~dir in
    Printf.printf "fuzz: corpus %s: %d file(s), %d failure(s)\n" dir r.Mbt.Fuzz.files
      (List.length r.Mbt.Fuzz.failures);
    List.iter (fun (f, e) -> Printf.printf "  FAIL %s: %s\n" f e) r.Mbt.Fuzz.failures;
    r.Mbt.Fuzz.files > 0 && r.Mbt.Fuzz.failures = []
  in
  let ok =
    match save_corpus with
    | Some dir ->
        let n = Mbt.Fuzz.save_corpus ~dir in
        Printf.printf "fuzz: wrote %d corpus file(s) to %s\n" n dir;
        replay_dir dir
    | None ->
        if smoke then
          let stats = Mbt.Fuzz.run ~seed:"fuzz-smoke" ~iters:2_000 in
          let run_ok = report stats in
          let seq_ok =
            if stats.Mbt.Fuzz.seq_iters = 0 then begin
              Printf.printf "fuzz: FAIL — no mutants drawn from the sequence-restriction seed\n";
              false
            end
            else true
          in
          let corpus_ok =
            if Sys.file_exists "test/fuzz_corpus" && Sys.is_directory "test/fuzz_corpus" then
              replay_dir "test/fuzz_corpus"
            else true
          in
          run_ok && seq_ok && corpus_ok
        else (
          match corpus with
          | Some dir -> replay_dir dir
          | None -> report (Mbt.Fuzz.run ~seed ~iters))
  in
  if ok then 0 else 1

let fuzz_cmd =
  let smoke =
    Arg.(value & flag
         & info [ "smoke" ]
             ~doc:"CI smoke: 2000 deterministic mutants plus a replay of test/fuzz_corpus/")
  in
  let iters =
    Arg.(value & opt int 20_000 & info [ "iters" ] ~docv:"N" ~doc:"Number of mutants")
  in
  let seed =
    Arg.(value & opt string "fuzz" & info [ "seed" ] ~docv:"SEED" ~doc:"Deterministic seed")
  in
  let corpus =
    Arg.(value & opt (some string) None
         & info [ "corpus" ] ~docv:"DIR" ~doc:"Replay every .hex file in $(docv)")
  in
  let save_corpus =
    Arg.(value & opt (some string) None
         & info [ "save-corpus" ] ~docv:"DIR"
             ~doc:"(Re)generate the deterministic seed + mutant corpus into $(docv)")
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Mutation-based fuzzing of the wire codecs: every valid seed value must round-trip, and \
          no mutant may crash a decoder — malformed inputs fail closed with an error. Exits \
          non-zero on any crash or round-trip failure.")
    Term.(const fuzz $ smoke $ iters $ seed $ corpus $ save_corpus)

let main =
  Cmd.group
    (Cmd.info "proxykit" ~version:"1.0.0"
       ~doc:"Restricted proxies for distributed authorization and accounting (Neuman, ICDCS '93)")
    [ selftest_cmd; demo_cmd; keygen_cmd; inspect_cmd; bench_cmd; bench_check_cmd; chaos_cmd;
      cluster_cmd; seq_cmd; revoke_cmd; federate_cmd; load_cmd; trace_cmd; mbt_cmd; fuzz_cmd ]

let () = exit (Cmd.eval' main)
