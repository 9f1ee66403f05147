(* Benchmark harness: one experiment per figure/claim of the paper (see
   DESIGN.md section 4 and EXPERIMENTS.md for paper-vs-measured).

   The paper (ICDCS '93) is conceptual and reports no measurements, so each
   "figure" here is characterized by the quantities its protocol determines:
   messages and bytes on the simulated network, cryptographic operations,
   simulated latency, and sampled CPU time of the pure operations
   ([Benchout.time]). Baselines from Section 5 (Sollins, Amoeba, DSSA,
   Grapevine) run under identical conditions.

   An experiment builds its world, takes its integers from one untimed run,
   samples its timings, and returns rows; [run] hands them to
   [Benchout.emit], which prints the tables and writes the artifact. *)

module R = Restriction

(* ------------------------------------------------------------------ *)
(* measurement utilities                                              *)
(* ------------------------------------------------------------------ *)

(* Run [f] with a counting tally (no simulated net needed) and return its
   result plus the sorted per-counter totals — the logical crypto-op counts
   the JSON artifacts gate on. *)
let with_tally f =
  let tbl = Hashtbl.create 8 in
  let tally name =
    Hashtbl.replace tbl name (1 + Option.value (Hashtbl.find_opt tbl name) ~default:0)
  in
  let result = f tally in
  let counts = List.of_seq (Hashtbl.to_seq tbl) in
  (result, List.sort (fun (a, _) (b, _) -> compare a b) counts)

(* Run [f] once and report (result, metric deltas, virtual time elapsed). *)
let metered net f =
  let m = Sim.Net.metrics net in
  let before = Sim.Metrics.snapshot m in
  let t0 = Sim.Net.now net in
  let result = f () in
  let deltas = Sim.Metrics.diff ~before ~after:(Sim.Metrics.snapshot m) in
  (result, deltas, Sim.Net.now net - t0)

let delta key deltas = Option.value (List.assoc_opt key deltas) ~default:0

let crypto_ops deltas =
  List.fold_left
    (fun acc (k, v) ->
      if String.length k >= 7 && String.sub k 0 7 = "crypto." then acc + v else acc)
    0 deltas

let row ?(floats = []) label ints = { Benchout.label; ints; floats }

(* A server's base-ticket open, stood in for where an experiment verifies
   conventional chains without a server: the blob "base" names [client]
   under [session_key], and every open tallies one "crypto.open", as a
   server's real open does. *)
let stand_in_base ~client ~session_key tally blob =
  tally "crypto.open";
  if blob = "base" then
    Ok
      {
        Verifier.base_client = client;
        base_session_key = session_key;
        base_expires = max_int;
        base_restrictions = [];
      }
  else Error "unknown base"

(* Rollup of one traced phase: per span kind, count / messages / bytes /
   crypto ops summed over span self costs. Clears the collector so the next
   phase starts empty. *)
let span_phase_rows ~layer net =
  match Sim.Net.spans net with
  | None -> []
  | Some c ->
      let spans = Sim.Span.spans c in
      Sim.Span.clear c;
      List.map
        (fun (k, n, costs) ->
          let sum p =
            List.fold_left (fun acc (name, v) -> if p name then acc + v else acc) 0 costs
          in
          row (layer ^ ": " ^ k)
            [ ("count", n);
              ("messages", sum (String.equal "net.messages"));
              ("bytes", sum (String.equal "net.bytes"));
              ("crypto_ops", sum (String.starts_with ~prefix:"crypto.")) ])
        (Sim.Span.by_kind spans)

let expect_ok = function Ok v -> v | Error e -> failwith e

let presentation_bytes proxy =
  String.length (Wire.encode (Proxy.presentation_to_wire (Proxy.presentation proxy)))

(* ------------------------------------------------------------------ *)
(* F1: the restricted proxy structure (Figure 1)                      *)
(* ------------------------------------------------------------------ *)

let fig1 () =
  let drbg = Crypto.Drbg.create ~seed:"f1" in
  let alice = Principal.make ~realm:"r" "alice" in
  let session_key = Crypto.Drbg.generate drbg 32 in
  let open_base = stand_in_base ~client:alice ~session_key in
  List.map
    (fun n ->
      let restrictions =
        List.init n (fun i ->
            R.Authorized [ { R.target = Printf.sprintf "obj%d" i; ops = [ "read" ] } ])
      in
      let grant () =
        Proxy.grant_conventional ~drbg ~now:0 ~expires:max_int ~grantor:alice ~session_key
          ~base:"base" ~restrictions
      in
      let proxy = grant () in
      let chain = match proxy.Proxy.flavor with Proxy.Conventional c -> c | _ -> assert false in
      let bytes = presentation_bytes proxy in
      let verified, crypto =
        with_tally (fun tally ->
            Verifier.verify_conventional ~open_base:(open_base tally) ~tally ~now:1 chain)
      in
      (match verified with
      | Ok v -> assert (List.length v.Verifier.restrictions = n)
      | Error e -> failwith e);
      row
        (Printf.sprintf "restrictions=%d" n)
        (("restrictions", n) :: ("presentation_bytes", bytes) :: crypto)
        ~floats:
          (Benchout.time "grant_ns" grant
          @ Benchout.time "verify_ns" (fun () ->
                Verifier.verify_conventional ~open_base:(open_base ignore) ~now:1 chain)))
    [ 0; 1; 2; 4; 8; 16; 32 ]

(* ------------------------------------------------------------------ *)
(* F2: the layering of security services (Figure 2)                   *)
(* ------------------------------------------------------------------ *)

(* One request at each service layer, then a span rollup per layer: which
   protocol step each message, byte and crypto op lands in. The kernel
   columns are the SHA-256 compressions, ChaCha20 blocks and Poly1305
   blocks the same request cost ([Crypto.Cost]), so per-layer kernel work
   is gated. *)
let fig2 () =
  let usd = "usd" in
  let layers = ref [] and phases = ref [] in
  let layer ~name ~phase net f =
    Option.iter Sim.Span.clear (Sim.Net.spans net);
    let before = Crypto.Cost.read () in
    let _, deltas, lat = metered net f in
    let kernels = Crypto.Cost.diff ~before ~after:(Crypto.Cost.read ()) in
    layers :=
      row name
        [ ("messages", delta "net.messages" deltas);
          ("bytes", delta "net.bytes" deltas);
          ("crypto_ops", crypto_ops deltas);
          ("sim_latency_us", lat);
          ("sha256_compressions", kernels.Crypto.Cost.sha256_compressions);
          ("chacha20_blocks", kernels.Crypto.Cost.chacha20_blocks);
          ("poly1305_blocks", kernels.Crypto.Cost.poly1305_blocks) ]
      :: !layers;
    phases := !phases @ span_phase_rows ~layer:phase net
  in

  (* Layer 1: authentication only — an owner reads her file. *)
  let w = World.create ~seed:"f2a" () in
  Sim.Net.enable_tracing w.World.net;
  let alice, _ = World.enrol w "alice" in
  let fs_name, fs_key = World.enrol w "fs" in
  let acl = Acl.create () in
  Acl.add acl ~target:"*" { Acl.subject = Acl.Principal_is alice; rights = []; restrictions = [] };
  let fs = File_server.create w.World.net ~me:fs_name ~my_key:fs_key ~acl () in
  File_server.install fs;
  File_server.put_direct fs ~path:"f" "data";
  let tgt = World.login w alice in
  let creds = World.credentials_for w ~tgt fs_name in
  layer ~name:"authentication only (owner reads)" ~phase:"authentication" w.World.net (fun () ->
      expect_ok (File_server.read w.World.net ~creds ~path:"f" ()));

  (* Layer 2: + authorization via a capability. *)
  let bob, _ = World.enrol w "bob" in
  let cap =
    expect_ok
      (Capability.mint_via_kdc w.World.net ~kdc:w.World.kdc_name ~tgt ~end_server:fs_name
         ~target:"f" ~ops:[ "read" ] ())
  in
  let tgt_b = World.login w bob in
  let creds_b = World.credentials_for w ~tgt:tgt_b fs_name in
  layer ~name:"+ authorization (capability presentation)" ~phase:"+ authorization" w.World.net
    (fun () ->
      expect_ok (File_server.read w.World.net ~creds:creds_b ~proxies:[ cap ] ~path:"f" ()));

  (* Layer 3: + group membership. *)
  let w = World.create ~seed:"f2c" () in
  Sim.Net.enable_tracing w.World.net;
  let dave, _ = World.enrol w "dave" in
  let groups_p, groups_key = World.enrol w "groups" in
  let fs_name, fs_key = World.enrol w "fs" in
  let gsrv =
    expect_ok
      (Group_server.create w.World.net ~me:groups_p ~my_key:groups_key ~kdc:w.World.kdc_name ())
  in
  Group_server.install gsrv;
  Group_server.add_member gsrv ~group:"staff" dave;
  let acl = Acl.create () in
  Acl.add acl ~target:"*"
    {
      Acl.subject = Acl.Group (Group_server.group_name gsrv "staff");
      rights = [];
      restrictions = [];
    };
  let fs = File_server.create w.World.net ~me:fs_name ~my_key:fs_key ~acl () in
  File_server.install fs;
  File_server.put_direct fs ~path:"f" "data";
  let tgt_d = World.login w dave in
  let creds_g = World.credentials_for w ~tgt:tgt_d groups_p in
  let gproxy =
    expect_ok
      (Group_server.request_membership_proxy w.World.net ~creds:creds_g ~group:"staff"
         ~end_server:fs_name ())
  in
  let creds_fs = World.credentials_for w ~tgt:tgt_d fs_name in
  layer ~name:"+ group service (membership proxy)" ~phase:"+ group" w.World.net (fun () ->
      expect_ok
        (File_server.read w.World.net ~creds:creds_fs ~group_proxies:[ gproxy ] ~path:"f" ()));

  (* Layer 4: + accounting — a print job paid by check, cross-bank. *)
  let w = World.create ~seed:"f2d" () in
  Sim.Net.enable_tracing w.World.net;
  let carol, _, carol_rsa = World.enrol_pk w "carol" in
  let bank1_p, bank1_key, bank1_rsa = World.enrol_pk w "bank1" in
  let bank2_p, bank2_key, bank2_rsa = World.enrol_pk w "bank2" in
  let printer_p, printer_key, printer_rsa = World.enrol_pk w "printer" in
  let lookup = World.lookup w in
  let bank1 =
    expect_ok
      (Accounting_server.create w.World.net ~me:bank1_p ~my_key:bank1_key ~kdc:w.World.kdc_name
         ~signing_key:bank1_rsa ~lookup ())
  in
  let bank2 =
    expect_ok
      (Accounting_server.create w.World.net ~me:bank2_p ~my_key:bank2_key ~kdc:w.World.kdc_name
         ~signing_key:bank2_rsa ~lookup ())
  in
  Accounting_server.install bank1;
  Accounting_server.install bank2;
  let tgt_c = World.login w carol in
  let creds_cb = World.credentials_for w ~tgt:tgt_c bank2_p in
  expect_ok (Accounting_server.open_account w.World.net ~creds:creds_cb ~name:"carol");
  ignore (Ledger.mint (Accounting_server.ledger bank2) ~name:"carol" ~currency:usd 10_000);
  let tgt_p = World.login w printer_p in
  let creds_pb = World.credentials_for w ~tgt:tgt_p bank1_p in
  expect_ok (Accounting_server.open_account w.World.net ~creds:creds_pb ~name:"printer");
  let printer =
    expect_ok
      (Print_server.create w.World.net ~me:printer_p ~my_key:printer_key ~kdc:w.World.kdc_name
         ~bank:bank1_p ~account:"printer" ~signing_key:printer_rsa ~lookup)
  in
  Print_server.install printer;
  let creds_cp = World.credentials_for w ~tgt:tgt_c printer_p in
  let write_check amount =
    Check.write ~drbg:(Sim.Net.drbg w.World.net) ~now:(World.now w)
      ~expires:(World.now w + (24 * World.hour)) ~payor:carol ~payor_key:carol_rsa
      ~account:(Accounting_server.account bank2 "carol") ~payee:printer_p ~currency:usd ~amount
      ()
  in
  (* Warm the printer's credential cache so we meter the steady state. *)
  ignore
    (expect_ok
       (Print_server.print w.World.net ~creds:creds_cp ~document:"warm" ~content:"x"
          ~check:(write_check 10) ()));
  let check = write_check 10 in
  layer ~name:"+ accounting (print job paid by cross-bank check)" ~phase:"+ accounting"
    w.World.net (fun () ->
      expect_ok
        (Print_server.print w.World.net ~creds:creds_cp ~document:"job" ~content:"x" ~check ()));
  List.rev !layers @ !phases

(* ------------------------------------------------------------------ *)
(* F3: the authorization protocol (Figure 3) vs alternatives          *)
(* ------------------------------------------------------------------ *)

(* Authorization messages for N requests, acquisition included: the Fig-3
   proxy is acquired once and verified offline, Grapevine is asked online
   on every request. *)
let fig3 () =
  (* Scheme A: the Fig-3 authorization-server proxy — acquired once,
     verified offline on every request. *)
  let run_authz n =
    let w = World.create ~seed:("f3a" ^ string_of_int n) () in
    let carol, _ = World.enrol w "carol" in
    let authz_p, authz_key = World.enrol w "authz" in
    let app_p, app_key = World.enrol w "app" in
    let db = Acl.create () in
    Acl.add db ~target:"job"
      { Acl.subject = Acl.Principal_is carol; rights = [ "run" ]; restrictions = [] };
    let srv =
      expect_ok
        (Authz_server.create w.World.net ~me:authz_p ~my_key:authz_key ~kdc:w.World.kdc_name
           ~database:db ())
    in
    Authz_server.install srv;
    let acl = Acl.create () in
    Acl.add acl ~target:"*"
      { Acl.subject = Acl.Principal_is authz_p; rights = []; restrictions = [] };
    let guard = Guard.create w.World.net ~me:app_p ~my_key:app_key ~acl () in
    let tgt = World.login w carol in
    (* Carol's ticket for the app server, which her requests ride: the
       proxy is bound to it. *)
    let app_creds = World.credentials_for w ~tgt app_p in
    let ticket = Ticket.digest app_creds.Ticket.ticket_blob in
    let _, deltas, _ =
      metered w.World.net (fun () ->
          let creds = World.credentials_for w ~tgt authz_p in
          let proxy =
            expect_ok
              (Authz_server.request_authorization w.World.net ~creds ~end_server:app_p
                 ~target:"job" ~operation:"run" ())
          in
          for _ = 1 to n do
            ignore
              (expect_ok
                 (Guard.decide guard ~operation:"run" ~target:"job" ~presenter:carol ~ticket
                    ~proxies:[ Guard.present ~creds:app_creds proxy ] ()))
          done)
    in
    delta "net.messages" deltas
  in

  (* Scheme B: Grapevine — the end-server queries the registry on every
     request. *)
  let run_grapevine n =
    let w = World.create ~seed:("f3b" ^ string_of_int n) () in
    let carol = Principal.make ~realm:"r" "carol" in
    let reg_p = Principal.make ~realm:"r" "registry" in
    let reg = Grapevine.create w.World.net ~name:reg_p in
    Grapevine.install reg;
    Grapevine.add_member reg ~group:"authorized" carol;
    let _, deltas, _ =
      metered w.World.net (fun () ->
          for _ = 1 to n do
            match
              Grapevine.is_member w.World.net ~server:reg_p ~caller:"app" ~group:"authorized"
                carol
            with
            | Ok true -> ()
            | Ok false | Error _ -> failwith "grapevine lookup failed"
          done)
    in
    delta "net.messages" deltas
  in
  List.concat_map
    (fun (scheme, run) ->
      List.map
        (fun n ->
          row (Printf.sprintf "%s requests=%d" scheme n) [ ("requests", n); ("messages", run n) ])
        [ 1; 10; 100 ])
    [ ("authorization-server proxy", run_authz); ("Grapevine online query", run_grapevine) ]

(* ------------------------------------------------------------------ *)
(* F4: cascaded proxies (Figure 4) vs Sollins                         *)
(* ------------------------------------------------------------------ *)

let fig4 () =
  let drbg = Crypto.Drbg.create ~seed:"f4" in
  let alice = Principal.make ~realm:"r" "alice" in
  let session_key = Crypto.Drbg.generate drbg 32 in
  let open_base = stand_in_base ~client:alice ~session_key in
  let alice_rsa = Crypto.Rsa.generate drbg ~bits:512 in
  let lookup p = if Principal.equal p alice then Some alice_rsa.Crypto.Rsa.pub else None in

  (* Sollins: a fresh world per depth to keep metrics clean. *)
  let sollins_run depth =
    let net = Sim.Net.create ~seed:("f4s" ^ string_of_int depth) () in
    let as_p = Principal.make ~realm:"r" "as" in
    let srv = Sollins.create net ~name:as_p in
    Sollins.install srv;
    let parties =
      List.init (depth + 1) (fun i -> Principal.make ~realm:"r" (Printf.sprintf "p%d" i))
    in
    let keys = List.map (fun p -> (p, Sollins.register srv p)) parties in
    let key_of p = List.assq p keys in
    let passport = ref None in
    List.iteri
      (fun i p ->
        if i < depth then begin
          let next = List.nth parties (i + 1) in
          let restrictions = [ Printf.sprintf "r%d" i ] in
          passport :=
            Some
              (match !passport with
              | None -> Sollins.initiate ~key:(key_of p) ~from_:p ~to_:next ~restrictions
              | Some pp -> Sollins.extend ~key:(key_of p) ~from_:p ~to_:next ~restrictions pp)
        end)
      parties;
    let passport = Option.get !passport in
    let verify () = Sollins.verify_online net ~server:as_p ~caller:"end-server" passport in
    let _, deltas, _ = metered net (fun () -> expect_ok (verify ())) in
    (delta "net.messages" deltas, Benchout.time "sollins_verify_ns" verify)
  in

  let build_pk_chain depth =
    let pk =
      ref
        (Proxy.grant_pk ~drbg ~now:0 ~expires:max_int ~grantor:alice ~grantor_key:alice_rsa
           ~proxy_bits:512
           ~restrictions:[ R.Quota ("step", 0) ]
           ())
    in
    for i = 2 to depth do
      pk :=
        expect_ok
          (Proxy.restrict_pk ~drbg ~now:0 ~expires:max_int ~proxy_bits:512
             ~restrictions:[ R.Quota ("step" ^ string_of_int i, i) ]
             !pk)
    done;
    match !pk.Proxy.flavor with Proxy.Public_key c -> c | _ -> assert false
  in
  let depth_rows =
    List.map
      (fun depth ->
        (* conventional chain of [depth] certificates *)
        let conv =
          ref
            (Proxy.grant_conventional ~drbg ~now:0 ~expires:max_int ~grantor:alice ~session_key
               ~base:"base" ~restrictions:[ R.Quota ("step", 0) ])
        in
        for i = 2 to depth do
          conv :=
            expect_ok
              (Proxy.restrict_conventional ~drbg ~now:0 ~expires:max_int
                 ~restrictions:[ R.Quota ("step" ^ string_of_int i, i) ]
                 !conv)
        done;
        let conv_chain =
          match !conv.Proxy.flavor with Proxy.Conventional c -> c | _ -> assert false
        in
        let _, conv_crypto =
          with_tally (fun tally ->
              expect_ok
                (Verifier.verify_conventional ~open_base:(open_base tally) ~tally ~now:1
                   conv_chain))
        in
        let conv_ns =
          Benchout.time "conv_verify_ns" (fun () ->
              Verifier.verify_conventional ~open_base:(open_base ignore) ~now:1 conv_chain)
        in
        (* public-key chain *)
        let pk_certs = build_pk_chain depth in
        let _, pk_crypto =
          with_tally (fun tally -> expect_ok (Verifier.verify_pk ~lookup ~tally ~now:1 pk_certs))
        in
        let pk_ns =
          Benchout.time "pk_verify_ns" (fun () -> Verifier.verify_pk ~lookup ~now:1 pk_certs)
        in
        let sollins_msgs, sollins_ns = sollins_run depth in
        row
          (Printf.sprintf "depth=%d" depth)
          (("depth", depth) :: ("conv_bytes", presentation_bytes !conv)
           :: ("sollins_msgs", sollins_msgs)
          :: (List.map (fun (k, v) -> ("conv." ^ k, v)) conv_crypto
             @ List.map (fun (k, v) -> ("pk." ^ k, v)) pk_crypto))
          ~floats:(conv_ns @ pk_ns @ sollins_ns))
      [ 1; 2; 4; 8; 16 ]
  in

  (* Re-presentation study: the same depth-8 chain hits the same end-server
     N times. Uncached, every presentation re-pays all 8 RSA verifications;
     with the shared verification cache the chain's signatures are paid
     once and every later presentation is k cache hits. *)
  let cache_depth = 8 and presentations = 16 in
  let certs = build_pk_chain cache_depth in
  let presented ?cache label =
    let _, counts =
      with_tally (fun tally ->
          for _ = 1 to presentations do
            ignore (expect_ok (Verifier.verify_pk ~lookup ~tally ?cache ~now:1 certs))
          done)
    in
    row
      (Printf.sprintf "cascade depth=%d presented x%d %s" cache_depth presentations label)
      (("depth", cache_depth) :: ("presentations", presentations) :: counts)
      ~floats:
        (Benchout.time "verify_ns_warm" (fun () -> Verifier.verify_pk ~lookup ?cache ~now:1 certs))
  in
  let uncached = presented "uncached" in
  let cached = presented ~cache:(Verify_cache.create ()) "cached" in

  (* The same cascade exercised end to end with causal tracing on. Span
     counts and attributed costs are deterministic under the fixed seed, so
     they join the gated integers. *)
  let traced = Tracing.run_f4 ~seed:"bench-f4" ~requests:4 ~depth:5 () in
  let tspans = traced.Tracing.spans in
  let kind_count k = List.length (List.filter (fun s -> s.Sim.Span.sp_kind = k) tspans) in
  let attributed = Sim.Span.cost_total tspans in
  let attr name = Option.value (List.assoc_opt name attributed) ~default:0 in
  let rerun = Tracing.run_f4 ~seed:"bench-f4" ~requests:4 ~depth:5 () in
  depth_rows
  @ [ uncached;
      cached;
      row "traced cascade requests=4 depth=5"
        [ ("requests", traced.Tracing.requests); ("ok", traced.Tracing.ok);
          ("spans", List.length tspans);
          ("actors", List.length (Sim.Span.actors tspans));
          ("max_depth", Sim.Span.max_depth tspans);
          ("span.verify_cert", kind_count "verify.cert");
          ("span.rpc_attempt", kind_count "rpc.attempt");
          ("span.rpc_call", kind_count "rpc.call");
          ("span.guard_decide", kind_count "guard.decide");
          ("span.resolver_lookup", kind_count "resolver.lookup");
          ("attr.rsa_verify", attr "crypto.rsa_verify");
          ("attr.cache_hits", attr "verify_cache.hits");
          ("attr.net_messages", attr "net.messages");
          ("costs_match", Bool.to_int (attributed = traced.Tracing.delta));
          ("jsonl_deterministic",
           Bool.to_int (String.equal traced.Tracing.digest rerun.Tracing.digest)) ] ]

(* ------------------------------------------------------------------ *)
(* F5: check clearing (Figure 5) vs intermediaries; Amoeba baseline   *)
(* ------------------------------------------------------------------ *)

let fig5 () =
  let usd = "usd" in
  let clear_with_intermediaries k certified =
    let w = World.create ~seed:(Printf.sprintf "f5-%d-%b" k certified) () in
    let carol, _, carol_rsa = World.enrol_pk w "carol" in
    let shop, _, shop_rsa = World.enrol_pk w "shop" in
    let lookup = World.lookup w in
    let mk_bank name =
      let p, key, rsa = World.enrol_pk w name in
      let b =
        expect_ok
          (Accounting_server.create w.World.net ~me:p ~my_key:key ~kdc:w.World.kdc_name
             ~signing_key:rsa ~lookup ())
      in
      Accounting_server.install b;
      (p, b)
    in
    let payee_bank = mk_bank "payee-bank" in
    let drawee_p, drawee = mk_bank "drawee-bank" in
    let hops = List.init k (fun i -> mk_bank (Printf.sprintf "hop%d" i)) in
    (* Route payee-bank -> hop0 -> ... -> drawee. *)
    let rec wire_routes = function
      | (_, b) :: ((next_p, _) :: _ as rest) ->
          Accounting_server.set_route b ~drawee:drawee_p ~next_hop:next_p ();
          wire_routes rest
      | [ _ ] | [] -> ()
    in
    wire_routes (payee_bank :: hops);
    let tgt_c = World.login w carol in
    let creds_cd = World.credentials_for w ~tgt:tgt_c drawee_p in
    expect_ok (Accounting_server.open_account w.World.net ~creds:creds_cd ~name:"carol");
    ignore (Ledger.mint (Accounting_server.ledger drawee) ~name:"carol" ~currency:usd 1_000);
    let tgt_s = World.login w shop in
    let creds_sb = World.credentials_for w ~tgt:tgt_s (fst payee_bank) in
    expect_ok (Accounting_server.open_account w.World.net ~creds:creds_sb ~name:"shop");
    let write_check amount =
      Check.write ~drbg:(Sim.Net.drbg w.World.net) ~now:(World.now w)
        ~expires:(World.now w + (24 * World.hour)) ~payor:carol ~payor_key:carol_rsa
        ~account:(Accounting_server.account drawee "carol") ~payee:shop ~currency:usd ~amount ()
    in
    (* Warm the inter-bank credential caches with a throwaway clearing so we
       meter steady-state clearing, not first-contact key exchange. *)
    ignore
      (expect_ok
         (Accounting_server.deposit w.World.net ~creds:creds_sb ~endorser_key:shop_rsa
            ~check:(write_check 1) ~to_account:"shop"));
    let check = write_check 100 in
    if certified then
      ignore (expect_ok (Accounting_server.certify w.World.net ~creds:creds_cd ~check));
    let _, deltas, lat =
      metered w.World.net (fun () ->
          expect_ok
            (Accounting_server.deposit w.World.net ~creds:creds_sb ~endorser_key:shop_rsa ~check
               ~to_account:"shop"))
    in
    row
      (Printf.sprintf "intermediaries=%d%s" k (if certified then " certified" else ""))
      [ ("intermediaries", k);
        ("messages", delta "net.messages" deltas);
        ("bytes", delta "net.bytes" deltas);
        ("endorsements", delta "accounting.endorsements" deltas);
        ("crypto_ops", crypto_ops deltas);
        ("sim_latency_us", lat) ]
  in
  let rows =
    List.map (fun k -> clear_with_intermediaries k false) [ 0; 1; 2; 4; 8 ]
    @ [ clear_with_intermediaries 0 true ]
  in

  (* Amoeba pre-pay baseline: one purchase = prepay + server balance check +
     withdraw. *)
  let net = Sim.Net.create ~seed:"f5-amoeba" () in
  let bank_p = Principal.make ~realm:"r" "amoeba-bank" in
  let bank = Amoeba_bank.create net ~name:bank_p in
  Amoeba_bank.install bank;
  Amoeba_bank.open_account bank "client";
  Amoeba_bank.open_account bank "server";
  Amoeba_bank.mint bank ~account:"client" ~currency:usd 1_000;
  let _, deltas, lat =
    metered net (fun () ->
        expect_ok
          (Amoeba_bank.transfer net ~bank:bank_p ~caller:"client" ~from_:"client" ~to_:"server"
             ~currency:usd ~amount:100);
        ignore
          (expect_ok
             (Amoeba_bank.balance net ~bank:bank_p ~caller:"server" ~account:"server"
                ~currency:usd));
        expect_ok
          (Amoeba_bank.withdraw net ~bank:bank_p ~caller:"server" ~account:"server" ~currency:usd
             ~amount:100))
  in
  rows
  @ [ row "amoeba pre-pay"
        [ ("messages", delta "net.messages" deltas);
          ("bytes", delta "net.bytes" deltas);
          ("sim_latency_us", lat) ] ]

(* ------------------------------------------------------------------ *)
(* F6: public-key proxies (Figure 6) vs conventional                  *)
(* ------------------------------------------------------------------ *)

(* One-restriction proxy in all three realizations — conventional (valid at
   one end-server), hybrid RSA-512 (Sec 6.1: signed, but the proxy key is
   symmetric and sealed to one end-server, so no per-proxy keypair) and
   public-key (valid anywhere issued-for allows, third-party verifiable) —
   then the private-key fast path. *)
let fig6 () =
  let drbg = Crypto.Drbg.create ~seed:"f6" in
  let alice = Principal.make ~realm:"r" "alice" in
  let session_key = Crypto.Drbg.generate drbg 32 in
  let open_base = stand_in_base ~client:alice ~session_key in
  let restrictions = [ R.Authorized [ { R.target = "obj"; ops = [ "read" ] } ] ] in
  (* [realization label ints grant verify]: [verify ?tally] checks [grant]'s
     first proxy; the crypto tally joins [ints]. *)
  let realization label ints grant (verify : ?tally:(string -> unit) -> Proxy.t -> _) =
    let proxy = grant () in
    let _, crypto = with_tally (fun tally -> expect_ok (verify ~tally proxy)) in
    row label
      (ints @ (("presentation_bytes", presentation_bytes proxy) :: crypto))
      ~floats:(Benchout.time "grant_ns" grant @ Benchout.time "verify_ns" (fun () -> verify proxy))
  in
  let conv =
    realization "conventional" []
      (fun () ->
        Proxy.grant_conventional ~drbg ~now:0 ~expires:max_int ~grantor:alice ~session_key
          ~base:"base" ~restrictions)
      (fun ?tally p ->
        match p.Proxy.flavor with
        | Proxy.Conventional c ->
            Verifier.verify_conventional
              ~open_base:(open_base (Option.value tally ~default:ignore))
              ?tally ~now:1 c
        | _ -> assert false)
  in
  let hybrid =
    let grantor_key = Crypto.Rsa.generate drbg ~bits:512 in
    let end_server = Principal.make ~realm:"r" "server" in
    let server_key = Crypto.Rsa.generate drbg ~bits:512 in
    let lookup p = if Principal.equal p alice then Some grantor_key.Crypto.Rsa.pub else None in
    realization "hybrid rsa-512" []
      (fun () ->
        expect_ok
          (Proxy.grant_hybrid ~drbg ~now:0 ~expires:max_int ~grantor:alice ~grantor_key
             ~end_server ~end_server_pub:server_key.Crypto.Rsa.pub ~restrictions ()))
      (fun ?tally p ->
        match p.Proxy.flavor with
        | Proxy.Hybrid (h, b) ->
            Verifier.verify_hybrid ~lookup ~decrypt:(Crypto.Rsa.decrypt server_key) ?tally
              ~now:1 (h, b)
        | _ -> assert false)
  in
  let pk bits =
    let grantor_key = Crypto.Rsa.generate drbg ~bits in
    let lookup p = if Principal.equal p alice then Some grantor_key.Crypto.Rsa.pub else None in
    realization
      (Printf.sprintf "public-key rsa-%d" bits)
      [ ("bits", bits) ]
      (fun () ->
        Proxy.grant_pk ~drbg ~now:0 ~expires:max_int ~grantor:alice ~grantor_key
          ~proxy_bits:bits ~restrictions ())
      (fun ?tally p ->
        match p.Proxy.flavor with
        | Proxy.Public_key c -> Verifier.verify_pk ~lookup ?tally ~now:1 c
        | _ -> assert false)
  in
  let pk_rows = List.map pk [ 512; 768; 1024 ] in

  (* One public-key chain presented 16 times over one ticket, its
     certificate already in the server's verify cache: the client signs
     one session binding and the server verifies it once; every other
     presentation reuses both. *)
  let session =
    let w = World.create ~seed:"f6-session" () in
    let net = w.World.net in
    let owner, _, owner_key = World.enrol_pk w "owner" in
    let fs_name, fs_key = World.enrol w "fs" in
    let acl = Acl.create () in
    Acl.add acl ~target:"obj"
      { Acl.subject = Acl.Principal_is owner; rights = []; restrictions = [] };
    let verify_cache = Verify_cache.create () in
    let fs =
      File_server.create net ~me:fs_name ~my_key:fs_key ~lookup_pub:(World.lookup w) ~verify_cache
        ~acl ()
    in
    File_server.install fs;
    File_server.put_direct fs ~path:"obj" "data";
    let now = World.now w in
    let proxy =
      Proxy.grant_pk ~drbg:(Sim.Net.drbg net) ~now ~expires:(now + World.hour) ~grantor:owner
        ~grantor_key:owner_key ~restrictions ()
    in
    (match proxy.Proxy.flavor with
    | Proxy.Public_key certs ->
        ignore
          (expect_ok (Verifier.verify_pk ~lookup:(World.lookup w) ~cache:verify_cache ~now certs))
    | _ -> assert false);
    let reader, _ = World.enrol w "reader" in
    let creds = World.credentials_for w ~tgt:(World.login w reader) fs_name in
    let presentations = 16 in
    let before = Crypto.Cost.read () in
    for _ = 1 to presentations do
      ignore (expect_ok (File_server.read net ~creds ~proxies:[ proxy ] ~path:"obj" ()))
    done;
    let c = Crypto.Cost.diff ~before ~after:(Crypto.Cost.read ()) in
    row "public-key chain presented x16 over one ticket"
      [ ("presentations", presentations);
        ("rsa_sign", c.Crypto.Cost.rsa_sign);
        ("rsa_verify", c.Crypto.Cost.rsa_verify) ]
  in

  (* Private-key fast path: CRT + Montgomery signing vs the pre-optimization
     reference (plain d, division-per-step square-and-multiply). Signatures
     must be byte-identical — PKCS#1 v1.5 is deterministic and the CRT
     recombination computes the same value as c^d mod n. *)
  let sign_row bits =
    let key = Crypto.Rsa.generate drbg ~bits in
    let msg = "fast-path trajectory" in
    let fast_sig = Crypto.Rsa.sign key msg in
    let floats =
      Benchout.time "sign_ns" (fun () -> Crypto.Rsa.sign key msg)
      @ Benchout.time "sign_reference_ns" (fun () -> Crypto.Rsa.sign_reference key msg)
    in
    row
      (Printf.sprintf "rsa-%d sign fast path" bits)
      [ ("bits", bits);
        ("byte_identical", Bool.to_int (String.equal fast_sig (Crypto.Rsa.sign_reference key msg)));
        ("verifies", Bool.to_int (Crypto.Rsa.verify key.Crypto.Rsa.pub ~msg ~signature:fast_sig)) ]
      ~floats:
        (floats
        @ [ ("speedup", List.assoc "sign_reference_ns" floats /. List.assoc "sign_ns" floats) ])
  in
  (conv :: hybrid :: pk_rows) @ (session :: List.map sign_row [ 512; 1024 ])

(* ------------------------------------------------------------------ *)
(* C3: DSSA roles vs on-the-fly restricted proxies                    *)
(* ------------------------------------------------------------------ *)

(* One restricted delegation to bob: a proxy is minted locally with no
   server contact and no server state, a DSSA delegation first registers a
   role at the CA (state that grows per delegation). Then narrowing an
   existing delegation: offline for proxies, another authority round-trip
   for ECMA PACs (Section 5). *)
let c3 () =
  let w = World.create ~seed:"c3" () in
  let alice, _, alice_rsa = World.enrol_pk w "alice" in
  let bob = Principal.make ~realm:w.World.realm "bob" in
  let drbg = Sim.Net.drbg w.World.net in
  let messages f =
    let _, deltas, _ = metered w.World.net (fun () -> ignore (f ())) in
    ("messages", delta "net.messages" deltas)
  in
  let proxy_grant () =
    Proxy.grant_pk ~drbg ~now:0 ~expires:max_int ~grantor:alice ~grantor_key:alice_rsa
      ~proxy_bits:512
      ~restrictions:
        [ R.Grantee ([ bob ], 1); R.Authorized [ { R.target = "file1"; ops = [ "read" ] } ] ]
      ()
  in
  let proxy_messages = messages proxy_grant in
  let proxy_ns = Benchout.time "cpu_ns" proxy_grant in

  let ca_p = Principal.make ~realm:"r" "dssa-ca" in
  let ca = Dssa.create w.World.net ~name:ca_p ~drbg ~bits:512 in
  Dssa.install ca;
  let dssa_delegate () =
    let cert, role_key =
      expect_ok
        (Dssa.create_role w.World.net ~ca:ca_p ~caller:"alice" ~owner:alice
           ~rights:[ "read:file1" ])
    in
    Dssa.delegate ~role_key ~to_:bob cert
  in
  let roles_before = Dssa.role_count ca in
  let dssa_messages = messages dssa_delegate in
  let roles_created = Dssa.role_count ca - roles_before in
  let dssa_ns = Benchout.time "cpu_ns" dssa_delegate in

  let base_proxy = proxy_grant () in
  let narrow_proxy () =
    expect_ok
      (Proxy.restrict_pk ~drbg ~now:0 ~expires:max_int ~proxy_bits:512
         ~restrictions:[ R.Quota ("pages", 1) ] base_proxy)
  in
  let narrow_messages = messages narrow_proxy in
  let narrow_ns = Benchout.time "cpu_ns" narrow_proxy in
  let pac_authority_p = Principal.make ~realm:"r" "pac-authority" in
  let pac_authority = Ecma_pac.create w.World.net ~name:pac_authority_p ~drbg ~bits:512 in
  Ecma_pac.install pac_authority;
  Ecma_pac.entitle pac_authority alice "read:file1";
  let pac_narrow () =
    expect_ok
      (Ecma_pac.request w.World.net ~authority:pac_authority_p ~caller:alice
         ~privileges:[ "read:file1" ] ())
  in
  let pac_messages = messages pac_narrow in
  let pac_ns = Benchout.time "cpu_ns" pac_narrow in
  let session_key = Crypto.Drbg.generate drbg 32 in
  let conv_base =
    Proxy.grant_conventional ~drbg ~now:0 ~expires:max_int ~grantor:alice ~session_key ~base:"b"
      ~restrictions:[]
  in
  let conv_narrow () =
    expect_ok
      (Proxy.restrict_conventional ~drbg ~now:0 ~expires:max_int
         ~restrictions:[ R.Quota ("pages", 1) ] conv_base)
  in
  let conv_messages = messages conv_narrow in
  let conv_ns = Benchout.time "cpu_ns" conv_narrow in
  [ row "restricted proxy (local grant)" [ proxy_messages; ("roles_created", 0) ] ~floats:proxy_ns;
    row "DSSA role creation + delegation"
      [ dssa_messages; ("roles_created", roles_created) ]
      ~floats:dssa_ns;
    row "narrow: proxy cascade, conventional (offline)" [ conv_messages ] ~floats:conv_ns;
    row "narrow: proxy cascade, public-key (offline)" [ narrow_messages ] ~floats:narrow_ns;
    row "narrow: ECMA PAC re-issue (online)" [ pac_messages ] ~floats:pac_ns ]

(* ------------------------------------------------------------------ *)
(* A1: accept-once replay cache ablation                              *)
(* ------------------------------------------------------------------ *)

let a1 () =
  let accepted capacity : unit Expiring.t = Expiring.create ~capacity () in
  let population size =
    let cache = accepted (1 lsl 17) in
    for i = 1 to size do
      Expiring.add cache ~now:0 ~expires:max_int (string_of_int i) ()
    done;
    let seen id = Option.is_some (Expiring.find cache ~now:0 id) in
    (* Every duplicate must be caught. *)
    let caught = ref 0 in
    for j = 1 to size do
      if seen (string_of_int j) then incr caught
    done;
    let i = ref 0 in
    row
      (Printf.sprintf "population=%d" size)
      [ ("population", size); ("duplicates_caught", !caught) ]
      ~floats:
        (Benchout.time "probe_ns" (fun () ->
             incr i;
             seen (string_of_int (!i mod (2 * size)))))
  in
  let populations = List.map population [ 100; 1_000; 10_000; 100_000 ] in

  (* The floor, read back over ids 1..n, each inserted with expiry
     [expires i]: every evicted id must read forgotten, so
     [evicted_forgotten] must equal the evictions. *)
  let floor_ints ?tag table ~expires n =
    let forgotten i =
      Expiring.lookup table ~now:0 ~expires:(expires i) ?tag (string_of_int i)
      = Expiring.Forgotten
    in
    [ ("evicted_forgotten", List.length (List.filter forgotten (List.init n succ))) ]
  in

  (* Capacity study: flood a small bounded cache with live (never-expiring)
     identifiers. Occupancy stays at the bound; every insertion past it
     evicts the soonest-expiring entry, so the evictions are the inserted
     ids no longer held. *)
  let capacity = 1_000 and flood = 2_500 in
  let bounded = accepted capacity in
  let flood_expiry i = max_int - i in
  for i = 1 to flood do
    Expiring.add bounded ~now:0 ~expires:(flood_expiry i) (string_of_int i) ()
  done;
  let flooded =
    row
      (Printf.sprintf "flood capacity=%d inserted=%d" capacity flood)
      ([ ("capacity", capacity);
         ("inserted", flood);
         ("evictions", flood - Expiring.size bounded);
         ("final_size", Expiring.size bounded) ]
      @ floor_ints bounded ~expires:flood_expiry flood)
  in

  (* Capacity pressure: fill a table with live identifiers, then insert
     1000 more — each must evict exactly one. insert_ns times a further
     insert at capacity. As in the flood, the evictions are the inserted
     ids no longer held; [add] inserts under [tag], never to expire. *)
  let pressure name ?tag table add =
    let capacity = Expiring.capacity table in
    let n = capacity + 1_000 in
    let insert i = add table (string_of_int i) in
    for i = 1 to n do
      insert i
    done;
    let ints =
      [ ("capacity", capacity); ("evictions", n - Expiring.size table);
        ("final_size", Expiring.size table) ]
      @ floor_ints ?tag table ~expires:(fun _ -> max_int) n
    in
    let next = ref n in
    row
      (Printf.sprintf "pressure %s capacity=%d" name capacity)
      ints
      ~floats:
        (Benchout.time "insert_ns" (fun () ->
             incr next;
             insert !next))
  in
  populations
  @ [ flooded ]
  @ List.map
      (fun capacity ->
        pressure "replay-cache" (accepted capacity) (fun table id ->
            Expiring.add table ~now:0 ~expires:max_int id ()))
      [ 1 lsl 10; 1 lsl 12; 1 lsl 14; 1 lsl 17 ]
  @ [ pressure "response-cache" ~tag:"client" (Secure_rpc.create_cache ()) (fun cache key ->
          Secure_rpc.seed cache ~now:0 ~expires:max_int ~client:"client" ~key "") ]

(* ------------------------------------------------------------------ *)
(* A3: TGS proxies (Sec 6.3) vs per-server capabilities               *)
(* ------------------------------------------------------------------ *)

(* Messages to equip a grantee for k end-servers: k capabilities, each
   minted by the grantor through the KDC, vs one TGS proxy the grantee
   derives a ticket from per server. *)
let a3 () =
  List.map
    (fun k ->
      (* Scheme 1: the grantor mints one capability per end-server. *)
      let w = World.create ~seed:(Printf.sprintf "a3cap%d" k) () in
      let alice, _ = World.enrol w "alice" in
      let servers = List.init k (fun i -> fst (World.enrol w (Printf.sprintf "srv%d" i))) in
      let tgt = World.login w alice in
      let _, cap_deltas, _ =
        metered w.World.net (fun () ->
            List.iter
              (fun s ->
                ignore
                  (expect_ok
                     (Capability.mint_via_kdc w.World.net ~kdc:w.World.kdc_name ~tgt ~end_server:s
                        ~target:"obj" ~ops:[ "read" ] ())))
              servers)
      in
      (* Scheme 2: one TGS proxy; the grantee derives per server. *)
      let w = World.create ~seed:(Printf.sprintf "a3tgs%d" k) () in
      let alice, _ = World.enrol w "alice" in
      let servers = List.init k (fun i -> fst (World.enrol w (Printf.sprintf "srv%d" i))) in
      let tgt = World.login w alice in
      let grant () =
        expect_ok
          (Tgs_proxy.grant w.World.net ~kdc:w.World.kdc_name ~tgt
             ~restrictions:[ R.Authorized [ { R.target = "obj"; ops = [ "read" ] } ] ]
             ())
      in
      let _, grant_deltas, _ = metered w.World.net grant in
      let proxy_tgt = grant () in
      let _, use_deltas, _ =
        metered w.World.net (fun () ->
            List.iter
              (fun s ->
                ignore
                  (expect_ok
                     (Tgs_proxy.use w.World.net ~kdc:w.World.kdc_name ~proxy_tgt ~service:s)))
              servers)
      in
      row
        (Printf.sprintf "end-servers=%d" k)
        [ ("end_servers", k);
          ("capability_grantor_msgs", delta "net.messages" cap_deltas);
          ("tgs_grantor_msgs", delta "net.messages" grant_deltas);
          ("tgs_grantee_msgs", delta "net.messages" use_deltas) ])
    [ 1; 2; 4; 8; 16 ]

(* ------------------------------------------------------------------ *)
(* A2: restriction-propagation ablation (Sec 7.9)                     *)
(* ------------------------------------------------------------------ *)

(* A derived proxy's restriction list: a naive copy of every restriction
   vs Sec 7.9's elision of limit-restrictions for servers the derived
   proxy cannot reach. *)
let a2 () =
  let server_a = Principal.make ~realm:"r" "server-a" in
  let server_b = Principal.make ~realm:"r" "server-b" in
  List.map
    (fun limited ->
      (* Half of the limited restrictions apply to server-a (reachable),
         half to server-b (unreachable by the derived proxy). *)
      let base = [ R.Quota ("usd", 10); R.Accept_once "x" ] in
      let limits =
        List.init limited (fun i ->
            let target = if i mod 2 = 0 then server_a else server_b in
            R.Limit_restriction ([ target ], [ R.Quota (Printf.sprintf "c%d" i, i) ]))
      in
      let rs = base @ limits in
      let propagated = R.propagate ~issued_for:[ server_a ] rs in
      let naive = R.Issued_for [ server_a ] :: rs in
      let bytes l = String.length (Wire.encode (R.list_to_wire l)) in
      row
        (Printf.sprintf "limit-restrictions=%d" limited)
        [ ("limit_restrictions", limited);
          ("naive_count", List.length naive);
          ("naive_bytes", bytes naive);
          ("elided_count", List.length propagated);
          ("elided_bytes", bytes propagated) ])
    [ 0; 2; 4; 8; 16 ]

(* ------------------------------------------------------------------ *)
(* C4: resilience under chaos (drop rate vs goodput/latency/retries)  *)
(* ------------------------------------------------------------------ *)

(* The two-bank marketplace workload under a seeded fault plan; each row is
   one chaos run. Goodput = operations whose caller saw success; latency is
   virtual per-logical-call time including timeouts, backoff, and retries
   (mean = latency_sum_us / latency_count). *)
let c4 () =
  List.map
    (fun drop_pct ->
      let drop = float_of_int drop_pct /. 100. in
      let o =
        Chaos.run
          { Chaos.default with seed = Printf.sprintf "c4-%.2f" drop; drop; crash_drawee = false }
      in
      let lat = Option.value o.Chaos.latency ~default:{ Sim.Metrics.count = 0; sum = 0; max = 0 } in
      row
        (Printf.sprintf "drop=%d%%" drop_pct)
        [ ("drop_pct", drop_pct);
          ("attempted", o.Chaos.attempted);
          ("succeeded", o.Chaos.succeeded);
          ("retries", o.Chaos.retries_used);
          ("gave_up", o.Chaos.gave_up);
          ("dedups", o.Chaos.dedups);
          ("latency_count", lat.Sim.Metrics.count);
          ("latency_sum_us", lat.Sim.Metrics.sum);
          ("latency_max_us", lat.Sim.Metrics.max);
          ("conservation_ok", Bool.to_int (Result.is_ok o.Chaos.conserved));
          ("double_redemptions", o.Chaos.double_redemptions) ])
    [ 0; 5; 15; 25; 35 ]

(* ------------------------------------------------------------------ *)
(* S1: sharded accounting cluster with replica failover               *)
(* ------------------------------------------------------------------ *)

(* Buyers pay a shop by check across consistently-hashed bank shards, each
   a primary/standby pair with replay-log replication; a seeded fault plan
   drops and duplicates messages and permanently crashes the shop shard's
   primary mid-run. Goodput = operations whose caller saw success; latency
   percentiles are per-operation virtual time including timeouts and
   failover. Every integer is a virtual-time quantity, identical in fast
   and full mode. *)
let s1 () =
  let scenario shards =
    let o =
      Cluster.Scenario.run
        { Cluster.Scenario.default with seed = Printf.sprintf "s1-%d" shards; shards }
    in
    row
      (Printf.sprintf "shards=%d" shards)
      [ ("shards", shards);
        ("succeeded", o.Cluster.Scenario.succeeded);
        ("messages", o.Cluster.Scenario.messages);
        ("failovers", o.Cluster.Scenario.failovers);
        ("promotions", o.Cluster.Scenario.promotions);
        ("repl_shipped", o.Cluster.Scenario.repl_shipped);
        ("repl_failures", o.Cluster.Scenario.repl_failures);
        ("conservation_ok", Bool.to_int (Result.is_ok o.Cluster.Scenario.conserved));
        ("double_redemptions", o.Cluster.Scenario.double_redemptions);
        ("p50_us", o.Cluster.Scenario.p50_us);
        ("p99_us", o.Cluster.Scenario.p99_us) ]
  in
  let scenarios = List.map scenario [ 1; 2; 4; 8 ] in
  (* The domains axis: the same seeded lane workload (4 shards, one fully
     isolated world per shard, cross-shard checks cleared at epoch
     barriers) scheduled over 1, 2, and 4 OCaml domains. Every count and
     the digest (each lane's metrics, trace and spans) must be
     byte-identical to the domains=1 schedule. *)
  let lane_cfg domains =
    { Cluster.Lanes.default with Cluster.Lanes.seed = "s1-lanes"; shards = 4; domains }
  in
  let lanes = List.map (fun d -> (d, Cluster.Lanes.run (lane_cfg d))) [ 1; 2; 4 ] in
  let base = List.assoc 1 lanes in
  let timed =
    List.map
      (fun (d, _) -> Benchout.time_each "run_ns" ~setup:(fun () -> lane_cfg d) Cluster.Lanes.run)
      lanes
  in
  let run_ns floats = List.assoc "run_ns" floats in
  scenarios
  @ List.map2
      (fun (domains, o) floats ->
        row
          (Printf.sprintf "domains=%d" domains)
          [ ("domains", domains);
            ("succeeded", o.Cluster.Lanes.succeeded);
            ("remote_cleared", o.Cluster.Lanes.remote_cleared);
            ("delivered", o.Cluster.Lanes.delivered);
            ("bulletins_applied", o.Cluster.Lanes.bulletins_applied);
            ("conservation_ok", Bool.to_int (Result.is_ok o.Cluster.Lanes.conserved));
            ("double_redemptions", o.Cluster.Lanes.double_redemptions);
            ("identical_to_1domain",
             Bool.to_int (String.equal o.Cluster.Lanes.digest base.Cluster.Lanes.digest)) ]
          ~floats:(floats @ [ ("speedup_vs_1domain", run_ns (List.hd timed) /. run_ns floats) ]))
      lanes timed

(* ------------------------------------------------------------------ *)
(* R1: revocation rate vs verify throughput                           *)
(* ------------------------------------------------------------------ *)

(* A warm verify cache serves a fixed population of public-key chains
   while signed bulletins land at increasing rates. Cache keys are one-way
   hashes, so a bulletin that adds coverage retires the whole generation
   (the invalidation storm); the verify path then pays fresh RSA for every
   live chain until the cache re-warms. The bulletins are signed before
   the timed region, which holds only their application and the verifies;
   verify_ns is that region's time per verification. *)
let r1 () =
  let chains = 32 and verifies = 2_000 in
  let drbg = Crypto.Drbg.create ~seed:"r1" in
  let realm = "r" in
  let authority = Principal.make ~realm "bulletin-board" in
  let grantor = Principal.make ~realm "grantor" in
  let ra_kp = Crypto.Rsa.generate drbg ~bits:512 in
  let g_kp = Crypto.Rsa.generate drbg ~bits:512 in
  let lookup q = if Principal.equal q grantor then Some g_kp.Crypto.Rsa.pub else None in
  let population =
    Array.init chains (fun i ->
        let proxy =
          Proxy.grant_pk ~drbg ~now:0 ~expires:1_000_000_000 ~grantor ~grantor_key:g_kp
            ~proxy_bits:512
            ~restrictions:
              [ R.Authorized [ { R.target = Printf.sprintf "obj-%d" i; ops = [ "read" ] } ] ]
            ()
        in
        match proxy.Proxy.flavor with
        | Proxy.Public_key certs -> certs
        | _ -> assert false)
  in
  let serial_of certs = (List.hd certs).Proxy_cert.pk_body.Proxy_cert.serial in
  (* revocations per 1000 verifications *)
  List.map
    (fun rate ->
      let interval = if rate = 0 then 0 else 1_000 / rate in
      (* Bulletin k revokes the first k+1 chains at epoch k+2; one lands
         every [interval] verifications until all but one chain is revoked. *)
      let bulletins =
        Array.init
          (if interval = 0 then 0 else min (verifies / interval) (chains - 1))
          (fun k ->
            Revocation.sign ~key:ra_kp ~issuer:authority ~epoch:(k + 2) ~issued_at:0
              (List.init (k + 1) (fun j -> Revocation.By_serial (serial_of population.(k - j)))))
      in
      let setup () =
        (Revocation.create ~issuer:authority ~issuer_pub:ra_kp.Crypto.Rsa.pub ~now:0 (),
         Verify_cache.create ())
      in
      let run (sub, cache) =
        let bumps = ref 0 and denials = ref 0 in
        for i = 1 to verifies do
          if interval > 0 && i mod interval = 0 && i / interval <= Array.length bulletins then begin
            match Revocation.apply sub bulletins.((i / interval) - 1) with
            | Ok (Revocation.Applied { fresh; _ }) when fresh > 0 ->
                ignore (Verify_cache.bump_generation cache);
                incr bumps
            | _ -> ()
          end;
          match
            Verifier.verify_pk ~lookup ~cache ~revocation:sub ~now:1 population.(i mod chains)
          with
          | Ok _ -> ()
          | Error _ -> incr denials
        done;
        (!bumps, !denials, Verify_cache.stats cache)
      in
      let bumps, denials, s = run (setup ()) in
      row
        (Printf.sprintf "rate=%d/1k" rate)
        [ ("verifies", verifies);
          ("revocations", Array.length bulletins);
          ("generation_bumps", bumps);
          ("cache_hits", s.Verify_cache.hits);
          ("cache_misses", s.Verify_cache.misses);
          ("invalidations", s.Verify_cache.invalidations);
          ("denials", denials) ]
        ~floats:(Benchout.time_each ~per:verifies "verify_ns" ~setup run))
    [ 0; 1; 4; 16; 64 ]

(* ------------------------------------------------------------------ *)
(* L1: open-loop load harness + batched hot path                       *)
(* ------------------------------------------------------------------ *)

(* Two halves. The cascade study isolates the per-signature cache's
   O(k+M) claim: M holders sharing one depth-k prefix, verified under three
   strategies, with exact deterministic RSA totals — the per-signature
   cache verifies k+M signatures (the floor), whole-presentation
   memoization pays (k+1)*M because no holder's chain matches another's as
   a unit. The load runs drive the full stack (KDC, guarded file server,
   sharded cluster) open-loop from a 100k-principal lazy Zipf population
   through a steady/burst/steady arrival profile, once with the batched hot
   path (RPC pipelining) and once without; lateness under the burst lands
   in p99, not in a throttled offered load. run_ns times a whole run,
   world building and the population's lazy key generation included. *)
let l1 () =
  let c = Load.Driver.cascade_study ~seed:"l1-cascade" () in
  let base = { Load.Driver.default with Load.Driver.seed = "l1" } in
  let met = Load.Driver.metric in
  let load label cfg =
    let o = Load.Driver.run cfg in
    row ("load " ^ label)
      [ ("population", base.Load.Driver.population);
        ("arrivals", o.Load.Driver.arrivals);
        ("succeeded", o.Load.Driver.succeeded);
        ("touched", o.Load.Driver.touched);
        ("materializations", o.Load.Driver.materializations);
        ("keys_generated", o.Load.Driver.keys_generated);
        ("keys_reused", o.Load.Driver.keys_reused);
        ("retired", o.Load.Driver.retired);
        ("grants", o.Load.Driver.grants);
        ("presents", o.Load.Driver.presents);
        ("debits", o.Load.Driver.debits);
        ("clears", o.Load.Driver.clears);
        ("sweeps", o.Load.Driver.sweeps);
        ("span_count", o.Load.Driver.span_count);
        ("rsa_verify", met o "crypto.rsa_verify");
        ("batch_calls", met o "rpc.batch.calls");
        ("batch_coalesced", met o "rpc.batch.coalesced");
        ("batch_items", met o "rpc.batch.items");
        ("repl_shipped", met o "cluster.repl_shipped");
        ("repl_read_skips", met o "cluster.repl_read_skips");
        ("repl_replies_shipped", met o "cluster.repl_replies_shipped");
        ("messages", met o "net.messages");
        ("p50_us", o.Load.Driver.p50_us);
        ("p99_us", o.Load.Driver.p99_us) ]
      ~floats:(Benchout.time_each "run_ns" ~setup:(fun () -> cfg) Load.Driver.run)
  in
  [ row "cascade depth=8 holders=16"
      [ ("depth", c.Load.Driver.c_depth);
        ("holders", c.Load.Driver.c_holders);
        ("repeats", c.Load.Driver.c_repeats);
        ("rsa_uncached", c.Load.Driver.c_rsa_uncached);
        ("rsa_whole_chain", c.Load.Driver.c_rsa_whole_chain);
        ("rsa_per_signature", c.Load.Driver.c_rsa_per_signature);
        ("sig_hits", c.Load.Driver.c_sig_hits);
        ("sig_misses", c.Load.Driver.c_sig_misses) ];
    load "batched" base;
    load "unbatched" { base with Load.Driver.pipeline = false } ]

(* ------------------------------------------------------------------ *)
(* X1: federation — intra- vs cross-realm cost; membership replica    *)
(* ------------------------------------------------------------------ *)

(* Two federated realms on one seeded network. The first half prices the
   ticket walk and the presentation: an intra-realm grant is one TGS
   exchange, a cold cross-realm grant pays the extra hop through the peer
   KDC (cross-realm TGT + remote TGS), a warm one is free (credential
   cache), and a second target in the same foreign realm pays only the
   remote half (the cross-realm TGT is cached per realm). The second half
   prices the Grapevine-style membership replica: asserts served from the
   local snapshot vs the snapshot pulls themselves — the origin realm sees
   one cross-realm walk per publication interval, not one per membership
   decision. Each probe consumes the cache state the one before it left,
   so it cannot be sampled again from the same state: the rows carry
   metric deltas only. *)
let x1 () =
  let wa = World.create ~seed:"x1" ~realm:"realm-a" () in
  let net = wa.World.net in
  let wb = World.create_in net ~realm:"realm-b" () in
  Kdc.federate wa.World.kdc wb.World.kdc;
  let user, user_key = World.enrol wa "user" in
  let fileserver w name =
    let p, key = World.enrol w name in
    let acl = Acl.create () in
    Acl.add acl ~target:"*"
      { Acl.subject = Acl.Principal_is user; rights = [ "read" ]; restrictions = [] };
    let fs = File_server.create net ~me:p ~my_key:key ~acl () in
    File_server.install fs;
    File_server.put_direct fs ~path:"doc" "x1";
    p
  in
  let fs_a = fileserver wa "fs-a" in
  let fs_b = fileserver wb "fs-b" in
  let fs_b2 = fileserver wb "fs-b2" in
  let g =
    match Granter.create net ~me:user ~my_key:user_key ~kdc:wa.World.kdc_name with
    | Ok g -> g
    | Error e -> failwith ("x1: " ^ e)
  in
  let m = Sim.Net.metrics net in
  let gauges =
    [ ("messages", "net.messages"); ("seal", "crypto.seal"); ("open", "crypto.open");
      ("tgs_req", "kdc.tgs_req"); ("tgs_cross", "kdc.tgs_cross") ]
  in
  let probe label f =
    let before = List.map (fun (_, k) -> Sim.Metrics.get m k) gauges in
    f ();
    row label (List.map2 (fun (name, k) b -> (name, Sim.Metrics.get m k - b)) gauges before)
  in
  let creds_for target = ignore (Result.get_ok (Granter.credentials_for g target)) in
  let read target =
    let creds = Result.get_ok (Granter.credentials_for g target) in
    match File_server.read net ~creds ~path:"doc" () with
    | Ok _ -> ()
    | Error e -> failwith ("x1 read: " ^ e)
  in
  (* Explicitly sequenced: each probe must see the cache state the previous
     one left behind. *)
  let g1 = probe "grant intra cold" (fun () -> creds_for fs_a) in
  let g2 = probe "grant intra warm" (fun () -> creds_for fs_a) in
  let g3 = probe "grant cross cold" (fun () -> creds_for fs_b) in
  let g4 = probe "grant cross warm" (fun () -> creds_for fs_b) in
  let g5 = probe "grant cross 2nd target" (fun () -> creds_for fs_b2) in
  let g6 = probe "present intra" (fun () -> read fs_a) in
  let g7 = probe "present cross" (fun () -> read fs_b) in
  (* --- membership replica: serve locally, pull rarely --- *)
  let members = 8 in
  let gs_p, gs_key, gs_rsa = World.enrol_pk wa "groups" in
  let gs =
    match
      Group_server.create net ~me:gs_p ~my_key:gs_key ~kdc:wa.World.kdc_name ~signing_key:gs_rsa
        ()
    with
    | Ok gs -> gs
    | Error e -> failwith ("x1 groups: " ^ e)
  in
  Group_server.install gs;
  let crowd = Array.init members (fun i -> World.enrol wa (Printf.sprintf "member-%d" i)) in
  Array.iter (fun (p, _) -> Group_server.add_member gs ~group:"eng" p) crowd;
  let rep_p, rep_key = World.enrol wb "groups-replica" in
  let bound = 600_000_000 in
  let replica =
    match
      Group_replica.create net ~me:rep_p ~my_key:rep_key ~kdc:wb.World.kdc_name ~origin:gs_p
        ~origin_pub:gs_rsa.Crypto.Rsa.pub ~staleness_bound_us:bound ()
    with
    | Ok r -> r
    | Error e -> failwith ("x1 replica: " ^ e)
  in
  Group_replica.install replica;
  let pull label =
    probe label (fun () ->
        match Group_replica.refresh replica with
        | Ok _ -> ()
        | Error e -> failwith ("x1 refresh: " ^ e))
  in
  let pull1 = pull "snapshot pull cold" in
  let creds_of (p, key) =
    let tgt =
      Result.get_ok
        (Kdc.Client.authenticate net ~kdc:wa.World.kdc_name ~client:p ~client_key:key
           ~service:wa.World.kdc_name ())
    in
    let cross =
      Result.get_ok
        (Kdc.Client.derive net ~kdc:wa.World.kdc_name ~tgt ~target:wb.World.kdc_name ())
    in
    Result.get_ok (Kdc.Client.derive net ~kdc:wb.World.kdc_name ~tgt:cross ~target:rep_p ())
  in
  let crowd_creds = Array.map creds_of crowd in
  let assert_all label ~served =
    probe label (fun () ->
        Array.iter
          (fun creds ->
            match
              Group_server.request_membership_proxy net ~creds ~group:"eng" ~end_server:fs_b ()
            with
            | Ok _ when served -> ()
            | Error _ when not served -> ()
            | Ok _ -> failwith "x1: stale replica served"
            | Error e -> failwith ("x1 assert: " ^ e))
          crowd_creds)
  in
  let served1 = assert_all "asserts from replica" ~served:true in
  (* Push the replica past its bound: asserts fail closed locally, no
     origin traffic; a pull restores service. *)
  Sim.Clock.advance (Sim.Net.clock net) (bound + 1);
  let stale = assert_all "asserts while stale" ~served:false in
  let pull2 = pull "snapshot pull after stale" in
  let served2 = assert_all "asserts after refresh" ~served:true in
  [ g1; g2; g3; g4; g5; g6; g7; pull1; served1; stale; pull2; served2;
    row "replica counters"
      [ ("members", members);
        ("replica_hits", Sim.Metrics.get m "membership.replica_hits");
        ("stale_denials", Sim.Metrics.get m "membership.replica_stale_denials");
        ("snapshots_applied", Sim.Metrics.get m "membership.snapshots_applied") ] ]

(* The experiment registry: ids as used in DESIGN.md / EXPERIMENTS.md. *)
let all =
  [ ("f1", "Fig 1: conventional proxy grant/verify vs restriction count", fig1);
    ("f2", "Fig 2: per-request cost as security services stack", fig2);
    ("f3", "Fig 3: authorization-server proxy vs online queries", fig3);
    ("f4", "Fig 4: cascade verification vs chain depth; Sollins baseline", fig4);
    ("f5", "Fig 5: check clearing vs intermediary accounting servers", fig5);
    ("f6", "Fig 6: public-key vs conventional realization; sign fast path", fig6);
    ("c3", "Sec 5: delegation and narrowing, restricted proxies vs DSSA/ECMA", c3);
    ("c4", "chaos: goodput/latency/retries vs drop rate", c4);
    ("a1", "ablation: accept-once replay cache", a1);
    ("a2", "ablation: limit-restriction elision (Sec 7.9)", a2);
    ("a3", "Sec 6.3: TGS proxies vs per-server capabilities", a3);
    ("s1", "cluster: sharded accounting, replica failover, conservation", s1);
    ("r1", "revocation: bulletin rate vs verify throughput", r1);
    ("l1", "load: open-loop harness + batched hot path", l1);
    ("x1", "federation: intra- vs cross-realm cost; membership replica", x1) ]

let run ids =
  let t0 = Unix.gettimeofday () in
  let selected =
    match ids with
    | [] -> all
    | ids -> List.filter (fun (id, _, _) -> List.mem id ids) all
  in
  if selected = [] then
    Printf.printf "no such experiment; known ids: %s\n"
      (String.concat ", " (List.map (fun (id, _, _) -> id) all))
  else begin
    List.iter (fun (id, title, f) -> Benchout.emit ~id ~title (f ())) selected;
    Printf.printf "\n%d experiment(s) completed in %.1f s\n" (List.length selected)
      (Unix.gettimeofday () -. t0)
  end
