(* Benchmark harness: regenerates one table per figure/claim of the paper
   (see DESIGN.md section 4 and EXPERIMENTS.md for paper-vs-measured).

   The paper (ICDCS '93) is conceptual and reports no measurements, so each
   "figure" here is characterized by the quantities its protocol determines:
   messages and bytes on the simulated network, cryptographic operations,
   simulated latency, and measured CPU time of the pure operations
   (Bechamel, OLS over monotonic clock). Baselines from Section 5 (Sollins,
   Amoeba, DSSA, Grapevine) run under identical conditions. *)

module R = Restriction

(* ------------------------------------------------------------------ *)
(* measurement utilities                                              *)
(* ------------------------------------------------------------------ *)

(* CPU nanoseconds per call, via Bechamel's OLS estimator. BENCH_FAST cuts
   the sampling quota (noisier wall-times, identical logical metrics). *)
let ns_per_op name f =
  let open Bechamel in
  let test = Test.make ~name (Staged.stage f) in
  let quota = Time.second (if Benchout.fast then 0.02 else 0.25) in
  let cfg = Benchmark.cfg ~limit:300 ~quota ~kde:None () in
  let raw = Benchmark.all cfg [ Toolkit.Instance.monotonic_clock ] test in
  let ols = Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |] in
  let res = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  (* Canonicalize by key before inspecting: Hashtbl fold order is resize
     history, and even a singleton today could silently become "first of
     several in hash order" when Bechamel grows the result table. *)
  let results =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) res []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  match results with
  | [ (_, est) ] -> ( match Analyze.OLS.estimates est with Some (ns :: _) -> ns | _ -> nan)
  | _ -> nan

(* Wall-clock per call for heavyweight operations (key generation) where
   Bechamel's sampling would take too long. *)
let wall_ns ?(iters = 3) f =
  let iters = if Benchout.fast then 1 else iters in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to iters do
    ignore (Sys.opaque_identity (f ()))
  done;
  (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int iters

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

let fmt_ns ns =
  if Float.is_nan ns then "n/a"
  else if ns >= 1e9 then Printf.sprintf "%.2f s" (ns /. 1e9)
  else if ns >= 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
  else if ns >= 1e3 then Printf.sprintf "%.1f us" (ns /. 1e3)
  else Printf.sprintf "%.0f ns" ns

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

let print_table title columns rows =
  Printf.printf "\n### %s\n\n" title;
  let widths =
    List.mapi
      (fun i c ->
        List.fold_left (fun w r -> max w (String.length (List.nth r i))) (String.length c) rows)
      columns
  in
  let line cells =
    let padded = List.map2 (fun w c -> Printf.sprintf "%-*s" w c) widths cells in
    Printf.printf "| %s |\n" (String.concat " | " padded)
  in
  line columns;
  Printf.printf "|%s|\n" (String.concat "|" (List.map (fun w -> String.make (w + 2) '-') widths));
  List.iter line rows;
  print_newline ()

let section title = Printf.printf "\n==================== %s ====================\n%!" title

(* Rollup of one traced phase: per span kind, count / messages / bytes /
   crypto ops summed over span self costs. Clears the collector so the next
   phase starts empty. *)
let span_phase_rows ~layer net =
  match Sim.Net.spans net with
  | None -> []
  | Some c ->
      let spans = Sim.Span.spans c in
      Sim.Span.clear c;
      let order = ref [] in
      let tbl = Hashtbl.create 8 in
      List.iter
        (fun s ->
          let k = s.Sim.Span.sp_kind in
          if not (Hashtbl.mem tbl k) then begin
            Hashtbl.add tbl k (ref 0, ref 0, ref 0, ref 0);
            order := k :: !order
          end;
          let n, msgs, bytes, cops = Hashtbl.find tbl k in
          incr n;
          List.iter
            (fun (name, v) ->
              if name = "net.messages" then msgs := !msgs + v
              else if name = "net.bytes" then bytes := !bytes + v
              else if String.length name >= 7 && String.sub name 0 7 = "crypto." then
                cops := !cops + v)
            s.Sim.Span.sp_costs)
        spans;
      List.rev_map
        (fun k ->
          let n, msgs, bytes, cops = Hashtbl.find tbl k in
          [ layer; k; string_of_int !n; string_of_int !msgs; string_of_int !bytes;
            string_of_int !cops ])
        !order

let expect_ok = function Ok v -> v | Error e -> failwith e

(* ------------------------------------------------------------------ *)
(* F1: the restricted proxy structure (Figure 1)                      *)
(* ------------------------------------------------------------------ *)

let fig1 () =
  section "F1 (Fig 1): restricted proxy grant/verify vs restriction count";
  let drbg = Crypto.Drbg.create ~seed:"f1" in
  let alice = Principal.make ~realm:"r" "alice" in
  let session_key = Crypto.Drbg.generate drbg 32 in
  let base_blob = "base" in
  let open_base blob =
    if blob = base_blob then
      Ok
        {
          Verifier.base_client = alice;
          base_session_key = session_key;
          base_expires = max_int;
          base_restrictions = [];
        }
    else Error "unknown base"
  in
  let measured =
    List.map
      (fun n ->
        let restrictions =
          List.init n (fun i ->
              R.Authorized [ { R.target = Printf.sprintf "obj%d" i; ops = [ "read" ] } ])
        in
        let grant () =
          Proxy.grant_conventional ~drbg ~now:0 ~expires:max_int ~grantor:alice ~session_key
            ~base:base_blob ~restrictions
        in
        let proxy = grant () in
        let chain =
          match proxy.Proxy.flavor with Proxy.Conventional c -> c | _ -> assert false
        in
        let pres_bytes =
          String.length (Wire.encode (Proxy.presentation_to_wire (Proxy.presentation proxy)))
        in
        let grant_ns = ns_per_op (Printf.sprintf "grant/%d" n) (fun () -> grant ()) in
        let verify_ns =
          ns_per_op (Printf.sprintf "verify/%d" n) (fun () ->
              Verifier.verify_conventional ~open_base ~now:1 chain)
        in
        let verified, crypto =
          with_tally (fun tally -> Verifier.verify_conventional ~open_base ~tally ~now:1 chain)
        in
        (match verified with
        | Ok v -> assert (List.length v.Verifier.restrictions = n)
        | Error e -> failwith e);
        (n, pres_bytes, crypto, grant_ns, verify_ns))
      [ 0; 1; 2; 4; 8; 16; 32 ]
  in
  print_table "F1: conventional proxy cost vs number of restrictions"
    [ "restrictions"; "presentation bytes"; "grant CPU"; "verify CPU" ]
    (List.map
       (fun (n, bytes, _, grant_ns, verify_ns) ->
         [ string_of_int n; string_of_int bytes; fmt_ns grant_ns; fmt_ns verify_ns ])
       measured);
  Benchout.write ~id:"f1" ~title:"Fig 1: conventional proxy grant/verify vs restriction count"
    (List.map
       (fun (n, bytes, crypto, grant_ns, verify_ns) ->
         {
           Benchout.label = Printf.sprintf "restrictions=%d" n;
           ints = (("restrictions", n) :: ("presentation_bytes", bytes) :: crypto);
           floats = [ ("grant_ns", grant_ns); ("verify_ns", verify_ns) ];
         })
       measured)

(* ------------------------------------------------------------------ *)
(* F2: the layering of security services (Figure 2)                   *)
(* ------------------------------------------------------------------ *)

let fig2 () =
  section "F2 (Fig 2): per-request cost as security services stack";
  let usd = "usd" in
  let rows = ref [] in
  (* Each layer's metered request also runs traced; the span rollup shows
     which protocol step each message/byte/crypto-op lands in. *)
  let phase_rows = ref [] in
  let start_phase net = Option.iter Sim.Span.clear (Sim.Net.spans net) in
  let end_phase layer net = phase_rows := !phase_rows @ span_phase_rows ~layer net in
  let add name deltas latency =
    rows :=
      [ name;
        string_of_int (delta "net.messages" deltas);
        string_of_int (delta "net.bytes" deltas);
        string_of_int (crypto_ops deltas);
        Printf.sprintf "%d us" latency ]
      :: !rows
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
  start_phase w.World.net;
  let _, deltas, lat =
    metered w.World.net (fun () -> expect_ok (File_server.read w.World.net ~creds ~path:"f" ()))
  in
  add "authentication only (owner reads)" deltas lat;
  end_phase "authentication" w.World.net;

  (* Layer 2: + authorization via a capability. *)
  let bob, _ = World.enrol w "bob" in
  let cap =
    expect_ok
      (Capability.mint_via_kdc w.World.net ~kdc:w.World.kdc_name ~tgt ~end_server:fs_name
         ~target:"f" ~ops:[ "read" ] ())
  in
  let tgt_b = World.login w bob in
  let creds_b = World.credentials_for w ~tgt:tgt_b fs_name in
  start_phase w.World.net;
  let _, deltas, lat =
    metered w.World.net (fun () ->
        let p =
          File_server.attach w.World.net ~proxy:cap ~server:fs_name ~operation:"read" ~path:"f"
        in
        expect_ok (File_server.read w.World.net ~creds:creds_b ~proxies:[ p ] ~path:"f" ()))
  in
  add "+ authorization (capability presentation)" deltas lat;
  end_phase "+ authorization" w.World.net;

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
  start_phase w.World.net;
  let _, deltas, lat =
    metered w.World.net (fun () ->
        let gp =
          Guard.present ~proxy:gproxy ~time:(World.now w) ~server:fs_name
            ~operation:"assert-membership" ~target:"staff" ()
        in
        expect_ok (File_server.read w.World.net ~creds:creds_fs ~group_proxies:[ gp ] ~path:"f" ()))
  in
  add "+ group service (membership proxy)" deltas lat;
  end_phase "+ group" w.World.net;

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
         ~bank:bank1_p ~account:"printer" ~signing_key:printer_rsa ~lookup ())
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
  start_phase w.World.net;
  let _, deltas, lat =
    metered w.World.net (fun () ->
        expect_ok
          (Print_server.print w.World.net ~creds:creds_cp ~document:"job" ~content:"x" ~check ()))
  in
  add "+ accounting (print job paid by cross-bank check)" deltas lat;
  end_phase "+ accounting" w.World.net;

  print_table "F2: one request at each service layer"
    [ "configuration"; "messages"; "bytes"; "crypto ops"; "sim latency" ]
    (List.rev !rows);

  print_table "F2b: span rollup — where each layer's cost lands"
    [ "layer"; "span kind"; "count"; "messages"; "bytes"; "crypto ops" ]
    !phase_rows

(* ------------------------------------------------------------------ *)
(* F3: the authorization protocol (Figure 3) vs alternatives          *)
(* ------------------------------------------------------------------ *)

let fig3 () =
  section "F3 (Fig 3): authorization protocol, proxies vs online queries";
  let batch_sizes = [ 1; 10; 100 ] in

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
    let _, deltas, _ =
      metered w.World.net (fun () ->
          let creds = World.credentials_for w ~tgt authz_p in
          let proxy =
            expect_ok
              (Authz_server.request_authorization w.World.net ~creds ~end_server:app_p
                 ~target:"job" ~operation:"run" ())
          in
          for _ = 1 to n do
            let p =
              Guard.present ~proxy ~time:(World.now w) ~server:app_p ~operation:"run"
                ~target:"job" ()
            in
            ignore
              (expect_ok
                 (Guard.decide guard ~operation:"run" ~target:"job" ~presenter:carol
                    ~proxies:[ p ] ()))
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

  let rows =
    List.map
      (fun (name, run) ->
        let counts = List.map run batch_sizes in
        name
        :: List.map2
             (fun n c -> Printf.sprintf "%d (%.1f/req)" c (float_of_int c /. float_of_int n))
             batch_sizes counts)
      [ ("authorization-server proxy (Fig 3)", run_authz);
        ("Grapevine-style online query", run_grapevine) ]
  in
  print_table "F3: authorization messages vs number of requests (acquisition included)"
    ([ "scheme" ] @ List.map (fun n -> Printf.sprintf "N=%d" n) batch_sizes)
    rows

(* ------------------------------------------------------------------ *)
(* F4: cascaded proxies (Figure 4) vs Sollins                         *)
(* ------------------------------------------------------------------ *)

let fig4 () =
  section "F4 (Fig 4): cascade verification vs chain depth; Sollins baseline";
  let drbg = Crypto.Drbg.create ~seed:"f4" in
  let alice = Principal.make ~realm:"r" "alice" in
  let session_key = Crypto.Drbg.generate drbg 32 in
  let open_base blob =
    if blob = "base" then
      Ok
        {
          Verifier.base_client = alice;
          base_session_key = session_key;
          base_expires = max_int;
          base_restrictions = [];
        }
    else Error "unknown"
  in
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
    let _, deltas, _ =
      metered net (fun () ->
          expect_ok (Sollins.verify_online net ~server:as_p ~caller:"end-server" passport))
    in
    let ns =
      ns_per_op
        (Printf.sprintf "sollins/%d" depth)
        (fun () -> Sollins.verify_online net ~server:as_p ~caller:"end-server" passport)
    in
    (delta "net.messages" deltas, ns)
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
  let measured =
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
        let conv_bytes =
          String.length (Wire.encode (Proxy.presentation_to_wire (Proxy.presentation !conv)))
        in
        let conv_ns =
          ns_per_op
            (Printf.sprintf "conv/%d" depth)
            (fun () -> Verifier.verify_conventional ~open_base ~now:1 conv_chain)
        in
        let _, conv_crypto =
          with_tally (fun tally ->
              expect_ok (Verifier.verify_conventional ~open_base ~tally ~now:1 conv_chain))
        in
        (* public-key chain *)
        let pk_certs = build_pk_chain depth in
        let pk_ns =
          ns_per_op (Printf.sprintf "pk/%d" depth) (fun () ->
              Verifier.verify_pk ~lookup ~now:1 pk_certs)
        in
        let _, pk_crypto =
          with_tally (fun tally ->
              expect_ok (Verifier.verify_pk ~lookup ~tally ~now:1 pk_certs))
        in
        let sollins_msgs, sollins_ns = sollins_run depth in
        (depth, conv_bytes, conv_crypto, conv_ns, pk_crypto, pk_ns, sollins_msgs, sollins_ns))
      [ 1; 2; 4; 8; 16 ]
  in
  print_table "F4: verification cost vs cascade depth"
    [ "depth"; "conv verify CPU"; "conv bytes"; "pk verify CPU"; "proxy msgs";
      "sollins verify CPU"; "sollins msgs" ]
    (List.map
       (fun (depth, conv_bytes, _, conv_ns, _, pk_ns, sollins_msgs, sollins_ns) ->
         [ string_of_int depth;
           fmt_ns conv_ns;
           string_of_int conv_bytes;
           fmt_ns pk_ns;
           "0";
           fmt_ns sollins_ns;
           string_of_int sollins_msgs ])
       measured);

  (* Re-presentation study: the same depth-8 chain hits the same end-server
     N times. Uncached, every presentation re-pays all 8 RSA verifications;
     with the shared verification cache the chain's signatures are paid
     once and every later presentation is k cache hits. *)
  let cache_depth = 8 and presentations = 16 in
  let certs = build_pk_chain cache_depth in
  let _, uncached =
    with_tally (fun tally ->
        for _ = 1 to presentations do
          ignore (expect_ok (Verifier.verify_pk ~lookup ~tally ~now:1 certs))
        done)
  in
  let cache = Verify_cache.create () in
  let _, cached =
    with_tally (fun tally ->
        for _ = 1 to presentations do
          ignore (expect_ok (Verifier.verify_pk ~lookup ~tally ~cache ~now:1 certs))
        done)
  in
  let count k l = Option.value (List.assoc_opt k l) ~default:0 in
  let uncached_rsa = count "crypto.rsa_verify" uncached in
  let cached_rsa = count "crypto.rsa_verify" cached in
  let uncached_ns =
    ns_per_op "pk/8-uncached" (fun () -> Verifier.verify_pk ~lookup ~now:1 certs)
  in
  let cached_ns =
    ns_per_op "pk/8-cached" (fun () -> Verifier.verify_pk ~lookup ~cache ~now:1 certs)
  in
  print_table
    (Printf.sprintf "F4b: depth-%d chain presented %d times, verification cache" cache_depth
       presentations)
    [ "path"; "rsa verifies"; "cache hits"; "cache misses"; "verify CPU (warm)" ]
    [ [ "uncached"; string_of_int uncached_rsa; "-"; "-"; fmt_ns uncached_ns ];
      [ "cached";
        string_of_int cached_rsa;
        string_of_int (count "verify_cache.hits" cached);
        string_of_int (count "verify_cache.misses" cached);
        fmt_ns cached_ns ] ];

  (* F4c: the same cascade exercised end to end with causal tracing on.
     Span counts and attributed costs are deterministic under the fixed
     seed, so they join the gated integers. *)
  let traced = Tracing.run_f4 ~seed:"bench-f4" ~requests:4 ~depth:5 () in
  let tspans = traced.Tracing.spans in
  let kind_count k = List.length (List.filter (fun s -> s.Sim.Span.sp_kind = k) tspans) in
  let attributed = Sim.Span.cost_total tspans in
  let attr name = Option.value (List.assoc_opt name attributed) ~default:0 in
  let rerun = Tracing.run_f4 ~seed:"bench-f4" ~requests:4 ~depth:5 () in
  let deterministic = String.equal traced.Tracing.digest rerun.Tracing.digest in
  let costs_match = attributed = traced.Tracing.delta in
  print_table "F4c: traced cascade (requests=4, depth=5) — spans and attributed costs"
    [ "quantity"; "value" ]
    [ [ "spans"; string_of_int (List.length tspans) ];
      [ "actors"; string_of_int (List.length (Sim.Span.actors tspans)) ];
      [ "max depth"; string_of_int (Sim.Span.max_depth tspans) ];
      [ "verify.cert spans"; string_of_int (kind_count "verify.cert") ];
      [ "rpc attempts (incl. retry)"; string_of_int (kind_count "rpc.attempt") ];
      [ "attributed rsa verifies"; string_of_int (attr "crypto.rsa_verify") ];
      [ "attributed cache hits"; string_of_int (attr "verify_cache.hits") ];
      [ "attributed messages"; string_of_int (attr "net.messages") ];
      [ "self costs = global diff"; (if costs_match then "yes" else "NO") ];
      [ "rerun byte-identical"; (if deterministic then "yes" else "NO") ] ];

  Benchout.write ~id:"f4" ~title:"Fig 4: cascade verification vs chain depth; Sollins baseline"
    (List.map
       (fun (depth, conv_bytes, conv_crypto, conv_ns, pk_crypto, pk_ns, sollins_msgs, sollins_ns)
       ->
         {
           Benchout.label = Printf.sprintf "depth=%d" depth;
           ints =
             (("depth", depth) :: ("conv_bytes", conv_bytes) :: ("sollins_msgs", sollins_msgs)
             :: (List.map (fun (k, v) -> ("conv." ^ k, v)) conv_crypto
                @ List.map (fun (k, v) -> ("pk." ^ k, v)) pk_crypto));
           floats =
             [ ("conv_verify_ns", conv_ns); ("pk_verify_ns", pk_ns);
               ("sollins_verify_ns", sollins_ns) ];
         })
       measured
    @ [ {
          Benchout.label =
            Printf.sprintf "cascade depth=%d presented x%d uncached" cache_depth presentations;
          ints = (("depth", cache_depth) :: ("presentations", presentations) :: uncached);
          floats = [ ("verify_ns_warm", uncached_ns) ];
        };
        {
          Benchout.label =
            Printf.sprintf "cascade depth=%d presented x%d cached" cache_depth presentations;
          ints = (("depth", cache_depth) :: ("presentations", presentations) :: cached);
          floats = [ ("verify_ns_warm", cached_ns) ];
        };
        {
          Benchout.label = "traced cascade requests=4 depth=5";
          ints =
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
              ("costs_match", if costs_match then 1 else 0);
              ("jsonl_deterministic", if deterministic then 1 else 0) ];
          floats = [];
        } ])

(* ------------------------------------------------------------------ *)
(* F5: check clearing (Figure 5) vs intermediaries; Amoeba baseline   *)
(* ------------------------------------------------------------------ *)

let fig5 () =
  section "F5 (Fig 5): check clearing vs intermediary accounting servers";
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
    let payee_bank_p, _payee_bank = mk_bank "payee-bank" in
    let drawee_p, drawee = mk_bank "drawee-bank" in
    let hops = List.init k (fun i -> mk_bank (Printf.sprintf "hop%d" i)) in
    (* Route payee-bank -> hop0 -> ... -> drawee. *)
    let chain = (payee_bank_p, Option.get (Some _payee_bank)) :: hops in
    let rec wire_routes = function
      | (_, b) :: ((next_p, _) :: _ as rest) ->
          Accounting_server.set_route b ~drawee:drawee_p ~next_hop:next_p ();
          wire_routes rest
      | [ _ ] | [] -> ()
    in
    wire_routes chain;
    let tgt_c = World.login w carol in
    let creds_cd = World.credentials_for w ~tgt:tgt_c drawee_p in
    expect_ok (Accounting_server.open_account w.World.net ~creds:creds_cd ~name:"carol");
    ignore (Ledger.mint (Accounting_server.ledger drawee) ~name:"carol" ~currency:usd 1_000);
    let tgt_s = World.login w shop in
    let creds_sb = World.credentials_for w ~tgt:tgt_s payee_bank_p in
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
    ( (if certified then Printf.sprintf "%d (certified)" k else string_of_int k),
      {
        Benchout.label =
          Printf.sprintf "intermediaries=%d%s" k (if certified then " certified" else "");
        ints =
          [ ("intermediaries", k);
            ("messages", delta "net.messages" deltas);
            ("bytes", delta "net.bytes" deltas);
            ("endorsements", delta "accounting.endorsements" deltas);
            ("crypto_ops", crypto_ops deltas);
            ("sim_latency_us", lat) ];
        floats = [];
      } )
  in
  let rows =
    List.map (fun k -> clear_with_intermediaries k false) [ 0; 1; 2; 4; 8 ]
    @ [ clear_with_intermediaries 0 true ]
  in
  let cell (r : Benchout.row) name = string_of_int (List.assoc name r.Benchout.ints) in
  print_table "F5: clearing one 100-usd check"
    [ "intermediaries"; "messages"; "bytes"; "endorsements"; "crypto ops"; "sim latency" ]
    (List.map
       (fun (shown, r) ->
         [ shown; cell r "messages"; cell r "bytes"; cell r "endorsements"; cell r "crypto_ops";
           cell r "sim_latency_us" ^ " us" ])
       rows);

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
  let amoeba =
    {
      Benchout.label = "amoeba pre-pay";
      ints =
        [ ("messages", delta "net.messages" deltas);
          ("bytes", delta "net.bytes" deltas);
          ("sim_latency_us", lat) ];
      floats = [];
    }
  in
  print_table "F5 baseline: Amoeba pre-paid transfer (one purchase)"
    [ "scheme"; "messages"; "bytes"; "sim latency" ]
    [ [ "Amoeba pre-pay (pay before service)"; cell amoeba "messages"; cell amoeba "bytes";
        cell amoeba "sim_latency_us" ^ " us" ] ];
  Benchout.write ~id:"f5" ~title:"Fig 5: check clearing vs intermediary accounting servers"
    (List.map snd rows @ [ amoeba ])

(* ------------------------------------------------------------------ *)
(* F6: public-key proxies (Figure 6) vs conventional                  *)
(* ------------------------------------------------------------------ *)

let fig6 () =
  section "F6 (Fig 6): public-key vs conventional realization";
  let drbg = Crypto.Drbg.create ~seed:"f6" in
  let alice = Principal.make ~realm:"r" "alice" in
  let session_key = Crypto.Drbg.generate drbg 32 in
  let open_base blob =
    if blob = "base" then
      Ok
        {
          Verifier.base_client = alice;
          base_session_key = session_key;
          base_expires = max_int;
          base_restrictions = [];
        }
    else Error "unknown"
  in
  let restrictions = [ R.Authorized [ { R.target = "obj"; ops = [ "read" ] } ] ] in
  let json_rows = ref [] in
  let emit label ints floats = json_rows := { Benchout.label; ints; floats } :: !json_rows in
  let conv_grant () =
    Proxy.grant_conventional ~drbg ~now:0 ~expires:max_int ~grantor:alice ~session_key
      ~base:"base" ~restrictions
  in
  let conv = conv_grant () in
  let conv_chain = match conv.Proxy.flavor with Proxy.Conventional c -> c | _ -> assert false in
  let conv_row =
    let grant_ns = ns_per_op "conv-grant" conv_grant in
    let verify_ns =
      ns_per_op "conv-verify" (fun () -> Verifier.verify_conventional ~open_base ~now:1 conv_chain)
    in
    let bytes =
      String.length (Wire.encode (Proxy.presentation_to_wire (Proxy.presentation conv)))
    in
    let _, crypto =
      with_tally (fun tally ->
          expect_ok (Verifier.verify_conventional ~open_base ~tally ~now:1 conv_chain))
    in
    emit "conventional" (("presentation_bytes", bytes) :: crypto)
      [ ("grant_ns", grant_ns); ("verify_ns", verify_ns) ];
    [ "conventional (HMAC/AEAD)";
      fmt_ns grant_ns;
      fmt_ns verify_ns;
      string_of_int bytes;
      "one end-server";
      "no" ]
  in
  (* Hybrid row: signed like public-key, but the proxy key is symmetric and
     sealed to one end-server — no per-proxy keypair generation. *)
  let hybrid_row =
    let grantor_key = Crypto.Rsa.generate drbg ~bits:512 in
    let end_server = Principal.make ~realm:"r" "server" in
    let server_key = Crypto.Rsa.generate drbg ~bits:512 in
    let lookup p = if Principal.equal p alice then Some grantor_key.Crypto.Rsa.pub else None in
    let grant () =
      match
        Proxy.grant_hybrid ~drbg ~now:0 ~expires:max_int ~grantor:alice ~grantor_key
          ~end_server ~end_server_pub:server_key.Crypto.Rsa.pub ~restrictions ()
      with
      | Ok p -> p
      | Error e -> failwith e
    in
    let proxy = grant () in
    let chain =
      match proxy.Proxy.flavor with Proxy.Hybrid (h, b) -> (h, b) | _ -> assert false
    in
    let grant_ns = ns_per_op "hybrid-grant" grant in
    let verify_ns =
      ns_per_op "hybrid-verify" (fun () ->
          Verifier.verify_hybrid ~lookup ~decrypt:(Crypto.Rsa.decrypt server_key) ~now:1 chain)
    in
    let bytes =
      String.length (Wire.encode (Proxy.presentation_to_wire (Proxy.presentation proxy)))
    in
    let _, crypto =
      with_tally (fun tally ->
          expect_ok
            (Verifier.verify_hybrid ~lookup ~decrypt:(Crypto.Rsa.decrypt server_key) ~tally
               ~now:1 chain))
    in
    emit "hybrid rsa-512" (("presentation_bytes", bytes) :: crypto)
      [ ("grant_ns", grant_ns); ("verify_ns", verify_ns) ];
    [ "hybrid RSA-512 (Sec 6.1)";
      fmt_ns grant_ns;
      fmt_ns verify_ns;
      string_of_int bytes;
      "one end-server";
      "signature only" ]
  in
  let pk_rows =
    List.map
      (fun bits ->
        let grantor_key = Crypto.Rsa.generate drbg ~bits in
        let lookup p =
          if Principal.equal p alice then Some grantor_key.Crypto.Rsa.pub else None
        in
        let grant () =
          Proxy.grant_pk ~drbg ~now:0 ~expires:max_int ~grantor:alice ~grantor_key
            ~proxy_bits:bits ~restrictions ()
        in
        let proxy = grant () in
        let certs = match proxy.Proxy.flavor with Proxy.Public_key c -> c | _ -> assert false in
        let grant_ns = wall_ns ~iters:3 grant in
        let verify_ns =
          ns_per_op (Printf.sprintf "pk-verify-%d" bits) (fun () ->
              Verifier.verify_pk ~lookup ~now:1 certs)
        in
        let bytes =
          String.length (Wire.encode (Proxy.presentation_to_wire (Proxy.presentation proxy)))
        in
        let _, crypto =
          with_tally (fun tally ->
              expect_ok (Verifier.verify_pk ~lookup ~tally ~now:1 certs))
        in
        emit
          (Printf.sprintf "public-key rsa-%d" bits)
          (("bits", bits) :: ("presentation_bytes", bytes) :: crypto)
          [ ("grant_ns", grant_ns); ("verify_ns", verify_ns) ];
        [ Printf.sprintf "public-key RSA-%d" bits;
          fmt_ns grant_ns;
          fmt_ns verify_ns;
          string_of_int bytes;
          "any (issued-for restricts)";
          "yes" ])
      [ 512; 768; 1024 ]
  in
  print_table "F6: one-restriction proxy, all three realizations"
    [ "realization"; "grant"; "verify CPU"; "presentation bytes"; "valid at";
      "third-party verifiable" ]
    (conv_row :: hybrid_row :: pk_rows);

  (* Private-key fast path: CRT + Montgomery signing vs the pre-optimization
     reference (plain d, division-per-step square-and-multiply). Signatures
     must be byte-identical — PKCS#1 v1.5 is deterministic and the CRT
     recombination computes the same value as c^d mod n. *)
  let sign_rows =
    List.map
      (fun bits ->
        let key = Crypto.Rsa.generate drbg ~bits in
        let msg = "fast-path trajectory" in
        let fast_sig = Crypto.Rsa.sign key msg in
        let ref_sig = Crypto.Rsa.sign_reference key msg in
        let identical = String.equal fast_sig ref_sig in
        let verifies = Crypto.Rsa.verify key.Crypto.Rsa.pub ~msg ~signature:fast_sig in
        let fast_ns = wall_ns ~iters:5 (fun () -> Crypto.Rsa.sign key msg) in
        let ref_ns = wall_ns ~iters:3 (fun () -> Crypto.Rsa.sign_reference key msg) in
        let speedup = ref_ns /. fast_ns in
        emit
          (Printf.sprintf "rsa-%d sign fast path" bits)
          [ ("bits", bits);
            ("byte_identical", if identical then 1 else 0);
            ("verifies", if verifies then 1 else 0) ]
          [ ("sign_ns", fast_ns); ("sign_reference_ns", ref_ns); ("speedup", speedup) ];
        [ Printf.sprintf "RSA-%d" bits;
          fmt_ns fast_ns;
          fmt_ns ref_ns;
          Printf.sprintf "%.1fx" speedup;
          (if identical then "yes" else "NO") ])
      [ 512; 1024 ]
  in
  print_table "F6b: RSA sign, CRT+Montgomery fast path vs pre-optimization reference"
    [ "modulus"; "sign (fast)"; "sign (reference)"; "speedup"; "byte-identical" ]
    sign_rows;
  Benchout.write ~id:"f6" ~title:"Fig 6: public-key vs conventional realization; sign fast path"
    (List.rev !json_rows)

(* ------------------------------------------------------------------ *)
(* C3: DSSA roles vs on-the-fly restricted proxies                    *)
(* ------------------------------------------------------------------ *)

let c3 () =
  section "C3 (Sec 5): delegation cost, restricted proxies vs DSSA roles";
  let w = World.create ~seed:"c3" () in
  let alice, _, alice_rsa = World.enrol_pk w "alice" in
  let bob = Principal.make ~realm:w.World.realm "bob" in
  let drbg = Sim.Net.drbg w.World.net in
  (* Restricted proxy: minted locally, no server contact, no server state. *)
  let proxy_grant () =
    Proxy.grant_pk ~drbg ~now:0 ~expires:max_int ~grantor:alice ~grantor_key:alice_rsa
      ~proxy_bits:512
      ~restrictions:
        [ R.Grantee ([ bob ], 1); R.Authorized [ { R.target = "file1"; ops = [ "read" ] } ] ]
      ()
  in
  let _, pdeltas, _ = metered w.World.net (fun () -> ignore (proxy_grant ())) in
  let proxy_ns = wall_ns ~iters:3 proxy_grant in

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
  let _, ddeltas, _ = metered w.World.net (fun () -> ignore (dssa_delegate ())) in
  let roles_created = Dssa.role_count ca - roles_before in
  let dssa_ns = wall_ns ~iters:3 dssa_delegate in
  print_table "C3: one restricted delegation to bob"
    [ "scheme"; "CPU"; "messages"; "server state created" ]
    [ [ "restricted proxy (local grant)";
        fmt_ns proxy_ns;
        string_of_int (delta "net.messages" pdeltas);
        "none" ];
      [ "DSSA role creation + delegation";
        fmt_ns dssa_ns;
        string_of_int (delta "net.messages" ddeltas);
        Printf.sprintf "%d role registration at the CA (grows per delegation)" roles_created ] ];

  (* Narrowing an existing delegation: offline for proxies, another
     authority round-trip for ECMA PACs (Section 5). *)
  let base_proxy = proxy_grant () in
  let narrow_proxy () =
    expect_ok
      (Proxy.restrict_pk ~drbg ~now:0 ~expires:max_int ~proxy_bits:512
         ~restrictions:[ R.Quota ("pages", 1) ] base_proxy)
  in
  let _, ndeltas, _ = metered w.World.net (fun () -> ignore (narrow_proxy ())) in
  let narrow_ns = wall_ns ~iters:3 narrow_proxy in
  let pac_authority_p = Principal.make ~realm:"r" "pac-authority" in
  let pac_authority =
    Ecma_pac.create w.World.net ~name:pac_authority_p ~drbg ~bits:512
  in
  Ecma_pac.install pac_authority;
  Ecma_pac.entitle pac_authority alice "read:file1";
  let pac_narrow () =
    expect_ok
      (Ecma_pac.request w.World.net ~authority:pac_authority_p ~caller:alice
         ~privileges:[ "read:file1" ] ())
  in
  let _, pacdeltas, _ = metered w.World.net (fun () -> ignore (pac_narrow ())) in
  let pac_ns = wall_ns ~iters:3 pac_narrow in
  let session_key = Crypto.Drbg.generate drbg 32 in
  let conv_base =
    Proxy.grant_conventional ~drbg ~now:0 ~expires:max_int ~grantor:alice ~session_key
      ~base:"b" ~restrictions:[]
  in
  let conv_narrow () =
    expect_ok
      (Proxy.restrict_conventional ~drbg ~now:0 ~expires:max_int
         ~restrictions:[ R.Quota ("pages", 1) ] conv_base)
  in
  print_table "C3b: narrowing an existing delegation"
    [ "scheme"; "CPU"; "messages" ]
    [ [ "proxy cascade, conventional (offline)";
        fmt_ns (ns_per_op "conv-narrow" conv_narrow);
        "0" ];
      [ "proxy cascade, public-key (offline)";
        fmt_ns narrow_ns;
        string_of_int (delta "net.messages" ndeltas) ];
      [ "ECMA PAC re-issue (online)";
        fmt_ns pac_ns;
        string_of_int (delta "net.messages" pacdeltas) ] ]

(* ------------------------------------------------------------------ *)
(* A1: accept-once replay cache ablation                              *)
(* ------------------------------------------------------------------ *)

let a1 () =
  section "A1 (ablation): accept-once replay cache";
  let measured =
    List.map
      (fun size ->
        let cache = Replay_cache.create () in
        for i = 1 to size do
          ignore (Replay_cache.record cache ~now:0 ~expires:max_int (string_of_int i))
        done;
        let i = ref 0 in
        let probe_ns =
          ns_per_op (Printf.sprintf "replay-probe/%d" size) (fun () ->
              incr i;
              Replay_cache.seen cache ~now:0 (string_of_int (!i mod (2 * size))))
        in
        (* Every duplicate must be caught. *)
        let dupes_caught = ref 0 in
        for j = 1 to size do
          if Replay_cache.seen cache ~now:0 (string_of_int j) then incr dupes_caught
        done;
        (size, probe_ns, !dupes_caught))
      [ 100; 1_000; 10_000; 100_000 ]
  in
  print_table "A1: probe cost and replay detection vs cache population"
    [ "live identifiers"; "probe CPU"; "duplicates caught" ]
    (List.map
       (fun (size, probe_ns, caught) ->
         [ string_of_int size; fmt_ns probe_ns; Printf.sprintf "%d/%d" caught size ])
       measured);

  (* Capacity study: flood a small bounded cache with live (never-expiring)
     identifiers. Occupancy stays at the bound; every insertion past it
     evicts the soonest-expiring entry. *)
  let capacity = 1_000 and flood = 2_500 in
  let evictions = ref 0 in
  let bounded = Replay_cache.create ~capacity ~on_evict:(fun () -> incr evictions) () in
  for i = 1 to flood do
    ignore (Replay_cache.record bounded ~now:0 ~expires:(max_int - i) (string_of_int i))
  done;
  print_table "A1b: bounded replay cache under flood"
    [ "capacity"; "inserted"; "evictions"; "final size" ]
    [ [ string_of_int capacity;
        string_of_int flood;
        string_of_int !evictions;
        string_of_int (Replay_cache.size bounded) ] ];

  (* Capacity pressure: fill a table with live identifiers, then insert
     1000 more — each must evict exactly one. insert_ns times a further
     insert at capacity. The response cache ticks no hook outside [serve],
     so its evictions are the seeded replies no longer cached. *)
  let pressure name capacity insert ~evictions ~size =
    let n = capacity + 1_000 in
    for i = 1 to n do
      insert i
    done;
    let ints = [ ("capacity", capacity); ("evictions", evictions n); ("final_size", size n) ] in
    let next = ref n in
    let insert_ns =
      ns_per_op (Printf.sprintf "%s-insert/%d" name capacity) (fun () ->
          incr next;
          insert !next)
    in
    { Benchout.label = Printf.sprintf "pressure %s capacity=%d" name capacity; ints;
      floats = [ ("insert_ns", insert_ns) ] }
  in
  let replay_pressure capacity =
    let evicted = ref 0 in
    let c = Replay_cache.create ~capacity ~on_evict:(fun () -> incr evicted) () in
    pressure "replay-cache" capacity
      (fun i -> ignore (Replay_cache.record c ~now:0 ~expires:max_int (string_of_int i)))
      ~evictions:(fun _ -> !evicted) ~size:(fun _ -> Replay_cache.size c)
  in
  let response_pressure () =
    let c = Secure_rpc.create_cache () in
    let kept n =
      List.length
        (List.filter (fun i -> Secure_rpc.cached c ~auth_id:(string_of_int i)) (List.init n succ))
    in
    pressure "response-cache" 4096
      (fun i ->
        Secure_rpc.seed_response c ~now:0 ~auth_id:(string_of_int i) ~expires:max_int ~reply:"")
      ~evictions:(fun n -> n - kept n) ~size:kept
  in
  let pressured =
    List.map replay_pressure [ 1 lsl 10; 1 lsl 12; 1 lsl 14; 1 lsl 17 ] @ [ response_pressure () ]
  in
  print_table "A1c: insert cost at capacity (fill, then 1000 more live inserts)"
    [ "table"; "evictions"; "final size"; "insert CPU" ]
    (List.map
       (fun r ->
         let int k = string_of_int (List.assoc k r.Benchout.ints) in
         [ r.Benchout.label; int "evictions"; int "final_size";
           fmt_ns (List.assoc "insert_ns" r.Benchout.floats) ])
       pressured);

  Benchout.write ~id:"a1" ~title:"ablation: accept-once replay cache"
    (List.map
       (fun (size, probe_ns, caught) ->
         {
           Benchout.label = Printf.sprintf "population=%d" size;
           ints = [ ("population", size); ("duplicates_caught", caught) ];
           floats = [ ("probe_ns", probe_ns) ];
         })
       measured
    @ [ {
          Benchout.label = Printf.sprintf "flood capacity=%d inserted=%d" capacity flood;
          ints =
            [ ("capacity", capacity);
              ("inserted", flood);
              ("evictions", !evictions);
              ("final_size", Replay_cache.size bounded) ];
          floats = [];
        } ]
    @ pressured)

(* ------------------------------------------------------------------ *)
(* A3: TGS proxies (Sec 6.3) vs per-server capabilities               *)
(* ------------------------------------------------------------------ *)

let a3 () =
  section "A3 (Sec 6.3): equipping a grantee for k end-servers";
  let rows =
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
                       (Capability.mint_via_kdc w.World.net ~kdc:w.World.kdc_name ~tgt
                          ~end_server:s ~target:"obj" ~ops:[ "read" ] ())))
                servers)
        in
        (* Scheme 2: one TGS proxy; the grantee derives per server. *)
        let w = World.create ~seed:(Printf.sprintf "a3tgs%d" k) () in
        let alice, _ = World.enrol w "alice" in
        let servers = List.init k (fun i -> fst (World.enrol w (Printf.sprintf "srv%d" i))) in
        let tgt = World.login w alice in
        let _, grant_deltas, _ =
          metered w.World.net (fun () ->
              expect_ok
                (Tgs_proxy.grant w.World.net ~kdc:w.World.kdc_name ~tgt
                   ~restrictions:[ R.Authorized [ { R.target = "obj"; ops = [ "read" ] } ] ]
                   ()))
        in
        let proxy_tgt =
          expect_ok
            (Tgs_proxy.grant w.World.net ~kdc:w.World.kdc_name ~tgt
               ~restrictions:[ R.Authorized [ { R.target = "obj"; ops = [ "read" ] } ] ]
               ())
        in
        let _, use_deltas, _ =
          metered w.World.net (fun () ->
              List.iter
                (fun s ->
                  ignore
                    (expect_ok
                       (Tgs_proxy.use w.World.net ~kdc:w.World.kdc_name ~proxy_tgt ~service:s)))
                servers)
        in
        [ string_of_int k;
          string_of_int (delta "net.messages" cap_deltas);
          string_of_int (delta "net.messages" grant_deltas);
          string_of_int (delta "net.messages" use_deltas) ])
      [ 1; 2; 4; 8; 16 ]
  in
  print_table "A3: messages to delegate access to k end-servers"
    [ "end-servers k"; "k capabilities (grantor msgs)"; "TGS proxy (grantor msgs)";
      "TGS proxy (grantee msgs)" ]
    rows

(* ------------------------------------------------------------------ *)
(* A2: restriction-propagation ablation (Sec 7.9)                     *)
(* ------------------------------------------------------------------ *)

let a2 () =
  section "A2 (ablation): limit-restriction elision in propagation";
  let server_a = Principal.make ~realm:"r" "server-a" in
  let server_b = Principal.make ~realm:"r" "server-b" in
  let rows =
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
        [ string_of_int limited;
          string_of_int (List.length naive);
          string_of_int (bytes naive);
          string_of_int (List.length propagated);
          string_of_int (bytes propagated) ])
      [ 0; 2; 4; 8; 16 ]
  in
  print_table "A2: derived-proxy restriction list, naive copy vs Sec-7.9 elision"
    [ "limit-restrictions"; "naive count"; "naive bytes"; "elided count"; "elided bytes" ]
    rows

(* ------------------------------------------------------------------ *)
(* C4: resilience under chaos (drop rate vs goodput/latency/retries)  *)
(* ------------------------------------------------------------------ *)

let c4 () =
  section "C4: accounting workload under fault injection";
  Printf.printf
    "Two-bank marketplace workload (%d ops) under a seeded fault plan; each row\n\
     is one chaos run. Goodput = operations whose caller saw success; latency is\n\
     virtual per-logical-call time including timeouts, backoff, and retries.\n"
    Chaos.default.Chaos.ops;
  let row drop =
    let cfg =
      { Chaos.default with seed = Printf.sprintf "c4-%.2f" drop; drop; crash_drawee = false }
    in
    let o = Chaos.run cfg in
    let lat_mean, lat_max =
      match o.Chaos.latency with
      | None -> ("n/a", "n/a")
      | Some d ->
          ( Printf.sprintf "%.0f us" (Sim.Metrics.mean d),
            Printf.sprintf "%d us" d.Sim.Metrics.max )
    in
    [ Printf.sprintf "%.0f%%" (drop *. 100.);
      Printf.sprintf "%d/%d" o.Chaos.succeeded o.Chaos.attempted;
      string_of_int o.Chaos.retries_used;
      string_of_int o.Chaos.gave_up;
      string_of_int o.Chaos.dedups;
      lat_mean;
      lat_max;
      (match o.Chaos.conserved with Ok () -> "yes" | Error _ -> "NO");
      string_of_int o.Chaos.double_redemptions ]
  in
  let rows = List.map row [ 0.0; 0.05; 0.15; 0.25; 0.35 ] in
  print_table "C4: goodput/latency/retries vs per-message drop rate"
    [ "drop"; "goodput"; "retries"; "gave up"; "dedup"; "mean latency"; "max latency";
      "conserved"; "double-redeem" ]
    rows

(* ------------------------------------------------------------------ *)
(* S1: sharded accounting cluster with replica failover               *)
(* ------------------------------------------------------------------ *)

(* Virtual-time simulation: every integer below (messages, failovers,
   percentiles) is deterministic and identical in fast and full mode, so
   the whole row set is gateable against a committed baseline. *)
let s1 () =
  section "S1: sharded accounting cluster under replica failover";
  Printf.printf
    "Buyers pay a shop by check across consistently-hashed bank shards, each a\n\
     primary/standby pair with replay-log replication; a seeded fault plan drops\n\
     and duplicates messages and permanently crashes the shop shard's primary\n\
     mid-run. Goodput = operations whose caller saw success; latency percentiles\n\
     are per-operation virtual time including timeouts and failover.\n";
  let row shards =
    let cfg =
      { Cluster.Scenario.default with seed = Printf.sprintf "s1-%d" shards; shards }
    in
    (shards, Cluster.Scenario.run cfg)
  in
  let measured = List.map row [ 1; 2; 4; 8 ] in
  (* The domains axis: the same seeded lane workload (4 shards, one fully
     isolated world per shard, cross-shard checks cleared at epoch
     barriers) scheduled over 1, 2, and 4 OCaml domains. Every count and
     the digest (each lane's metrics, trace and spans) must be byte-identical
     to the domains=1 schedule — those are the gated integers; wall-clock and the
     derived speedup are machine-dependent floats and never gated. *)
  let lane_cfg domains =
    { Cluster.Lanes.default with Cluster.Lanes.seed = "s1-lanes"; shards = 4; domains }
  in
  let lane_base = Cluster.Lanes.run (lane_cfg 1) in
  let lane_rows =
    List.map
      (fun domains ->
        let o = if domains = 1 then lane_base else Cluster.Lanes.run (lane_cfg domains) in
        let same = String.equal o.Cluster.Lanes.digest lane_base.Cluster.Lanes.digest in
        (domains, o, same))
      [ 1; 2; 4 ]
  in
  print_table "S1: goodput/latency/messages vs shard count (primary crashed mid-run)"
    [ "shards"; "goodput"; "failovers"; "promoted"; "repl ships"; "messages"; "p50";
      "p99"; "conserved"; "double-redeem" ]
    (List.map
       (fun (shards, o) ->
         [ string_of_int shards;
           Printf.sprintf "%d/%d" o.Cluster.Scenario.succeeded o.Cluster.Scenario.attempted;
           string_of_int o.Cluster.Scenario.failovers;
           string_of_int o.Cluster.Scenario.promotions;
           string_of_int o.Cluster.Scenario.repl_shipped;
           string_of_int o.Cluster.Scenario.messages;
           Printf.sprintf "%d us" o.Cluster.Scenario.p50_us;
           Printf.sprintf "%d us" o.Cluster.Scenario.p99_us;
           (match o.Cluster.Scenario.conserved with Ok () -> "yes" | Error _ -> "NO");
           string_of_int o.Cluster.Scenario.double_redemptions ])
       measured);
  print_table "S1: lane-parallel schedule vs OCaml domains (4 shards, same seed)"
    [ "domains"; "goodput"; "cleared"; "delivered"; "conserved"; "identical";
      "wall"; "speedup" ]
    (List.map
       (fun (domains, o, same) ->
         [ string_of_int domains;
           Printf.sprintf "%d/%d" o.Cluster.Lanes.succeeded o.Cluster.Lanes.attempted;
           Printf.sprintf "%d/%d" o.Cluster.Lanes.remote_cleared o.Cluster.Lanes.remote_sent;
           string_of_int o.Cluster.Lanes.delivered;
           (match o.Cluster.Lanes.conserved with Ok () -> "yes" | Error _ -> "NO");
           (if same then "yes" else "NO");
           Printf.sprintf "%.3f s" o.Cluster.Lanes.wall_s;
           Printf.sprintf "%.2fx" (lane_base.Cluster.Lanes.wall_s /. o.Cluster.Lanes.wall_s) ])
       lane_rows);
  Benchout.write ~id:"s1"
    ~title:"cluster: sharded accounting, replica failover, conservation"
    (List.map
       (fun (shards, o) ->
         {
           Benchout.label = Printf.sprintf "shards=%d" shards;
           ints =
             [ ("shards", shards);
               ("succeeded", o.Cluster.Scenario.succeeded);
               ("messages", o.Cluster.Scenario.messages);
               ("failovers", o.Cluster.Scenario.failovers);
               ("promotions", o.Cluster.Scenario.promotions);
               ("repl_shipped", o.Cluster.Scenario.repl_shipped);
               ("repl_failures", o.Cluster.Scenario.repl_failures);
               ("conservation_ok",
                if Result.is_ok o.Cluster.Scenario.conserved then 1 else 0);
               ("double_redemptions", o.Cluster.Scenario.double_redemptions);
               ("p50_us", o.Cluster.Scenario.p50_us);
               ("p99_us", o.Cluster.Scenario.p99_us) ];
           floats = [];
         })
       measured
    @ List.map
        (fun (domains, o, same) ->
          {
            Benchout.label = Printf.sprintf "domains=%d" domains;
            ints =
              [ ("domains", domains);
                ("succeeded", o.Cluster.Lanes.succeeded);
                ("remote_cleared", o.Cluster.Lanes.remote_cleared);
                ("delivered", o.Cluster.Lanes.delivered);
                ("bulletins_applied", o.Cluster.Lanes.bulletins_applied);
                ("conservation_ok", if Result.is_ok o.Cluster.Lanes.conserved then 1 else 0);
                ("double_redemptions", o.Cluster.Lanes.double_redemptions);
                ("identical_to_1domain", if same then 1 else 0) ];
            floats =
              [ ("wall_s", o.Cluster.Lanes.wall_s);
                ("speedup_vs_1domain",
                 lane_base.Cluster.Lanes.wall_s /. o.Cluster.Lanes.wall_s) ];
          })
        lane_rows)

(* ------------------------------------------------------------------ *)
(* R1: revocation rate vs verify throughput                           *)
(* ------------------------------------------------------------------ *)

(* A warm verify cache serves a fixed population of public-key chains
   while signed bulletins land at increasing rates. Cache keys are one-way
   hashes, so a bulletin that adds coverage retires the whole generation
   (the invalidation storm); the verify path then pays fresh RSA for every
   live chain until the cache re-warms. Logical counters (verifies, hits,
   invalidations, denials) are deterministic and CI-gated; CPU time is
   informative only. *)

let r1 () =
  section "R1: revocation rate vs verify throughput";
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
  let rates = [ 0; 1; 4; 16; 64 ] in
  let measured =
    List.map
      (fun rate ->
        let sub = Revocation.create ~issuer:authority ~issuer_pub:ra_kp.Crypto.Rsa.pub ~now:0 () in
        let cache = Verify_cache.create () in
        let epoch = ref 1 in
        let entries = ref [] in
        let revoked = ref 0 in
        let bumps = ref 0 in
        let denials = ref 0 in
        let interval = if rate = 0 then 0 else 1_000 / rate in
        (* One pass only (~iters:1): the logical counters below must not
           depend on how often the wall clock sampled the loop. *)
        let ns =
          wall_ns ~iters:1 (fun () ->
              for i = 1 to verifies do
                if interval > 0 && i mod interval = 0 && !revoked < chains - 1 then begin
                  entries :=
                    Revocation.By_serial (serial_of population.(!revoked)) :: !entries;
                  incr revoked;
                  incr epoch;
                  let b =
                    Revocation.sign ~key:ra_kp ~issuer:authority ~epoch:!epoch ~issued_at:0 !entries
                  in
                  match Revocation.apply sub b with
                  | Ok (Revocation.Applied { fresh; _ }) when fresh > 0 ->
                      ignore (Verify_cache.bump_generation cache);
                      incr bumps
                  | _ -> ()
                end;
                match
                  Verifier.verify_pk ~lookup ~cache ~revocation:sub ~now:1
                    population.(i mod chains)
                with
                | Ok _ -> ()
                | Error _ -> incr denials
              done)
        in
        let s = Verify_cache.stats cache in
        (rate, !revoked, !bumps, !denials, s, ns))
      rates
  in
  print_table "R1: bulletin-driven invalidation vs verify throughput"
    [ "revocations/1k verifies"; "revoked"; "generation bumps"; "cache hits"; "misses";
      "invalidated"; "denials"; "per-verify CPU" ]
    (List.map
       (fun (rate, revoked, bumps, denials, s, ns) ->
         [ string_of_int rate;
           string_of_int revoked;
           string_of_int bumps;
           string_of_int s.Verify_cache.hits;
           string_of_int s.Verify_cache.misses;
           string_of_int s.Verify_cache.invalidations;
           string_of_int denials;
           fmt_ns (ns /. float_of_int verifies) ])
       measured);
  Benchout.write ~id:"r1" ~title:"revocation: bulletin rate vs verify throughput"
    (List.map
       (fun (rate, revoked, bumps, denials, s, ns) ->
         {
           Benchout.label = Printf.sprintf "rate=%d/1k" rate;
           ints =
             [ ("verifies", verifies);
               ("revocations", revoked);
               ("generation_bumps", bumps);
               ("cache_hits", s.Verify_cache.hits);
               ("cache_misses", s.Verify_cache.misses);
               ("invalidations", s.Verify_cache.invalidations);
               ("denials", denials) ];
           floats =
             [ ("verify_ns", ns /. float_of_int verifies);
               ("throughput_per_s", float_of_int verifies *. 1e9 /. ns) ];
         })
       measured)

(* ------------------------------------------------------------------ *)
(* L1: open-loop load harness + batched hot path                       *)
(* ------------------------------------------------------------------ *)

(* Two halves. The cascade study isolates the per-signature cache's
   O(k+M) claim: M holders sharing one depth-k prefix, verified under three
   strategies, with exact deterministic RSA totals. The load runs drive the
   full stack (KDC, guarded file server, sharded cluster) open-loop from a
   100k-principal lazy Zipf population, once with the batched hot path
   (RPC pipelining) and once without. All integer metrics are CI-gated;
   wall-clock goes in floats. *)

let l1 () =
  section "L1: open-loop load harness + batched hot path";
  Printf.printf
    "Cascade study: %d holders share one depth-%d chain prefix. The per-signature\n\
     cache verifies k+M signatures (the floor); whole-presentation memoization\n\
     pays (k+1)*M because no holder's chain matches another's as a unit.\n"
    16 8;
  let c = Load.Driver.cascade_study ~seed:"l1-cascade" () in
  print_table "L1a: RSA verifies, depth-8 prefix x 16 holders x 3 repeats"
    [ "strategy"; "rsa verifies"; "cache hits"; "misses" ]
    [ [ "uncached"; string_of_int c.Load.Driver.c_rsa_uncached; "-"; "-" ];
      [ "whole-presentation memo"; string_of_int c.Load.Driver.c_rsa_whole_chain; "-"; "-" ];
      [ "per-signature cache"; string_of_int c.Load.Driver.c_rsa_per_signature;
        string_of_int c.Load.Driver.c_sig_hits; string_of_int c.Load.Driver.c_sig_misses ] ];
  Printf.printf
    "Open-loop load: steady/burst/steady arrival profile against the full stack;\n\
     lateness under the burst lands in p99, not in a throttled offered load.\n";
  let base = { Load.Driver.default with Load.Driver.seed = "l1" } in
  let timed label cfg =
    let t0 = Unix.gettimeofday () in
    let o = Load.Driver.run cfg in
    (label, o, Unix.gettimeofday () -. t0)
  in
  let runs =
    [ timed "batched" base;
      timed "unbatched" { base with Load.Driver.pipeline = false } ]
  in
  let met = Load.Driver.metric in
  print_table "L1b: open-loop goodput/latency, batched hot path on vs off"
    [ "config"; "goodput"; "touched"; "keygens"; "reused"; "rsa vfy"; "batch items";
      "repl ships"; "read skips"; "p50"; "p99" ]
    (List.map
       (fun (label, o, _) ->
         [ label;
           Printf.sprintf "%d/%d" o.Load.Driver.succeeded o.Load.Driver.arrivals;
           string_of_int o.Load.Driver.touched;
           string_of_int o.Load.Driver.keys_generated;
           string_of_int o.Load.Driver.keys_reused;
           string_of_int (met o "crypto.rsa_verify");
           string_of_int (met o "rpc.batch.items");
           string_of_int (met o "cluster.repl_shipped");
           string_of_int (met o "cluster.repl_read_skips");
           Printf.sprintf "%d us" o.Load.Driver.p50_us;
           Printf.sprintf "%d us" o.Load.Driver.p99_us ])
       runs);
  Benchout.write ~id:"l1" ~title:"load: open-loop harness + batched hot path"
    ({
       Benchout.label = "cascade depth=8 holders=16";
       ints =
         [ ("depth", c.Load.Driver.c_depth);
           ("holders", c.Load.Driver.c_holders);
           ("repeats", c.Load.Driver.c_repeats);
           ("rsa_uncached", c.Load.Driver.c_rsa_uncached);
           ("rsa_whole_chain", c.Load.Driver.c_rsa_whole_chain);
           ("rsa_per_signature", c.Load.Driver.c_rsa_per_signature);
           ("sig_hits", c.Load.Driver.c_sig_hits);
           ("sig_misses", c.Load.Driver.c_sig_misses) ];
       floats = [];
     }
    :: List.map
         (fun (label, o, secs) ->
           {
             Benchout.label = "load " ^ label;
             ints =
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
                 ("p99_us", o.Load.Driver.p99_us) ];
             floats = [ ("wall_s", secs) ];
           })
         runs)

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
   local snapshot vs the snapshot pulls themselves. All integer metric
   deltas are deterministic and CI-gated; CPU time is informative only. *)

let x1 () =
  section "X1: federation — intra- vs cross-realm cost; membership replica";
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
    let ns = wall_ns ~iters:1 f in
    let ints =
      List.map2 (fun (name, k) b -> (name, Sim.Metrics.get m k - b)) gauges before
    in
    (label, ints, ns)
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
  let grant_rows = [ g1; g2; g3; g4; g5; g6; g7 ] in
  print_table "X1a: ticket walks and presentations (metric deltas)"
    ("phase" :: List.map fst gauges @ [ "CPU" ])
    (List.map
       (fun (label, ints, ns) ->
         label :: List.map (fun (_, v) -> string_of_int v) ints @ [ fmt_ns ns ])
       grant_rows);
  (* --- membership replica: serve locally, pull rarely --- *)
  let members = 8 in
  let gs_p, gs_key, gs_rsa = World.enrol_pk wa "groups" in
  let gs =
    match
      Group_server.create net ~me:gs_p ~my_key:gs_key ~kdc:wa.World.kdc_name
        ~signing_key:gs_rsa ()
    with
    | Ok gs -> gs
    | Error e -> failwith ("x1 groups: " ^ e)
  in
  Group_server.install gs;
  let crowd =
    Array.init members (fun i -> World.enrol wa (Printf.sprintf "member-%d" i))
  in
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
  let assert_all label =
    probe label (fun () ->
        Array.iter
          (fun creds ->
            match
              Group_server.request_membership_proxy net ~creds ~group:"eng" ~end_server:fs_b ()
            with
            | Ok _ -> ()
            | Error e -> failwith ("x1 assert: " ^ e))
          crowd_creds)
  in
  let served1 = assert_all "asserts from replica" in
  (* Push the replica past its bound: asserts fail closed locally, no
     origin traffic; a pull restores service. *)
  Sim.Clock.advance (Sim.Net.clock net) (bound + 1);
  let stale =
    probe "asserts while stale" (fun () ->
        Array.iter
          (fun creds ->
            match
              Group_server.request_membership_proxy net ~creds ~group:"eng" ~end_server:fs_b ()
            with
            | Ok _ -> failwith "x1: stale replica served"
            | Error _ -> ())
          crowd_creds)
  in
  let pull2 = pull "snapshot pull after stale" in
  let served2 = assert_all "asserts after refresh" in
  let membership_rows = [ pull1; served1; stale; pull2; served2 ] in
  print_table "X1b: membership replica (metric deltas)"
    ("phase" :: List.map fst gauges @ [ "CPU" ])
    (List.map
       (fun (label, ints, ns) ->
         label :: List.map (fun (_, v) -> string_of_int v) ints @ [ fmt_ns ns ])
       membership_rows);
  let hits = Sim.Metrics.get m "membership.replica_hits" in
  let stale_denials = Sim.Metrics.get m "membership.replica_stale_denials" in
  let pulls = Sim.Metrics.get m "membership.snapshots_applied" in
  Printf.printf
    "\nReplica served %d assert(s) from %d snapshot pull(s) (%d stale denial(s) while past\n\
     the bound): the origin realm sees one cross-realm walk per publication interval, not\n\
     one per membership decision.\n"
    hits pulls stale_denials;
  Benchout.write ~id:"x1" ~title:"federation: intra- vs cross-realm cost; membership replica"
    (List.map
       (fun (label, ints, ns) -> { Benchout.label; ints; floats = [ ("cpu_ns", ns) ] })
       (grant_rows @ membership_rows)
    @ [ {
          Benchout.label = "replica counters";
          ints =
            [ ("members", members); ("replica_hits", hits);
              ("stale_denials", stale_denials); ("snapshots_applied", pulls) ];
          floats = [];
        } ])

(* The experiment registry: ids as used in DESIGN.md / EXPERIMENTS.md. *)
let all =
  [ ("f1", "Fig 1: proxy grant/verify vs restriction count", fig1);
    ("f2", "Fig 2: per-request cost as services stack", fig2);
    ("f3", "Fig 3: authorization protocol vs online queries", fig3);
    ("f4", "Fig 4: cascade depth vs Sollins", fig4);
    ("f5", "Fig 5: check clearing vs intermediaries; Amoeba", fig5);
    ("f6", "Fig 6: conventional vs hybrid vs public-key", fig6);
    ("c3", "Sec 5: delegation and narrowing vs DSSA/ECMA", c3);
    ("c4", "chaos: goodput/latency/retries vs drop rate", c4);
    ("a1", "ablation: accept-once replay cache", a1);
    ("a2", "ablation: limit-restriction elision", a2);
    ("a3", "Sec 6.3: TGS proxies vs per-server capabilities", a3);
    ("s1", "cluster: sharded accounting, replica failover", s1);
    ("r1", "revocation: bulletin rate vs verify throughput", r1);
    ("l1", "load: open-loop harness + batched hot path", l1);
    ("x1", "federation: intra- vs cross-realm cost; membership replica", x1) ]

let run ids =
  let t0 = Unix.gettimeofday () in
  print_endline "proxykit benchmark harness -- regenerating the paper's figures";
  print_endline "(quantities: simulated-network messages/bytes/latency, crypto ops, CPU time)";
  let selected =
    match ids with
    | [] -> all
    | ids -> List.filter (fun (id, _, _) -> List.mem id ids) all
  in
  if selected = [] then
    Printf.printf "no such experiment; known ids: %s\n"
      (String.concat ", " (List.map (fun (id, _, _) -> id) all))
  else begin
    List.iter (fun (_, _, f) -> f ()) selected;
    Printf.printf "\n%d experiment(s) completed in %.1f s\n" (List.length selected)
      (Unix.gettimeofday () -. t0)
  end
