(* perfbench: the repository's end-to-end and per-layer benchmark.

     bench.exe --workload authz-conv|authz-pk|bank --seed N --seconds S --trace 0|1

   [--trace 0] prints the end-to-end metrics; [--trace 1] runs the
   workload untraced and then traced on the same inputs and prints the
   per-layer metrics. The last line of standard output is one JSON object
   {correct, attempted, failed, metrics}; lines before it are for people.
   See NOTES.md beside this file. *)

let setups = 3

let usage () =
  prerr_endline
    "usage: bench.exe --workload authz-conv|authz-pk|bank --seed N --seconds S --trace 0|1";
  exit 2

type args = { workload : Runner.workload; seed : int; seconds : int; trace : bool }

let parse () =
  let wl = ref None and seed = ref None and seconds = ref None and trace = ref None in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: rest ->
        wl := List.assoc_opt v Runner.workloads;
        if !wl = None then usage ();
        go rest
    | "--seed" :: v :: rest ->
        seed := int_of_string_opt v;
        go rest
    | "--seconds" :: v :: rest ->
        seconds := int_of_string_opt v;
        go rest
    | "--trace" :: v :: rest ->
        trace := (match v with "0" -> Some false | "1" -> Some true | _ -> usage ());
        go rest
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!wl, !seed, !seconds, !trace) with
  | Some workload, Some seed, Some seconds, Some trace when seconds > 0 ->
      { workload; seed; seconds; trace }
  | _ -> usage ()

(* -- JSON -- *)

let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let result_line ~correct ~attempted ~failed metrics =
  let ms =
    List.map
      (fun (name, unit, v) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (num v) unit)
      metrics
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
    attempted failed (String.concat ", " ms)

(* -- the end-to-end run -- *)

let per_op p name = float_of_int (Runner.count p.Runner.delta name) /. float_of_int p.Runner.ops

let check_pass wl (p : Runner.pass) =
  let fail e = prerr_endline ("perfbench: " ^ e) in
  let ok = ref true in
  (match p.checked with Ok () -> () | Error e -> ok := false; fail ("output check: " ^ e));
  (match Runner.guard wl p with Ok () -> () | Error e -> ok := false; fail ("guard: " ^ e));
  if p.wrong > 0 then begin
    ok := false;
    fail (Printf.sprintf "%d ops returned wrong output" p.wrong)
  end;
  Option.iter (fun e -> fail ("first error: " ^ e)) p.first_error;
  !ok

let end_to_end wl input =
  let p = Runner.run input in
  let setup_times =
    Host.corrected_s p.setup_meter :: List.init (setups - 1) (fun _ -> Runner.setup_seconds input)
  in
  let setup_s = Stats.median setup_times in
  let lat = Host.latencies p.meter in
  let p50, _ = Stats.percentile_rank lat 50. in
  let p95, beyond, windows = Stats.windowed_percentile lat ~window:1000 95. in
  let raw_tput = float_of_int p.ops /. Host.raw_s p.meter in
  let tput = float_of_int p.ops /. Host.corrected_s p.meter in
  let p99_all, beyond_all = Stats.percentile_rank lat 99. in
  let raw_p50, _ = Stats.percentile_rank (Host.raw_latencies p.meter) 50. in
  Printf.printf
    "# %d ops; p95 is the median over %d windows, each with %d samples beyond it; p99 of all ops %.1f us, %d beyond\n"
    p.ops windows beyond (p99_all /. 1e3) beyond_all;
  Printf.printf "# raw %.2f ops/s, p50 %.2f us; corrected %.2f ops/s, p50 %.2f us\n" raw_tput
    (raw_p50 /. 1e3) tput (p50 /. 1e3);
  Printf.printf "# setup corrected %s s; kernel median %.1f us; correction factors IQR/median %.4f\n"
    (String.concat " " (List.map (Printf.sprintf "%.4f") setup_times))
    (Stats.median (Host.kernels_ns p.meter) /. 1e3)
    (Stats.iqr_share (Host.factors p.meter));
  let correct = check_pass wl p in
  let metrics =
    [
      ("throughput_ops_s", "ops/s", tput);
      ("lat_p50_us", "us", p50 /. 1e3);
      ("lat_p95_us", "us", p95 /. 1e3);
      ("setup_s", "s", setup_s);
      ("heap_peak_mb", "MB", float_of_int (p.heap_words * (Sys.word_size / 8)) /. 1e6);
      ("msgs_per_op", "msgs", per_op p "net.messages");
      ("wire_bytes_per_op", "B", per_op p "net.bytes");
    ]
  in
  (correct, p, metrics)

(* -- direct calls into the crypto layer -- *)

(* Median corrected time per call over [batches] slices of [n] calls. *)
let probe ~batches ~n f =
  let m = Host.meter () in
  let per =
    List.init batches (fun _ ->
        let r0 = Host.corrected_s m in
        for _ = 1 to n do
          f ()
        done;
        Host.close m;
        (Host.corrected_s m -. r0) *. 1e9 /. float_of_int n)
  in
  Stats.median per

let crypto_probes () =
  let drbg = Crypto.Drbg.create ~seed:"perfbench-probe" in
  let key = Crypto.Rsa.generate drbg ~bits:512 in
  let msg = String.make 64 'm' in
  let signature = Crypto.Rsa.sign key msg in
  let sign_ns = probe ~batches:5 ~n:100 (fun () -> ignore (Crypto.Rsa.sign key msg)) in
  let verify_ns =
    probe ~batches:5 ~n:400 (fun () ->
        if not (Crypto.Rsa.verify key.Crypto.Rsa.pub ~msg ~signature) then failwith "verify")
  in
  (* The same eight key pairs every run: keygen cost depends on where the
     primes fall, so the DRBG seed is fixed. *)
  let keygen_ns =
    probe ~batches:3 ~n:1 (fun () ->
        let d = Crypto.Drbg.create ~seed:"perfbench-keygen" in
        for _ = 1 to 8 do
          ignore (Crypto.Rsa.generate d ~bits:512)
        done)
    /. 8.
  in
  let aead_key = String.make 32 'k' and nonce = String.make 12 'n' and pt = String.make 1024 'p' in
  let seal_ns =
    probe ~batches:5 ~n:400 (fun () -> ignore (Crypto.Aead.seal ~key:aead_key ~nonce pt))
  in
  [
    ("crypto.rsa512_sign_us", "us", sign_ns /. 1e3);
    ("crypto.rsa512_verify_us", "us", verify_ns /. 1e3);
    ("crypto.rsa512_keygen_ms", "ms", keygen_ns /. 1e6);
    ("crypto.aead_seal_1k_us", "us", seal_ns /. 1e3);
  ]

(* -- the traced run -- *)

let per_layer wl input =
  let a = Runner.run input in
  let b = Runner.run ~trace:true input in
  let t = Option.get b.Runner.tracer in
  let correct_a = check_pass wl a and correct_b = check_pass wl b in
  let same_counters = a.Runner.whole = b.Runner.whole in
  if not same_counters then begin
    prerr_endline "perfbench: traced and untraced counters differ:";
    List.iter
      (fun (k, v) -> Printf.eprintf "  %s %+d\n" k v)
      (Sim.Metrics.diff ~before:a.Runner.whole ~after:b.Runner.whole)
  end;
  let sigma_err = Tracer.sigma_self_error t in
  let sound = Tracer.sound t && sigma_err <= 1e-6 in
  if not sound then
    Printf.eprintf
      "perfbench: span bookkeeping unsound (negative %d, unbalanced %d, sigma error %g)\n"
      t.Tracer.negative t.Tracer.unbalanced sigma_err;
  let ops = float_of_int b.Runner.ops in
  let op_ns = t.Tracer.ops_ns.Host.total in
  let pct ns = 100. *. ns /. op_ns in
  let role = Tracer.role_total t in
  let kdc_ns, kdc_n = b.Runner.kdc_setup in
  let kdc_ns = kdc_ns +. role "kdc" and kdc_n = kdc_n + Tracer.role_spans t "kdc" in
  let hits = Runner.count a.Runner.delta "verify_cache.hits" in
  let misses = Runner.count a.Runner.delta "verify_cache.misses" in
  let kernels = Host.kernels_ns a.Runner.meter in
  Printf.printf "# sigma-self error %.3g (tolerance 1e-6); counters identical traced/untraced: %b\n"
    sigma_err same_counters;
  let metrics =
    [
      ("kdc.rpc_cache_evictions_per_op", "count", per_op a "rpc.cache_evictions");
      ("kdc.rpc_client_self_us", "us", t.Tracer.client.Host.total /. ops /. 1e3);
      ("kdc.rpc_client_self_pct", "%", pct t.Tracer.client.Host.total);
      ("apps.files_self_pct", "%", pct (role "files"));
      ("kdc.node_self_us", "us", if kdc_n = 0 then 0. else kdc_ns /. float_of_int kdc_n /. 1e3);
      ("kdc.node_self_pct", "%", pct (role "kdc"));
      ("kdc.tgs_req_per_op", "count", per_op a "kdc.tgs_req");
      ("kdc.as_req_per_op", "count", per_op a "kdc.as_req");
      ("authz.attach_pct", "%", pct b.Runner.spans.Workloads.attach.Host.total);
      ("authz.decisions_per_op", "count", per_op a "guard.decisions");
      ("proxy_core.rsa_verify_per_op", "count", per_op a "crypto.rsa_verify");
      ( "proxy_core.verify_cache_hit_ratio",
        "ratio",
        if hits + misses = 0 then 0. else float_of_int hits /. float_of_int (hits + misses) );
      ("accounting.check_write_pct", "%", pct b.Runner.spans.Workloads.check_write.Host.total);
      ("accounting.payee_self_pct", "%", pct (role "payee"));
      ("accounting.drawee_self_pct", "%", pct (role "drawee"));
      ("accounting.primary_self_pct", "%", pct (role "primary"));
      ("cluster.standby_self_pct", "%", pct (role "standby"));
      ("cluster.repl_shipped_per_op", "count", per_op a "cluster.repl_shipped");
      ("cluster.repl_read_skips_per_op", "count", per_op a "cluster.repl_read_skips");
      ("gc.alloc_bytes_per_op", "B", a.Runner.alloc_bytes /. ops);
      ( "gc.major_collections_per_kop",
        "count",
        1000. *. float_of_int a.Runner.major_collections /. ops );
      ("trace.op_us", "us", op_ns /. ops /. 1e3);
      ( "trace.overhead_pct",
        "%",
        100. *. ((Host.corrected_s b.Runner.meter /. Host.corrected_s a.Runner.meter) -. 1.) );
      ("host.ref_ms", "ms", Stats.median kernels /. 1e6);
      ("host.raw_throughput_ops_s", "ops/s", ops /. Host.raw_s a.Runner.meter);
      ("host.correction_iqr", "ratio", Stats.iqr_share (Host.factors a.Runner.meter));
    ]
    @ crypto_probes ()
  in
  let correct = correct_a && correct_b && same_counters && sound in
  (correct, a, metrics)

let () =
  let args = parse () in
  let ops = Runner.ops_per_second args.workload * args.seconds in
  let input = Runner.gen args.workload ~seed:args.seed ~ops in
  let correct, p, metrics =
    if args.trace then per_layer args.workload input else end_to_end args.workload input
  in
  print_endline
    (result_line ~correct ~attempted:p.Runner.ops ~failed:(p.Runner.failed + p.Runner.wrong) metrics)
