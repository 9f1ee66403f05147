(* Causal tracing spans: collector semantics, cost attribution, envelope
   propagation through Secure_rpc, determinism of the traced F4/F5
   scenarios — plus regression tests for the three bugfixes that ride
   along (trace substring scan, Metrics.diff, Verify_cache refresh). *)

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int
let string = Alcotest.string

let mk_collector ?capacity ?(seed = "span-test") () =
  let clock = Sim.Clock.create () in
  let metrics = Sim.Metrics.create () in
  let t = Sim.Span.create ?capacity ~seed ~clock ~metrics () in
  (t, clock, metrics)

(* ---------------- contains_substring (bugfix regression) ---------------- *)

let test_contains_basic () =
  let has needle hay = Sim.Span.contains_substring ~needle hay in
  check bool "found middle" true (has "cde" "abcdefg");
  check bool "found prefix" true (has "abc" "abcdefg");
  check bool "found suffix" true (has "efg" "abcdefg");
  check bool "missing" false (has "xyz" "abcdefg");
  check bool "empty needle" true (has "" "abcdefg");
  check bool "empty hay" false (has "a" "");
  check bool "both empty" true (has "" "");
  check bool "needle longer" false (has "abcdefgh" "abc");
  check bool "near miss" false (has "abd" "abcabcabd-" |> fun _ -> has "abq" "abcabcabd")

let test_contains_huge () =
  (* The recursive predecessor overflowed the stack at a few hundred KB;
     this must handle a megabyte-scale event without growing the stack. *)
  let hay = String.make 1_000_000 'a' ^ "needle" ^ String.make 1_000 'b' in
  check bool "1MB scan finds suffix needle" true
    (Sim.Span.contains_substring ~needle:"needle" hay);
  check bool "1MB scan clean miss" false
    (Sim.Span.contains_substring ~needle:"needlf" hay);
  (* Worst-case repetitive backtracking stays iterative too. *)
  let hay2 = String.make 500_000 'a' in
  check bool "repetitive near-miss" false
    (Sim.Span.contains_substring ~needle:(String.make 1_000 'a' ^ "b") hay2)

let test_contains_via_trace () =
  (* Trace.find goes through the same scan; a huge recorded event must not
     blow the stack. *)
  let tr = Sim.Trace.create () in
  Sim.Trace.record tr ~time:0 ~actor:"srv" (String.make 800_000 'x' ^ " granted");
  check bool "find in huge event" true
    (Sim.Trace.find tr ~actor:"srv" ~substring:"granted" <> None);
  check bool "miss in huge event" true
    (Sim.Trace.find tr ~actor:"srv" ~substring:"denied" = None)

(* ---------------- Metrics.diff (bugfix regression) ---------------- *)

let test_metrics_diff () =
  let m = Sim.Metrics.create () in
  Sim.Metrics.add m "a" 3;
  Sim.Metrics.add m "b" 5;
  let before = Sim.Metrics.snapshot m in
  Sim.Metrics.add m "a" 2;
  Sim.Metrics.add m "c" 7;
  let after = Sim.Metrics.snapshot m in
  Alcotest.(check (list (pair string int)))
    "delta has only changed counters, sorted"
    [ ("a", 2); ("c", 7) ]
    (Sim.Metrics.diff ~before ~after);
  Alcotest.(check (list (pair string int)))
    "reverse diff is negative"
    [ ("a", -2); ("c", -7) ]
    (Sim.Metrics.diff ~before:after ~after:before);
  Alcotest.(check (list (pair string int)))
    "identical snapshots diff to nothing" []
    (Sim.Metrics.diff ~before:after ~after)

let test_metrics_diff_large () =
  (* The old implementation was O(n^2) via List.assoc_opt; this mostly
     guards the semantics while the hashtable keeps it linear. *)
  let m = Sim.Metrics.create () in
  for i = 0 to 4_999 do
    Sim.Metrics.add m (Printf.sprintf "k%04d" i) (i + 1)
  done;
  let before = Sim.Metrics.snapshot m in
  for i = 0 to 4_999 do
    if i mod 7 = 0 then Sim.Metrics.add m (Printf.sprintf "k%04d" i) 1
  done;
  let d = Sim.Metrics.diff ~before ~after:(Sim.Metrics.snapshot m) in
  check int "one delta per touched counter" 715 (List.length d);
  check bool "all deltas are 1" true (List.for_all (fun (_, v) -> v = 1) d);
  let sorted = List.sort (fun (a, _) (b, _) -> compare a b) d in
  check bool "output sorted" true (d = sorted)

(* ---------------- Verify_cache refresh (bugfix regression) -------------- *)

let test_verify_cache_refresh_survives () =
  (* A hot, repeatedly refreshed entry must not be the first evicted: the
     bug left the refreshed entry's original queue position in place, so
     eviction removed the hottest key first. *)
  let c = Verify_cache.create ~capacity:4 () in
  Verify_cache.record c ~now:0 "hot";
  Verify_cache.record c ~now:1 "b";
  Verify_cache.record c ~now:2 "c";
  Verify_cache.record c ~now:3 "d";
  Verify_cache.record c ~now:4 "hot" (* refresh: now newest, b is oldest *);
  Verify_cache.record c ~now:5 "e" (* evicts b, not hot *);
  check bool "refreshed entry survives" true (Verify_cache.check c ~now:6 "hot");
  check bool "oldest unrefreshed evicted" false (Verify_cache.check c ~now:6 "b");
  check bool "c still cached" true (Verify_cache.check c ~now:6 "c")

let test_verify_cache_refresh_churn () =
  (* Under full-capacity churn with periodic refreshes, the hot key always
     survives — even when refreshes land at an unchanged virtual timestamp
     (the sequence number, not the clock, must break the tie). *)
  let c = Verify_cache.create ~capacity:4 () in
  Verify_cache.record c ~now:0 "hot";
  for i = 1 to 40 do
    Verify_cache.record c ~now:i (Printf.sprintf "churn%d" i);
    if i mod 2 = 0 then Verify_cache.record c ~now:i "hot";
    check bool (Printf.sprintf "hot alive after %d inserts" i) true
      (Verify_cache.check c ~now:i "hot")
  done;
  check int "size stays bounded" 4 (Verify_cache.size c);
  let s = Verify_cache.stats c in
  check bool "evictions happened" true (s.Verify_cache.evictions > 30)

(* ---------------- Span collector unit semantics ---------------- *)

let test_span_nesting () =
  let t, clock, metrics = mk_collector () in
  let sp = Some t in
  Sim.Span.with_span sp ~actor:"alice" ~kind:"outer" (fun () ->
      Sim.Metrics.incr metrics "work.outer";
      Sim.Clock.advance clock 10;
      Sim.Span.with_span sp ~actor:"bob" ~kind:"inner" (fun () ->
          Sim.Metrics.incr metrics "work.inner";
          Sim.Metrics.incr metrics "work.inner";
          Sim.Clock.advance clock 5);
      Sim.Span.add_attr sp "verdict" "ok");
  match Sim.Span.spans t with
  | [ inner; outer ] ->
      check string "child kind" "inner" inner.Sim.Span.sp_kind;
      check string "parent kind" "outer" outer.Sim.Span.sp_kind;
      check bool "same trace" true (inner.Sim.Span.sp_trace = outer.Sim.Span.sp_trace);
      check bool "parentage" true (inner.Sim.Span.sp_parent = Some outer.Sim.Span.sp_id);
      check bool "root has no parent" true (outer.Sim.Span.sp_parent = None);
      check bool "ids distinct" true (inner.Sim.Span.sp_id <> outer.Sim.Span.sp_id);
      Alcotest.(check (list (pair string int)))
        "child self cost" [ ("work.inner", 2) ] inner.Sim.Span.sp_costs;
      Alcotest.(check (list (pair string int)))
        "parent self cost excludes child" [ ("work.outer", 1) ] outer.Sim.Span.sp_costs;
      check int "child interval" 5 (inner.Sim.Span.sp_end - inner.Sim.Span.sp_start);
      check int "parent interval" 15 (outer.Sim.Span.sp_end - outer.Sim.Span.sp_start);
      Alcotest.(check (list (pair string string)))
        "attr attached to open span" [ ("verdict", "ok") ] outer.Sim.Span.sp_attrs
  | l -> Alcotest.failf "expected 2 spans, got %d" (List.length l)

let test_span_determinism () =
  let run () =
    let t, clock, metrics = mk_collector ~seed:"det" () in
    let sp = Some t in
    for i = 1 to 3 do
      Sim.Span.with_span sp ~actor:"a" ~kind:"request"
        ~attrs:[ ("n", string_of_int i) ]
        (fun () ->
          Sim.Metrics.incr metrics "tick";
          Sim.Clock.advance clock 7;
          Sim.Span.with_span sp ~actor:"b" ~kind:"leaf" (fun () ->
              Sim.Clock.advance clock 1))
    done;
    Sim.Span.to_jsonl (Sim.Span.spans t)
  in
  let a = run () and b = run () in
  check string "same seed, byte-identical export" a b;
  let t2, clock2, metrics2 = mk_collector ~seed:"other" () in
  ignore clock2;
  ignore metrics2;
  Sim.Span.with_span (Some t2) ~actor:"a" ~kind:"request" (fun () -> ());
  let id_of line =
    (* second field of the fixed key order is the span id *)
    String.length line > 0
  in
  ignore id_of;
  check bool "different seed, different ids" true (Sim.Span.to_jsonl (Sim.Span.spans t2) <> a)

let test_span_ring_bound () =
  let t, _, _ = mk_collector ~capacity:4 () in
  for i = 1 to 10 do
    Sim.Span.with_span (Some t) ~actor:"a" ~kind:"k"
      ~attrs:[ ("n", string_of_int i) ]
      (fun () -> ())
  done;
  let kept = Sim.Span.spans t in
  check int "ring keeps capacity" 4 (List.length kept);
  check int "dropped counted" 6 (Sim.Span.dropped t);
  (* Oldest dropped: the survivors are 7..10. *)
  let ns = List.map (fun s -> List.assoc "n" s.Sim.Span.sp_attrs) kept in
  Alcotest.(check (list string)) "oldest evicted first" [ "7"; "8"; "9"; "10" ] ns

let test_span_exception () =
  let t, _, metrics = mk_collector () in
  (try
     Sim.Span.with_span (Some t) ~actor:"a" ~kind:"boom" (fun () ->
         Sim.Metrics.incr metrics "pre";
         failwith "kaput")
   with Failure _ -> ());
  match Sim.Span.spans t with
  | [ s ] ->
      check bool "error attr recorded" true
        (List.mem_assoc "error" s.Sim.Span.sp_attrs);
      Alcotest.(check (list (pair string int)))
        "cost up to the raise captured" [ ("pre", 1) ] s.Sim.Span.sp_costs
  | l -> Alcotest.failf "expected 1 span, got %d" (List.length l)

let test_span_disabled_noop () =
  let v = Sim.Span.with_span None ~actor:"a" ~kind:"k" (fun () -> 42) in
  check int "disabled collector runs bare" 42 v;
  Sim.Span.add_attr None "k" "v" (* must not raise *)

(* ---------------- Secure_rpc envelope propagation ---------------- *)

let test_rpc_propagation () =
  let w = World.create ~seed:"prop" () in
  let net = w.World.net in
  let echo_name, echo_key = World.enrol w "echo" in
  Secure_rpc.serve net ~me:echo_name ~my_key:echo_key (fun _ctx payload -> Ok payload);
  let tgt = World.login w (fst (World.enrol w "carol")) in
  let creds = World.credentials_for w ~tgt echo_name in
  (* Untraced call works as before. *)
  (match Secure_rpc.call net ~creds (Wire.S "plain") with
  | Ok (Wire.S "plain") -> ()
  | Ok _ -> Alcotest.fail "bad echo"
  | Error e -> Alcotest.fail e);
  Sim.Net.enable_tracing net;
  let collector = Option.get (Sim.Net.spans net) in
  Sim.Span.with_span (Sim.Net.spans net) ~actor:"carol" ~kind:"request" (fun () ->
      match Secure_rpc.call net ~creds (Wire.S "traced") with
      | Ok (Wire.S "traced") -> ()
      | Ok _ -> Alcotest.fail "bad echo"
      | Error e -> Alcotest.fail e);
  let spans = Sim.Span.spans collector in
  let find kind = List.find (fun s -> s.Sim.Span.sp_kind = kind) spans in
  let root = find "request" in
  let call = find "rpc.call" in
  let attempt = find "rpc.attempt" in
  let serve = find "rpc.serve" in
  check bool "one trace end to end" true
    (List.for_all (fun s -> s.Sim.Span.sp_trace = root.Sim.Span.sp_trace) spans);
  check bool "call under root" true (call.Sim.Span.sp_parent = Some root.Sim.Span.sp_id);
  check bool "attempt under call" true
    (attempt.Sim.Span.sp_parent = Some call.Sim.Span.sp_id);
  (* The envelope pins the serve span to the call span: retransmitted
     attempts reuse the same bytes, so the call — not the attempt — is the
     stable causal parent on the server side. *)
  check bool "serve parented on call via envelope" true
    (serve.Sim.Span.sp_parent = Some call.Sim.Span.sp_id);
  check bool "server actor recorded" true
    (Sim.Span.contains_substring ~needle:"echo" serve.Sim.Span.sp_actor)

(* ---------------- Traced scenarios ---------------- *)

let f4_plan seed = Sim.Fault.plan ~seed [ Sim.Fault.jitter 200 ]

let test_f4_invariants () =
  let o = Tracing.run_f4 ~seed:"f4-inv" ~requests:3 ~depth:3 () in
  check int "all requests succeed" o.Tracing.requests o.Tracing.ok;
  check int "no spans dropped" 0 o.Tracing.dropped;
  let spans = o.Tracing.spans in
  check bool "cascade nests >= 4 deep" true (Sim.Span.max_depth spans >= 4);
  check bool ">= 3 actors involved" true (List.length (Sim.Span.actors spans) >= 3);
  let kinds = List.map (fun s -> s.Sim.Span.sp_kind) spans in
  List.iter
    (fun k -> check bool ("kind present: " ^ k) true (List.mem k kinds))
    [ "request"; "rpc.call"; "rpc.attempt"; "rpc.serve"; "kdc.tgs"; "kdc.serve";
      "guard.decide"; "verify.cert"; "resolver.lookup" ];
  (* Depth-3 cascade: 3 verify.cert children per decision, 3 requests. *)
  let count k = List.length (List.filter (fun s -> s.Sim.Span.sp_kind = k) spans) in
  check int "one guard decision per request" 3 (count "guard.decide");
  check int "one cert span per cascade link" 9 (count "verify.cert");
  (* The injected first-request drop forces a retry: some rpc.call has two
     attempt children. *)
  let attempts_of call =
    List.filter
      (fun s ->
        s.Sim.Span.sp_kind = "rpc.attempt"
        && s.Sim.Span.sp_parent = Some call.Sim.Span.sp_id)
      spans
  in
  let calls = List.filter (fun s -> s.Sim.Span.sp_kind = "rpc.call") spans in
  check bool "a dropped request shows a retry child" true
    (List.exists (fun c -> List.length (attempts_of c) >= 2) calls);
  (* Every span carries some counted cost in its subtree, and self costs
     sum exactly to the global metrics diff over the traced window. *)
  Alcotest.(check (list (pair string int)))
    "span self costs sum to the global delta" o.Tracing.delta
    (Sim.Span.cost_total spans);
  check bool "delta is non-trivial" true (List.length o.Tracing.delta > 5)

let test_f4_deterministic () =
  let run () = Tracing.run_f4 ~seed:"f4-det" ~requests:2 ~plan:(f4_plan "chaos") () in
  let a = run () and b = run () in
  check bool "exports non-empty" true (String.length (Sim.Span.to_jsonl a.Tracing.spans) > 1_000);
  check string "same seed + same fault plan => byte-identical digest (incl. JSONL)"
    a.Tracing.digest b.Tracing.digest

let test_f4_chrome_valid () =
  let o = Tracing.run_f4 ~seed:"f4-chrome" ~requests:1 () in
  let json = Sim.Span.to_chrome_trace o.Tracing.spans in
  (match Sim.Json.valid json with
  | Ok () -> ()
  | Error e -> Alcotest.failf "chrome trace not valid JSON: %s" e);
  check bool "has trace-event envelope" true
    (Sim.Span.contains_substring ~needle:"\"traceEvents\"" json);
  check bool "has complete events" true
    (Sim.Span.contains_substring ~needle:{|"ph":"X"|} json);
  check bool "has thread names" true
    (Sim.Span.contains_substring ~needle:"thread_name" json);
  check bool "costs exported" true
    (Sim.Span.contains_substring ~needle:"cost.net.messages" json)

let test_f5_invariants () =
  let o = Tracing.run_f5 ~seed:"f5-inv" ~requests:2 () in
  check int "all deposits clear" o.Tracing.requests o.Tracing.ok;
  let spans = o.Tracing.spans in
  let kinds = List.map (fun s -> s.Sim.Span.sp_kind) spans in
  List.iter
    (fun k -> check bool ("kind present: " ^ k) true (List.mem k kinds))
    [ "acct.deposit"; "acct.forward"; "acct.collect"; "acct.debit" ];
  check bool "banks + client + kdc" true (List.length (Sim.Span.actors spans) >= 4);
  Alcotest.(check (list (pair string int)))
    "attribution exact for the accounting path" o.Tracing.delta
    (Sim.Span.cost_total spans)

let () =
  Alcotest.run "span"
    [
      ( "scan",
        [
          Alcotest.test_case "basics" `Quick test_contains_basic;
          Alcotest.test_case "megabyte event" `Quick test_contains_huge;
          Alcotest.test_case "via Trace.find" `Quick test_contains_via_trace;
        ] );
      ( "metrics-diff",
        [
          Alcotest.test_case "pinned semantics" `Quick test_metrics_diff;
          Alcotest.test_case "many counters" `Quick test_metrics_diff_large;
        ] );
      ( "verify-cache",
        [
          Alcotest.test_case "refresh survives eviction" `Quick
            test_verify_cache_refresh_survives;
          Alcotest.test_case "hot key under churn" `Quick test_verify_cache_refresh_churn;
        ] );
      ( "collector",
        [
          Alcotest.test_case "nesting and self cost" `Quick test_span_nesting;
          Alcotest.test_case "deterministic ids" `Quick test_span_determinism;
          Alcotest.test_case "bounded ring" `Quick test_span_ring_bound;
          Alcotest.test_case "exception closes span" `Quick test_span_exception;
          Alcotest.test_case "disabled is a no-op" `Quick test_span_disabled_noop;
        ] );
      ( "rpc",
        [ Alcotest.test_case "envelope propagation" `Quick test_rpc_propagation ] );
      ( "scenarios",
        [
          Alcotest.test_case "f4 causal invariants" `Quick test_f4_invariants;
          Alcotest.test_case "f4 determinism" `Quick test_f4_deterministic;
          Alcotest.test_case "f4 chrome export" `Quick test_f4_chrome_valid;
          Alcotest.test_case "f5 accounting spans" `Quick test_f5_invariants;
        ] );
    ]
