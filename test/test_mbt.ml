(* The model-based conformance harness, tested four ways:

   - hand-written programs whose model outcomes are known, each also run
     through the full conformance check (stack, cache differential, model);
   - a clean generated campaign that must find no disagreement;
   - one campaign per injected stack mutation that MUST find a disagreement
     and shrink it to a short repro (the harness can kill mutants);
   - the committed repro and fuzz corpora, which must replay as recorded. *)

module P = Mbt.Program

let seed = "test-mbt"

let conformance ?mutation name prog =
  match Mbt.Runner.check ?mutation ~seed prog with
  | None -> ()
  | Some f ->
      Alcotest.failf "%s: unexpected disagreement (%s): %s" name
        (Mbt.Runner.kind_name f.Mbt.Runner.f_kind)
        f.Mbt.Runner.f_detail

let outcome = Alcotest.testable
    (fun fmt -> function
      | P.O_done -> Format.fprintf fmt "done"
      | P.O_skip -> Format.fprintf fmt "skip"
      | P.O_ok b -> Format.fprintf fmt "ok=%b" b
      | P.O_group (a, b) -> Format.fprintf fmt "group=%b,%b" a b)
    ( = )

(* A known-outcome program checks the model directly AND the model against
   the stack, so each scenario is pinned twice. *)
let scenario name prog ~outcomes ~balances =
  let r = Mbt.Model.run prog in
  Alcotest.(check (list outcome)) (name ^ ": outcomes") outcomes r.P.outcomes;
  Alcotest.(check (array int)) (name ^ ": balances") balances r.P.balances;
  conformance name prog

let test_owner_and_revocation () =
  scenario "owner reads own file"
    [ P.Present { slot = 0; presenter = 1; verb = `Read; target = P.File 1 } ]
    ~outcomes:[ P.O_ok true ] ~balances:[| 100; 100; 100 |];
  scenario "stranger denied without a proxy"
    [ P.Present { slot = 0; presenter = 0; verb = `Read; target = P.File 1 } ]
    ~outcomes:[ P.O_ok false ] ~balances:[| 100; 100; 100 |];
  scenario "proxy grants, revocation of the ACL entry kills it"
    [ P.Grant { grantor = 1; flavor = P.Conv; expired = false; rs = [] };
      P.Present { slot = 0; presenter = 0; verb = `Read; target = P.File 1 };
      P.Revoke { owner = 1 };
      P.Present { slot = 0; presenter = 0; verb = `Read; target = P.File 1 } ]
    ~outcomes:[ P.O_done; P.O_ok true; P.O_done; P.O_ok false ]
    ~balances:[| 100; 100; 100 |]

let test_expiry_and_restrictions () =
  scenario "expired grant never verifies"
    [ P.Grant { grantor = 1; flavor = P.Pk; expired = true; rs = [] };
      P.Present { slot = 0; presenter = 0; verb = `Read; target = P.File 1 } ]
    ~outcomes:[ P.O_done; P.O_ok false ] ~balances:[| 100; 100; 100 |];
  scenario "authorized restriction pins target and operation"
    [ P.Grant
        { grantor = 1; flavor = P.Hybrid; expired = false;
          rs = [ P.R_authorized [ (P.File 1, [ "read" ]) ] ] };
      P.Present { slot = 0; presenter = 0; verb = `Read; target = P.File 1 };
      P.Present { slot = 0; presenter = 0; verb = `Write; target = P.File 1 } ]
    ~outcomes:[ P.O_done; P.O_ok true; P.O_ok false ]
    ~balances:[| 100; 100; 100 |];
  scenario "unknown restriction fails closed"
    [ P.Grant { grantor = 1; flavor = P.Conv; expired = false; rs = [ P.R_unknown ] };
      P.Present { slot = 0; presenter = 0; verb = `Read; target = P.File 1 } ]
    ~outcomes:[ P.O_done; P.O_ok false ] ~balances:[| 100; 100; 100 |]

let test_accept_once () =
  scenario "accept-once consumed only when the proxy contributes"
    [ P.Grant
        { grantor = 1; flavor = P.Conv; expired = false; rs = [ P.R_accept_once 7 ] };
      (* The owner presenting their own file does not use the proxy, so the
         accept-once id survives. *)
      P.Present { slot = 0; presenter = 1; verb = `Read; target = P.File 1 };
      P.Present { slot = 0; presenter = 0; verb = `Read; target = P.File 1 };
      P.Present { slot = 0; presenter = 0; verb = `Read; target = P.File 1 } ]
    ~outcomes:[ P.O_done; P.O_ok true; P.O_ok true; P.O_ok false ]
    ~balances:[| 100; 100; 100 |]

let test_checks_and_deposits () =
  scenario "check clears once, then bounces on re-deposit"
    [ P.Write_check { payor = 0; payee = 1; amount = 30 };
      P.Deposit { cslot = 0; depositor = 1 };
      P.Deposit { cslot = 0; depositor = 1 } ]
    ~outcomes:[ P.O_done; P.O_ok true; P.O_ok false ]
    ~balances:[| 70; 130; 100 |];
  scenario "only the payee can deposit a check"
    [ P.Write_check { payor = 0; payee = 1; amount = 30 };
      P.Deposit { cslot = 0; depositor = 2 } ]
    ~outcomes:[ P.O_done; P.O_ok false ]
    ~balances:[| 100; 100; 100 |];
  scenario "insufficient funds bounce, but the check number is consumed"
    [ P.Write_check { payor = 0; payee = 1; amount = 150 };
      P.Deposit { cslot = 0; depositor = 1 };
      P.Deposit { cslot = 0; depositor = 1 } ]
    ~outcomes:[ P.O_done; P.O_ok false; P.O_ok false ]
    ~balances:[| 100; 100; 100 |]

let test_group_membership () =
  scenario "membership proxies track the roster"
    [ P.Assert_group { member = 0 };
      P.Add_member { member = 0 };
      P.Assert_group { member = 0 };
      P.Remove_member { member = 0 };
      P.Assert_group { member = 0 } ]
    ~outcomes:
      [ P.O_group (false, false); P.O_done; P.O_group (true, true); P.O_done;
        P.O_group (false, false) ]
    ~balances:[| 100; 100; 100 |]

let test_sequence_steps () =
  let seq = P.R_sequence [ ("read", P.File 1); ("write", P.File 1) ] in
  scenario "in-order sequence runs once, then is exhausted"
    [ P.Grant { grantor = 1; flavor = P.Conv; expired = false; rs = [ seq ] };
      P.Present { slot = 0; presenter = 0; verb = `Read; target = P.File 1 };
      P.Present { slot = 0; presenter = 0; verb = `Write; target = P.File 1 };
      P.Present { slot = 0; presenter = 0; verb = `Read; target = P.File 1 } ]
    ~outcomes:[ P.O_done; P.O_ok true; P.O_ok true; P.O_ok false ]
    ~balances:[| 100; 100; 100 |];
  scenario "out-of-order step denied, then the in-order run completes"
    [ P.Grant { grantor = 1; flavor = P.Conv; expired = false; rs = [ seq ] };
      P.Present { slot = 0; presenter = 0; verb = `Write; target = P.File 1 };
      P.Present { slot = 0; presenter = 0; verb = `Read; target = P.File 1 };
      P.Present { slot = 0; presenter = 0; verb = `Write; target = P.File 1 } ]
    ~outcomes:[ P.O_done; P.O_ok false; P.O_ok true; P.O_ok true ]
    ~balances:[| 100; 100; 100 |];
  scenario "owner presentations do not consume sequence progress"
    [ P.Grant { grantor = 1; flavor = P.Conv; expired = false; rs = [ seq ] };
      P.Present { slot = 0; presenter = 1; verb = `Read; target = P.File 1 };
      P.Present { slot = 0; presenter = 0; verb = `Read; target = P.File 1 } ]
    ~outcomes:[ P.O_done; P.O_ok true; P.O_ok true ]
    ~balances:[| 100; 100; 100 |];
  scenario "cascades share the grant's progress counter"
    [ P.Grant { grantor = 1; flavor = P.Conv; expired = false; rs = [ seq ] };
      P.Derive
        { slot = 0; expired = false;
          rs = [ P.R_authorized [ (P.File 1, [ "read"; "write" ]) ] ];
          delegate = None };
      P.Present { slot = 1; presenter = 0; verb = `Read; target = P.File 1 };
      P.Present { slot = 0; presenter = 0; verb = `Read; target = P.File 1 };
      P.Present { slot = 0; presenter = 0; verb = `Write; target = P.File 1 } ]
    ~outcomes:[ P.O_done; P.O_done; P.O_ok true; P.O_ok false; P.O_ok true ]
    ~balances:[| 100; 100; 100 |];
  scenario "a tightened prefix clamps the delegate, not the original"
    [ P.Grant { grantor = 1; flavor = P.Conv; expired = false; rs = [ seq ] };
      P.Derive
        { slot = 0; expired = false;
          rs = [ P.R_sequence [ ("read", P.File 1) ] ]; delegate = None };
      P.Present { slot = 1; presenter = 0; verb = `Read; target = P.File 1 };
      P.Present { slot = 1; presenter = 0; verb = `Write; target = P.File 1 };
      P.Present { slot = 0; presenter = 0; verb = `Write; target = P.File 1 } ]
    ~outcomes:[ P.O_done; P.O_done; P.O_ok true; P.O_ok false; P.O_ok true ]
    ~balances:[| 100; 100; 100 |]

(* --- generated campaigns --- *)

let test_clean_campaign () =
  (* Every program runs cache-on, cache-off and through the model; any
     divergence anywhere fails.  This is both the conformance check and the
     cache-coherence differential. *)
  let finding, stats =
    Mbt.Runner.campaign ~seeds:[ "alc-a"; "alc-b" ] ~per_seed:15 ()
  in
  (match finding with
  | None -> ()
  | Some f -> Alcotest.failf "disagreement: %s" f.Mbt.Runner.f_detail);
  Alcotest.(check int) "programs run" 30 stats.Mbt.Runner.programs;
  Alcotest.(check bool) "ops generated" true (stats.Mbt.Runner.ops > 100)

let kill_and_shrink mutation () =
  (* Seeds probed to kill every mutation early; the budget is headroom. *)
  let finding, _ =
    Mbt.Runner.campaign ~mutation ~seeds:[ "mk-5-0"; "mk-3-0" ] ~per_seed:100 ()
  in
  match finding with
  | None ->
      Alcotest.failf "injected mutation %s survived the campaign"
        (Mbt.Exec.mutation_name mutation)
  | Some f ->
      let f', _ = Mbt.Runner.shrink ~mutation ~budget:200 f in
      let len = List.length f'.Mbt.Runner.f_program in
      Alcotest.(check bool)
        (Printf.sprintf "shrunk repro is short (%d ops)" len)
        true (len <= 8);
      (* The shrunk program still disagrees under the mutation, and agrees
         without it — the finding is the mutation's fault, not the
         harness's. *)
      Alcotest.(check bool) "still failing" true
        (Mbt.Runner.check ~mutation ~seed:f'.Mbt.Runner.f_seed f'.Mbt.Runner.f_program
         <> None);
      conformance "shrunk program on the unmutated stack"
        f'.Mbt.Runner.f_program

(* --- program wire codec --- *)

let test_program_roundtrip () =
  let g = Mbt.Gen.create ~seed:"codec" in
  for _ = 1 to 25 do
    let prog = Mbt.Gen.program g in
    match Wire.decode (Wire.encode (P.to_wire prog)) with
    | Error e -> Alcotest.fail e
    | Ok w -> (
        match P.of_wire w with
        | Error e -> Alcotest.fail e
        | Ok prog' -> Alcotest.(check bool) "program roundtrip" true (prog = prog'))
  done;
  (* Hostile inputs fail closed. *)
  Alcotest.(check bool) "wrong magic refused" true
    (Result.is_error (P.of_wire (Wire.L [ Wire.S "not-a-program"; Wire.I 1; Wire.L [] ])));
  Alcotest.(check bool) "scalar refused" true (Result.is_error (P.of_wire (Wire.I 7)))

(* --- committed corpora --- *)

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

let test_repro_corpus () =
  let dir = "repros" in
  let files =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".repro")
    |> List.sort compare
  in
  Alcotest.(check bool) "repros committed" true (List.length files >= 3);
  List.iter
    (fun f ->
      let path = Filename.concat dir f in
      let mutation = repro_mutation path in
      Alcotest.(check bool) (f ^ ": records its mutation") true (mutation <> None);
      match Mbt.Runner.replay ?mutation path with
      | Error e -> Alcotest.failf "%s: %s" f e
      | Ok (Some _) -> ()  (* the recorded bug is still detected *)
      | Ok None -> Alcotest.failf "%s: injected mutation no longer detected" f)
    files

let test_fuzz_smoke () =
  let s = Mbt.Fuzz.run ~seed:"alc-fuzz" ~iters:400 in
  List.iter
    (fun (c : Mbt.Fuzz.crash) ->
      Printf.printf "CRASH seed=%s stage=%s: %s\n" c.Mbt.Fuzz.c_seed c.Mbt.Fuzz.c_stage
        c.Mbt.Fuzz.c_exn)
    s.Mbt.Fuzz.crashes;
  Alcotest.(check int) "no decoder crashes" 0 (List.length s.Mbt.Fuzz.crashes);
  Alcotest.(check int) "all mutants tried" 400 s.Mbt.Fuzz.iterations

let test_fuzz_corpus () =
  let r = Mbt.Fuzz.replay_corpus ~dir:"fuzz_corpus" in
  List.iter (fun (f, e) -> Printf.printf "FAIL %s: %s\n" f e) r.Mbt.Fuzz.failures;
  Alcotest.(check bool) "corpus committed" true (r.Mbt.Fuzz.files >= 40);
  Alcotest.(check int) "corpus replays clean" 0 (List.length r.Mbt.Fuzz.failures)

let test_fuzz_corpus_regenerates () =
  (* The corpus is append-only: regenerating it from the seeds reproduces
     every committed file byte for byte and writes no file that is not
     committed. *)
  let dir = Filename.temp_dir "fuzz-corpus" "" in
  let written = Mbt.Fuzz.save_corpus ~dir in
  let hex_files d =
    Sys.readdir d |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".hex")
    |> List.sort compare
  in
  let read d f = In_channel.with_open_bin (Filename.concat d f) In_channel.input_all in
  let fresh = hex_files dir in
  Alcotest.(check int) "every file counted" written (List.length fresh);
  Alcotest.(check (list string)) "same file names" (hex_files "fuzz_corpus") fresh;
  List.iter
    (fun f -> Alcotest.(check string) f (read "fuzz_corpus" f) (read dir f))
    fresh;
  List.iter (fun f -> Sys.remove (Filename.concat dir f)) (Array.to_list (Sys.readdir dir));
  Sys.rmdir dir

let () =
  Alcotest.run "mbt"
    [ ( "model scenarios",
        [ ("owner and revocation", `Quick, test_owner_and_revocation);
          ("expiry and restrictions", `Quick, test_expiry_and_restrictions);
          ("accept-once contribution", `Quick, test_accept_once);
          ("checks and deposits", `Quick, test_checks_and_deposits);
          ("group membership", `Quick, test_group_membership);
          ("sequence steps", `Quick, test_sequence_steps) ] );
      ( "campaigns",
        [ ("clean campaign agrees", `Slow, test_clean_campaign);
          ( "kills drop-derived-restriction",
            `Slow,
            kill_and_shrink Mbt.Exec.Drop_derived_restriction );
          ("kills ignore-expiry", `Slow, kill_and_shrink Mbt.Exec.Ignore_expiry);
          ("kills misbind-proof", `Slow, kill_and_shrink Mbt.Exec.Misbind_proof);
          ("kills ignore-bulletin", `Slow, kill_and_shrink Mbt.Exec.Ignore_bulletin);
          ( "kills ignore-sequence-order",
            `Slow,
            kill_and_shrink Mbt.Exec.Ignore_sequence_order );
          ( "kills reset-progress-on-retry",
            `Slow,
            kill_and_shrink Mbt.Exec.Reset_progress_on_retry ) ] );
      ( "codec and corpora",
        [ ("program wire roundtrip", `Quick, test_program_roundtrip);
          ("committed repros replay", `Slow, test_repro_corpus);
          ("fuzz smoke", `Quick, test_fuzz_smoke);
          ("fuzz corpus replays", `Quick, test_fuzz_corpus);
          ("fuzz corpus regenerates", `Quick, test_fuzz_corpus_regenerates) ] ) ]
