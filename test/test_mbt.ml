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
    ~balances:[| 100; 100; 100 |];
  (* An id inside a limit naming fs applies there like a top-level one; one
     scoped to another server is not fs's to record. *)
  let twice rs =
    [ P.Grant { grantor = 1; flavor = P.Conv; expired = false; rs };
      P.Present { slot = 0; presenter = 0; verb = `Read; target = P.File 1 };
      P.Present { slot = 0; presenter = 0; verb = `Read; target = P.File 1 } ]
  in
  scenario "a limit-scoped accept-once is consumed once"
    (twice [ P.R_limit (P.Fs, [ P.R_accept_once 7 ]) ])
    ~outcomes:[ P.O_done; P.O_ok true; P.O_ok false ]
    ~balances:[| 100; 100; 100 |];
  scenario "an accept-once scoped to another server is not consumed at fs"
    (twice [ P.R_limit (P.Bank, [ P.R_accept_once 7 ]) ])
    ~outcomes:[ P.O_done; P.O_ok true; P.O_ok true ]
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
    ~balances:[| 100; 100; 100 |];
  scenario "a limit-scoped one-step sequence runs once"
    [ P.Grant
        { grantor = 1; flavor = P.Pk; expired = false;
          rs = [ P.R_limit (P.Fs, [ P.R_sequence [ ("read", P.File 1) ] ]) ] };
      P.Present { slot = 0; presenter = 0; verb = `Read; target = P.File 1 };
      P.Present { slot = 0; presenter = 0; verb = `Read; target = P.File 1 } ]
    ~outcomes:[ P.O_done; P.O_ok true; P.O_ok false ]
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
      match Mbt.Runner.replay (Filename.concat dir f) with
      | Error e -> Alcotest.failf "%s: %s" f e
      | Ok (None, _) -> Alcotest.failf "%s: records no mutation" f
      | Ok (Some _, Some _) -> ()  (* the recorded bug is still detected *)
      | Ok (Some _, None) -> Alcotest.failf "%s: injected mutation no longer detected" f)
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

(* The session negatives are refused, each for the reason its name
   gives, and the valid session they were made from is accepted. *)
let test_binding_negatives () =
  let seeds, negatives = Mbt.Fuzz.build () in
  let check =
    match List.find_opt (fun (name, _, _) -> name = "presented-session") seeds with
    | Some (_, valid, check) ->
        Alcotest.(check (result unit string)) "the valid session" (Ok ()) (check valid);
        check
    | None -> Alcotest.fail "no presented-session seed"
  in
  Alcotest.(check (list (pair string (result unit string))))
    "each negative refused"
    [ ("other-ticket", Error "session binding: invalid");
      ("other-server", Error "session binding: invalid");
      ("expired-ticket", Error "ticket expired");
      ("other-key", Error "session binding: invalid") ]
    (List.map (fun (name, v) -> (name, check v)) negatives)

(* The request seeds decode and re-encode to the same value, and the same
   requests with a trailing field are refused: each verb has one shape. *)
let test_request_codecs () =
  let seeds, _ = Mbt.Fuzz.build () in
  let seed name =
    match List.find_opt (fun (n, _, _) -> n = name) seeds with
    | Some (_, v, re) -> (v, re)
    | None -> Alcotest.fail ("no seed " ^ name)
  in
  let exact of_wire to_wire name =
    let v = fst (seed name) in
    match of_wire v with
    | Ok r -> Alcotest.(check bool) (name ^ " re-encodes") true (Wire.equal v (to_wire r))
    | Error e -> Alcotest.fail (name ^ ": " ^ e)
  in
  List.iter
    (exact Accounting_server.request_of_wire Accounting_server.request_to_wire)
    [ "acct-deposit"; "acct-draw"; "acct-bulletin" ];
  List.iter (exact Kdc.request_of_wire Kdc.request_to_wire) [ "as-preauth"; "as-bare"; "tgs-req" ];
  (* Every other verb, from the seeds' check, proxy and bulletin. *)
  let module A = Accounting_server in
  let decode name = Result.get_ok (A.request_of_wire (fst (seed name))) in
  let check, presented, bulletin =
    match (decode "acct-deposit", decode "acct-draw", decode "acct-bulletin") with
    | A.Deposit { check; _ }, A.Proxy_draw { presented; _ }, A.Apply_bulletin b ->
        (check, presented, b)
    | _ -> Alcotest.fail "request seeds decode to other verbs"
  in
  List.iter
    (fun r ->
      let v = A.request_to_wire r in
      Alcotest.(check bool) "verb re-encodes" true
        (Result.fold ~ok:(fun r -> Wire.equal v (A.request_to_wire r)) ~error:(fun _ -> false)
           (A.request_of_wire v)))
    [ A.Open_account { name = "a" };
      A.Balance { name = "a"; currency = "usd" };
      A.Transfer { from_ = "a"; to_ = "b"; currency = "usd"; amount = 3 };
      A.Collect check;
      A.Certify check;
      A.Cashier { from_account = "a"; payee = check.Check.payee; currency = "usd"; amount = 3 };
      A.Seq_advance { key = "k"; progress = 1; expires = 2; tag = "t" };
      A.Proxy_draw
        { release = true; presented; payor_account = "a"; account = "b"; currency = "usd";
          amount = 1 };
      A.Apply_bulletin bulletin ];
  Alcotest.(check (list (result unit string)))
    "malformed and unknown requests"
    [ Error "accounting: malformed transfer request";
      Error "accounting: unknown operation \"proxy-transfer\"";
      Error "accounting: malformed request";
      Error "unknown operation \"krb-priv\"" ]
    [ Result.map ignore (A.request_of_wire (Wire.L [ Wire.S "transfer"; Wire.S "a" ]));
      Result.map ignore (A.request_of_wire (Wire.L [ Wire.S "proxy-transfer" ]));
      Result.map ignore (A.request_of_wire (Wire.S "transfer"));
      Result.map ignore (Kdc.request_of_wire (Wire.L [ Wire.S "krb-priv" ])) ];
  (* Every seed but "as-bare" (one more field makes it "as-preauth") has a
     trailing-field negative, refused by the seed's own decoder. *)
  Alcotest.(check (list (pair string (result unit string))))
    "a trailing field is refused"
    [ ("principal", Error "principal: malformed");
      ("restriction", Error "grantee: malformed");
      ("restriction-list", Error "restriction: malformed");
      ("cert-body", Error "proxy-cert body: malformed");
      ("pk-cert", Error "pk proxy-cert: malformed");
      ("hybrid-cert", Error "hybrid proxy-cert: malformed");
      ("presentation-pk", Error "presentation: malformed");
      ("presentation-conv", Error "presentation: malformed");
      ("presentation-hybrid", Error "presentation: malformed");
      ("presented", Error "presented proxy: malformed");
      ("check", Error "check: malformed");
      ("check-endorsed", Error "check: malformed");
      ("rev-entry", Error "revocation entry: malformed");
      ("rev-bulletin", Error "revocation bulletin: malformed");
      ("restriction-seq", Error "sequence: malformed");
      ("membership-snapshot", Error "membership snapshot: malformed");
      ("pk-cert-keyless", Error "pk proxy-cert: malformed");
      ("check-keyless", Error "check: malformed");
      ("check-keyless-endorsed", Error "check: malformed");
      ("presented-session", Error "session: malformed");
      ("acct-deposit", Error "accounting: malformed deposit request");
      ("acct-draw", Error "accounting: malformed proxy-debit request");
      ("acct-bulletin", Error "accounting: malformed apply-bulletin request");
      ("as-preauth", Error "as: malformed request");
      ("tgs-req", Error "tgs: malformed request") ]
    (List.map (fun (name, v) -> (name, snd (seed name) v)) (Mbt.Fuzz.trailing_negatives seeds))

(* A corpus file replays under the seed that wrote it. Two synthetic
   seeds, one name ending the other, resolve in either order; and every
   committed file resolves to its writer, read from its name: a valid
   file's seed, a mutant's seed index, a negative's name after its kind. *)
let test_corpus_seed_resolution () =
  let resolve seeds f = Option.map (fun (n, _, _) -> n) (Mbt.Fuzz.corpus_seed seeds f) in
  let synthetic =
    [ ("draw", Wire.S "", fun _ -> Ok ()); ("acct-draw", Wire.S "", fun _ -> Ok ()) ]
  in
  List.iter
    (fun seeds ->
      Alcotest.(check (list (option string)))
        "synthetic seeds"
        [ Some "acct-draw"; Some "acct-draw"; Some "draw"; Some "draw"; None ]
        (List.map (resolve seeds)
           [ "valid-acct-draw.hex"; "mutant-12-acct-draw.hex"; "valid-draw.hex";
             "mutant-00-draw.hex"; "valid-drawn.hex" ]))
    [ synthetic; List.rev synthetic ];
  let seeds, negatives = Mbt.Fuzz.build () in
  let after prefix f =
    if String.starts_with ~prefix f then
      Some (String.sub f (String.length prefix) (String.length f - String.length prefix))
    else None
  in
  let neg_kinds =
    [ "neg-truncated-"; "neg-lenbomb-"; "neg-trailing-"; "neg-dupstep-"; "neg-empty-";
      "neg-keyless-no-grantee-"; "neg-keybytes-trailing-"; "neg-keybytes-leadzero-" ]
    @ List.map (fun (n, _) -> "neg-binding-" ^ n ^ "-") negatives
  in
  let writer f =
    let base = Filename.chop_suffix f ".hex" in
    match (after "valid-" base, after "mutant-" base) with
    | Some name, _ -> Some name
    | None, Some rest ->
        (* mutant-<seed index><k>-<name>, k a single digit *)
        let digits = List.hd (String.split_on_char '-' rest) in
        let i = int_of_string (String.sub digits 0 (String.length digits - 1)) in
        let name, _, _ = List.nth seeds i in
        Some name
    | None, None -> List.find_map (fun prefix -> after prefix base) neg_kinds
  in
  let files =
    Sys.readdir "fuzz_corpus" |> Array.to_list
    |> List.filter (fun f ->
           Filename.check_suffix f ".hex" && not (String.starts_with ~prefix:"json-" f))
    |> List.sort compare
  in
  List.iter
    (fun f ->
      match writer f with
      | None -> Alcotest.failf "%s: no writer in its name" f
      | Some name -> Alcotest.(check (option string)) f (Some name) (resolve seeds f))
    files

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
          ("binding negatives refused", `Quick, test_binding_negatives);
          ("request codecs take exact shapes", `Quick, test_request_codecs);
          ("fuzz corpus regenerates", `Quick, test_fuzz_corpus_regenerates);
          ("corpus files resolve to their seeds", `Quick, test_corpus_seed_resolution) ] ) ]
