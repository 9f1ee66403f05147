(* Regression pins for the JSON validator that reads bench output back
   ([Sim.Json]), in particular the \u escape parser that used to walk past
   the end of the buffer (or accept junk) on truncated and non-hex escapes. *)

let ok name s =
  match Sim.Json.valid s with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s: rejected valid json: %s" name e

let rejected name s =
  (* The bug was a crash (out-of-bounds raise); the fix must turn each of
     these into a clean Error, never an exception. *)
  match Sim.Json.valid s with
  | Ok () -> Alcotest.failf "%s: accepted malformed json" name
  | Error _ -> ()
  | exception e -> Alcotest.failf "%s: parser raised %s" name (Printexc.to_string e)

(* [u "0041"] is the six-character JSON escape for U+0041; built by
   concatenation so the backslash is unmistakably in the payload. *)
let u hex = "\\u" ^ hex
let quoted body = {|{"a": "|} ^ body ^ {|"}|}

let test_unicode_escapes_valid () =
  ok "bmp" (quoted (u "0041"));
  ok "lower hex" (quoted (u "00ff"));
  ok "upper hex" (quoted (u "ABCD"));
  ok "escape last in string" (quoted ("tail " ^ u "0041"));
  ok "mixed escapes" (quoted ("\\n\\t\\\\ \\\"done\\\" " ^ u "0012"))

let test_unicode_escapes_malformed () =
  rejected "non-hex digit" {|{"a": "\u00g1"}|};
  rejected "truncated at eof" {|{"a": "\u12|};
  rejected "underscore" {|{"a": "\u1_23"}|};
  rejected "nothing after u" {|{"a": "\u|};
  rejected "minus sign" {|{"a": "\u-123"}|};
  rejected "escape then close quote" {|{"a": "\u12"}|}

let test_corpus_files_covered () =
  (* The fuzz corpus carries the original crashing inputs; every json-*
     entry must decode and hit the same clean-Error path. *)
  let dir = "fuzz_corpus" in
  let entries =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f ->
           String.length f > 5 && String.sub f 0 5 = "json-" && Filename.check_suffix f ".hex")
  in
  Alcotest.(check bool) "corpus has json crashers" true (List.length entries >= 5);
  List.iter
    (fun f ->
      let ic = open_in (Filename.concat dir f) in
      let rec lines acc =
        match input_line ic with
        | line -> lines (line :: acc)
        | exception End_of_file -> List.rev acc
      in
      let ls = lines [] in
      close_in ic;
      List.iter
        (fun hex ->
          match Mbt.Program.of_hex hex with
          | Error e -> Alcotest.failf "%s: bad hex: %s" f e
          | Ok bytes -> rejected f bytes)
        (List.filter (fun l -> String.trim l <> "") ls))
    entries

let doc rows = { Benchout.id = "t9"; title = "roundtrip"; mode = "full"; rows }

let row label ops rate =
  { Benchout.label; ints = [ ("ops", ops); ("errors", 0) ]; floats = [ ("rate", rate) ] }

let test_check_compares_ints_only () =
  let baseline = doc [ row "n=1" 10 1.5; row "n=2" 20 2.5 ] in
  (match Benchout.check ~baseline ~current:baseline with
  | Ok () -> ()
  | Error es -> Alcotest.failf "self-check failed: %s" (String.concat "; " es));
  (* Floats are physical measurements: drift must not gate. *)
  (match Benchout.check ~baseline ~current:(doc [ row "n=1" 10 9.9; row "n=2" 20 0.1 ]) with
  | Ok () -> ()
  | Error es -> Alcotest.failf "float drift gated: %s" (String.concat "; " es));
  (* Integers are logical: any shift is a regression. *)
  match Benchout.check ~baseline ~current:(doc [ row "n=1" 10 1.5; row "n=2" 21 2.5 ]) with
  | Ok () -> Alcotest.fail "integer drift passed the gate"
  | Error _ -> ()

(* A fast-mode artifact never serves as a baseline, even when its
   integers match; a fast-mode current run still checks against a full
   baseline. *)
let test_check_refuses_fast_baseline () =
  let full = doc [ row "n=1" 10 1.5 ] in
  let fast = { full with Benchout.mode = "fast" } in
  (match Benchout.check ~baseline:fast ~current:full with
  | Ok () -> Alcotest.fail "a fast-mode baseline passed the gate"
  | Error es ->
      Alcotest.(check (list string)) "one refusal"
        [ "baseline t9 is a fast-mode run: baselines are regenerated in full mode" ] es);
  match Benchout.check ~baseline:full ~current:fast with
  | Ok () -> ()
  | Error es -> Alcotest.failf "fast current refused: %s" (String.concat "; " es)

let test_tables_group_consecutive_keys () =
  let r label ints floats = { Benchout.label; ints; floats } in
  let rows =
    [ r "a" [ ("x", 1) ] [ ("t", 1.5) ];
      r "b" [ ("x", 2) ] [ ("t", nan) ];
      r "c" [ ("y", 3) ] [];
      r "d" [ ("x", 4) ] [ ("t", 2.) ] ]
  in
  Alcotest.(check (list (pair (list string) (list (list string)))))
    "equal key lists share a table; a changed list starts one; NaN prints n/a"
    [ ([ "label"; "x"; "t" ], [ [ "a"; "1"; "1.5" ]; [ "b"; "2"; "n/a" ] ]);
      ([ "label"; "y" ], [ [ "c"; "3" ] ]);
      ([ "label"; "x"; "t" ], [ [ "d"; "4"; "2.0" ] ]) ]
    (Benchout.tables rows)

let test_summary_median_iqr () =
  let check name expected got =
    Alcotest.(check (pair (float 1e-9) (float 1e-9))) name expected got
  in
  (* Nearest rank: of 5 sorted samples the median is the 3rd and the
     quartiles the 2nd and 4th; of 4, the 2nd, then the 1st and 3rd. *)
  check "odd n" (30., 20.) (Benchout.summary ~per:1 [ 50; 10; 40; 20; 30 ]);
  check "even n, per op" (2., 2.) (Benchout.summary ~per:10 [ 40; 10; 30; 20 ]);
  let m, iqr = Benchout.summary ~per:1 [] in
  Alcotest.(check bool) "no samples (fast mode): NaN" true (Float.is_nan m && Float.is_nan iqr)

let test_time_writes_median_and_iqr () =
  let floats = Benchout.time "op_ns" (fun () -> Sys.opaque_identity (ref 0)) in
  Alcotest.(check (list string)) "keys" [ "op_ns"; "op_ns_iqr" ] (List.map fst floats);
  let m = List.assoc "op_ns" floats and iqr = List.assoc "op_ns_iqr" floats in
  if Benchout.fast then Alcotest.(check bool) "fast mode: NaN" true (Float.is_nan m)
  else Alcotest.(check bool) "positive median, non-negative spread" true (m > 0. && iqr >= 0.)

let () =
  Alcotest.run "benchout"
    [ ( "json",
        [ ("unicode escapes accepted", `Quick, test_unicode_escapes_valid);
          ("malformed escapes rejected without raising", `Quick, test_unicode_escapes_malformed);
          ("fuzz corpus json crashers stay fixed", `Quick, test_corpus_files_covered) ] );
      ( "check",
        [ ("ints gate, floats do not", `Quick, test_check_compares_ints_only);
          ("fast-mode baseline refused", `Quick, test_check_refuses_fast_baseline) ] );
      ( "render",
        [ ("tables group consecutive rows by keys", `Quick, test_tables_group_consecutive_keys) ] );
      ( "sampler",
        [ ("median and IQR of fixed samples", `Quick, test_summary_median_iqr);
          ("time writes a median and its IQR", `Quick, test_time_writes_median_and_iqr) ] ) ]
