(* The scenario contract: every driver entry's gates hold at a small
   config and its reference run reproduces the digest byte for byte; and
   the runner turns a false gate or a digest mismatch into exit code 1. *)

(* Run [f] with stdout captured; returns its result and the output. *)
let capture f =
  let tmp = Filename.temp_file "drive" ".out" in
  flush stdout;
  let saved = Unix.dup Unix.stdout in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  Unix.dup2 fd Unix.stdout;
  Unix.close fd;
  let r =
    Fun.protect
      ~finally:(fun () ->
        flush stdout;
        Unix.dup2 saved Unix.stdout;
        Unix.close saved)
      f
  in
  let out = In_channel.with_open_text tmp In_channel.input_all in
  Sys.remove tmp;
  (r, out)

(* What a smoke checks, minus the printing. *)
let check_entry (e : _ Drive.entry) () =
  let o = e.run () in
  List.iter
    (fun (label, holds) -> Alcotest.(check bool) (e.label ^ ": " ^ label) true holds)
    (e.gates o @ e.smoke_gates o);
  let name, rerun = e.reference in
  Alcotest.(check string) (e.label ^ ": digest vs " ^ name) (e.digest o) (e.digest (rerun ()))

let lanes flavor =
  {
    Cluster.Lanes.default with
    Cluster.Lanes.seed = "entry-lanes";
    shards = 2;
    domains = 2;
    epochs = 4;
    ops_per_epoch = 4;
    buyers = 2;
    flavor;
  }

let load =
  {
    Load.Driver.default with
    Load.Driver.seed = "entry-load";
    population = 2_000;
    objects = 64;
    shards = 2;
    phases = [ { Load.Population.rate_per_s = 400; duration_us = 150_000 } ];
    churn_every = 8;
  }

(* Every subcommand's entry, at a config small enough for the suite. *)
let entries =
  [ ("chaos", check_entry (Chaos.entry { Chaos.default with seed = "entry-chaos"; ops = 16 }));
    ( "cluster",
      check_entry
        (Cluster.Scenario.entry
           {
             Cluster.Scenario.default with
             seed = "scenario-test";
             shards = 2;
             ops = 30;
             buyers = 3;
           }) );
    ("cluster lanes", check_entry (Cluster.Lanes.entry (lanes Cluster.Lanes.Checks)));
    ("seq", check_entry (Cluster.Seq_scenario.entry Cluster.Seq_scenario.default));
    ("seq lanes", check_entry (Cluster.Lanes.entry (lanes Cluster.Lanes.Seq)));
    ("load", check_entry (Load.Driver.entry load));
    ("load lanes", check_entry (Cluster.Lanes.entry (lanes Cluster.Lanes.Load)));
    ( "revoke",
      check_entry
        (Cluster.Revocation_storm.entry { Cluster.Revocation_storm.default with grants = 3 }) );
    ("federate", check_entry (Cluster.Federation.entry Cluster.Federation.default));
    ( "federate lanes",
      check_entry (Cluster.Federation.lanes_entry ~domains:2 Cluster.Federation.default) );
    ("trace f4", check_entry (Tracing.f4_entry ~requests:2 ()));
    ("trace f5", check_entry (Tracing.f5_entry ()));
  ]

(* A stub scenario: run [i] yields digest [digests.(i)]. *)
let stub ~gates ~digests =
  let runs = ref 0 in
  Drive.entry ~label:"stub" ~gates:(fun _ -> gates) ~digest:(fun i -> digests.(i)) (fun () ->
      let i = !runs in
      incr runs;
      i)

let test_false_gate_fails () =
  let e = stub ~gates:[ ("fine", true); ("the broken gate", false) ] ~digests:[| "d"; "d" |] in
  let code, out = capture (fun () -> Drive.main ~smoke:true e) in
  Alcotest.(check int) "exit 1" 1 code;
  Alcotest.(check bool) "names the gate" true
    (Sim.Span.contains_substring ~needle:"FAIL the broken gate" out);
  Alcotest.(check bool) "verdict" true
    (Sim.Span.contains_substring ~needle:"stub smoke: FAILED" out);
  let code, _ = capture (fun () -> Drive.main ~smoke:false e) in
  Alcotest.(check int) "a plain run exits 1 too" 1 code

let test_digest_mismatch_fails () =
  let e = stub ~gates:[ ("fine", true) ] ~digests:[| "one"; "two" |] in
  let code, out = capture (fun () -> Drive.main ~smoke:true e) in
  Alcotest.(check int) "exit 1" 1 code;
  Alcotest.(check bool) "names the digest gate" true
    (Sim.Span.contains_substring ~needle:"FAIL digest byte-identical to a same-seed rerun" out)

let test_all_hold_passes () =
  let e = stub ~gates:[ ("fine", true) ] ~digests:[| "d"; "d" |] in
  let code, out = capture (fun () -> Drive.main ~smoke:true e) in
  Alcotest.(check int) "exit 0" 0 code;
  Alcotest.(check bool) "verdict" true (Sim.Span.contains_substring ~needle:"stub smoke: OK" out)

let () =
  Alcotest.run "drive"
    [ ( "runner",
        [ ("a false gate exits 1 and is named", `Quick, test_false_gate_fails);
          ("a digest mismatch exits 1", `Quick, test_digest_mismatch_fails);
          ("all gates holding exits 0", `Quick, test_all_hold_passes) ] );
      ("entries", List.map (fun (name, f) -> Alcotest.test_case name `Slow f) entries) ]
