(* Tests for the benchmark's own arithmetic and determinism.

     dune build @perfbench/perfbench-test

   The determinism test runs each workload twice, each time in a fresh
   process (this executable re-invoked with [--pass]), because the top
   heap size is a property of a whole process. *)

let failures = ref 0

let check name ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n%!" name
  end
  else Printf.printf "ok   %s\n%!" name

let close a b = Float.abs (a -. b) < 1e-9

(* Nearest rank: p-th percentile is the sample of rank ceil(p/100 * n). *)
let test_percentile () =
  let hundred = Array.init 100 (fun i -> float_of_int (100 - i)) in
  check "p50 of 1..100 is 50, 50 beyond" (Stats.percentile_rank hundred 50. = (50., 50));
  check "p99 of 1..100 is 99, 1 beyond" (Stats.percentile_rank hundred 99. = (99., 1));
  let seven = [| 7.; 1.; 6.; 2.; 5.; 3.; 4. |] in
  check "p50 of 1..7 is rank 4" (Stats.percentile_rank seven 50. = (4., 3));
  check "p99 of 1..7 is the maximum" (Stats.percentile_rank seven 99. = (7., 0));
  check "p99 of 1000 samples leaves 10 beyond"
    (snd (Stats.percentile_rank (Array.init 1000 float_of_int) 99.) = 10);
  (* statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25] *)
  let q1, q2, q3 = Stats.quantiles4 (List.init 10 (fun i -> float_of_int (i + 1))) in
  check "quartiles match the exclusive method" (close q1 2.75 && close q2 5.5 && close q3 8.25)

(* Σ-self: client self plus every node's self time is the op's time. *)
let test_sigma_self () =
  let t = Tracer.create ~role:(fun ~depth node -> Printf.sprintf "%s@%d" node depth) () in
  let pending r = (Hashtbl.find t.Tracer.roles r).Host.pending in
  Tracer.begin_op t;
  (* client -> a [10, 70]; a -> b [20, 50]; b -> c [25, 35]; client -> a [80, 90] *)
  Tracer.push t ~now:10 "a";
  Tracer.push t ~now:20 "b";
  Tracer.push t ~now:25 "c";
  Tracer.pop t ~now:35;
  Tracer.pop t ~now:50;
  Tracer.pop t ~now:70;
  Tracer.push t ~now:80 "a";
  Tracer.pop t ~now:90;
  Tracer.end_op t ~op_ns:100;
  check "leaf self time" (close (pending "c@2") 10.);
  check "nested self time excludes its child" (close (pending "b@1") 20.);
  check "top-level self time sums both spans" (close (pending "a@0") (30. +. 10.));
  check "client self is the op minus top-level spans" (close t.Tracer.client.Host.pending 30.);
  let nodes = Hashtbl.fold (fun _ a s -> s +. a.Host.pending) t.Tracer.roles 0. in
  check "sigma self equals op time" (close (t.Tracer.client.Host.pending +. nodes) 100.);
  check "bookkeeping sound" (Tracer.sound t);
  Tracer.begin_op t;
  Tracer.push t ~now:0 "a";
  Tracer.end_op t ~op_ns:5;
  check "an op that ends inside a span is flagged" (not (Tracer.sound t))

(* One small pass: the counters, bytes and heap it leaves, as text. *)
let pass_digest wl seed =
  let wl = List.assoc wl Runner.workloads in
  let ops = match wl with Runner.Bank -> 40 | _ -> 150 in
  let p = Runner.run (Runner.gen wl ~seed ~ops) in
  let counters = String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) p.Runner.delta) in
  Printf.sprintf "failed=%d wrong=%d checked=%b heap=%d alloc=%.0f %s" p.Runner.failed p.Runner.wrong
    (p.Runner.checked = Ok ()) p.Runner.heap_words p.Runner.alloc_bytes counters

let run_pass wl seed =
  let ic =
    Unix.open_process_args_in Sys.executable_name
      [| Sys.executable_name; "--pass"; wl; string_of_int seed |]
  in
  let line = input_line ic in
  ignore (Unix.close_process_in ic);
  line

let test_determinism () =
  List.iter
    (fun (wl, _) ->
      let a = run_pass wl 7 and b = run_pass wl 7 in
      check (wl ^ ": same seed, same counts, bytes and heap") (a = b);
      check (wl ^ ": ops all succeed and outputs check")
        (String.starts_with ~prefix:"failed=0 wrong=0 checked=true " a);
      let c = run_pass wl 8 in
      check (wl ^ ": another seed, other inputs") (a <> c))
    Runner.workloads

let () =
  match Array.to_list Sys.argv with
  | [ _; "--pass"; wl; seed ] -> print_endline (pass_digest wl (int_of_string seed))
  | _ ->
      test_percentile ();
      test_sigma_self ();
      test_determinism ();
      if !failures > 0 then begin
        Printf.printf "%d failed\n" !failures;
        exit 1
      end
