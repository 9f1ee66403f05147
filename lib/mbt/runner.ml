(* Campaign driver: generate programs, run each against the real stack twice
   (verification cache on and off) and against the reference model, and
   report the first disagreement.  Findings shrink to minimal replayable
   repro files. *)

open Program

type kind = Cache_divergence | Oracle_mismatch

let kind_name = function
  | Cache_divergence -> "cache-divergence"
  | Oracle_mismatch -> "oracle-mismatch"

type finding = {
  f_kind : kind;
  f_seed : string;  (** the world seed the program ran under *)
  f_program : Program.t;
  f_detail : string;
}

(* The full conformance check for one program:
   1. cached and uncached executions must agree bit for bit (the
      cache-coherence differential of the PR 2 caching layer);
   2. the uncached execution must agree with the pure reference model.
   Also returns how many conventional-link opens the cached execution's
   verify caches answered, the evidence that the differential reached
   them. *)
let check_counted ?mutation ~seed prog =
  let cached, link_hits = Exec.run ?mutation ~cache:true ~seed prog in
  let uncached, _ = Exec.run ?mutation ~cache:false ~seed prog in
  let finding =
    match first_divergence cached uncached with
    | Some (_, d) ->
        Some
          {
            f_kind = Cache_divergence;
            f_seed = seed;
            f_program = prog;
            f_detail = "cached vs uncached: " ^ d;
          }
    | None -> (
        let model = Model.run prog in
        match first_divergence uncached model with
        | Some (_, d) ->
            Some
              {
                f_kind = Oracle_mismatch;
                f_seed = seed;
                f_program = prog;
                f_detail = "stack vs model: " ^ d;
              }
        | None -> None)
  in
  (finding, link_hits)

let check ?mutation ~seed prog = fst (check_counted ?mutation ~seed prog)

type stats = { programs : int; ops : int; seq_ops : int; link_hits : int }

(* Operations carrying a sequence spec anywhere in their restrictions —
   the campaign coverage counter the smoke gate insists is nonzero. *)
let rec has_seq = function
  | R_sequence _ -> true
  | R_limit (_, rs) -> List.exists has_seq rs
  | _ -> false

let op_has_seq = function
  | Grant { rs; _ } | Derive { rs; _ } -> List.exists has_seq rs
  | _ -> false

(* Run [per_seed] programs under each campaign seed; stop at the first
   finding.  The world seed of program [i] under campaign seed [s] is
   ["s/i"], so any finding replays in isolation. *)
let campaign ?mutation ?(progress = fun _ -> ()) ~seeds ~per_seed () =
  let programs = ref 0 and ops = ref 0 and seq_ops = ref 0 and link_hits = ref 0 in
  let finding = ref None in
  (try
     List.iter
       (fun seed ->
         let g = Gen.create ~seed in
         for i = 0 to per_seed - 1 do
           let prog = Gen.program g in
           let world_seed = Printf.sprintf "%s/%d" seed i in
           incr programs;
           ops := !ops + List.length prog;
           seq_ops := !seq_ops + List.length (List.filter op_has_seq prog);
           progress !programs;
           let found, hits = check_counted ?mutation ~seed:world_seed prog in
           link_hits := !link_hits + hits;
           match found with
           | Some f ->
               finding := Some f;
               raise Exit
           | None -> ()
         done)
       seeds
   with Exit -> ());
  (!finding, { programs = !programs; ops = !ops; seq_ops = !seq_ops; link_hits = !link_hits })

(* Shrink a finding to a (locally) minimal program that still disagrees —
   under the same world seed and the same injected mutation. *)
let shrink ?mutation ?budget (f : finding) =
  let still_failing prog = Option.is_some (check ?mutation ~seed:f.f_seed prog) in
  let minimal, candidates = Shrink.minimize ~still_failing ?budget f.f_program in
  let f' = Option.value (check ?mutation ~seed:f.f_seed minimal) ~default:f in
  (f', candidates)

(* --- repro files ---

   A repro is a short text file: '#' comment lines carrying the world seed,
   the injected mutation it was found under (if any) and a human-readable
   transcript, then one hex line holding the wire-encoded program.
   [replay] re-runs the full conformance check under that mutation. *)

let seed_header = "# seed: "
let mutation_header = "# found with injected mutation: "

let save_repro ~path ?mutation (f : finding) =
  let oc = open_out path in
  Printf.fprintf oc "# proxykit mbt repro\n";
  Printf.fprintf oc "# kind: %s\n" (kind_name f.f_kind);
  (match mutation with
  | Some m -> Printf.fprintf oc "%s%s\n" mutation_header (Exec.mutation_name m)
  | None -> ());
  Printf.fprintf oc "# detail: %s\n" f.f_detail;
  Printf.fprintf oc "%s%s\n" seed_header f.f_seed;
  List.iteri
    (fun i op -> Printf.fprintf oc "# op %d: %s\n" i (Format.asprintf "%a" pp_op op))
    f.f_program;
  Printf.fprintf oc "%s\n" (to_hex (Wire.encode (to_wire f.f_program)));
  close_out oc

(* The value of a [header] line, if [line] is one with a non-empty value. *)
let header_value header line =
  let hl = String.length header in
  if String.length line > hl && String.sub line 0 hl = header then
    Some (String.sub line hl (String.length line - hl))
  else None

(* [Ok (seed, mutation, program)]; a mutation name the stack no longer
   knows reads as none. *)
let load_repro path =
  let ic = open_in path in
  let seed = ref None and mutation = ref None and hex = Buffer.create 64 in
  (try
     while true do
       let line = String.trim (input_line ic) in
       if line = "" then ()
       else if line.[0] = '#' then begin
         Option.iter (fun s -> seed := Some s) (header_value seed_header line);
         Option.iter
           (fun m -> mutation := Exec.mutation_of_name m)
           (header_value mutation_header line)
       end
       else Buffer.add_string hex line
     done
   with End_of_file -> close_in ic);
  match !seed with
  | None -> Error (path ^ ": no '# seed:' line")
  | Some seed -> (
      match of_hex (Buffer.contents hex) with
      | Error e -> Error (path ^ ": " ^ e)
      | Ok bytes -> (
          match Wire.decode bytes with
          | Error e -> Error (path ^ ": " ^ e)
          | Ok w -> (
              match of_wire w with
              | Error e -> Error (path ^ ": " ^ e)
              | Ok prog -> Ok (seed, !mutation, prog))))

(* Replay a repro file under the mutation it records, returned beside the
   result: [None] when the stack, the cache differential and the model all
   agree (the bug it recorded is fixed and stays fixed); [Some f] when it
   still disagrees (a recorded mutant stays killed). *)
let replay path =
  match load_repro path with
  | Error e -> Error e
  | Ok (seed, mutation, prog) -> Ok (mutation, check ?mutation ~seed prog)
