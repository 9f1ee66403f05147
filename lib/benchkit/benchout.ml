(* Machine-readable bench artifacts: BENCH_<ID>.json files recording, per
   experiment row, the *logical* quantities (integers: ops, bytes, crypto-op
   counters, virtual-time latency) separately from the *physical* ones
   (floats: sampled nanoseconds). Logical quantities are deterministic
   functions of the protocol and the fixed seeds, so CI compares them
   exactly against a committed baseline; timings vary with the machine and
   are reported, never gated. The emitter below writes the subset that
   [Sim.Json] reads back. *)

type row = {
  label : string;
  ints : (string * int) list; (* logical metrics: compared exactly *)
  floats : (string * float) list; (* sampled timings: reported only *)
}

type doc = { id : string; title : string; mode : string; rows : row list }

let schema_version = 1

let fast =
  match Sys.getenv_opt "BENCH_FAST" with
  | Some ("" | "0") | None -> false
  | Some _ -> true

let mode = if fast then "fast" else "full"
let dir () = Option.value (Sys.getenv_opt "BENCH_DIR") ~default:"bench"

let path_for id = Filename.concat (dir ()) ("BENCH_" ^ String.uppercase_ascii id ^ ".json")

(* ---------------- the sampler ---------------- *)

(* Fast mode takes no samples, so its floats are NaN: CI gates only the
   integers, and even one sample of a whole run (L1's load runs, S1's lane
   runs) would add a third to its time. A batch lasts at least 1 ms, far
   above the monotonic clock's resolution and the cost of reading it. *)
let samples = if fast then 0 else 5
let batch_ns = 1_000_000
let now_ns () = Int64.to_int (Monotonic_clock.now ())

let summary ~per batches =
  match batches with
  | [] -> (nan, nan)
  | _ ->
      let sorted = Array.of_list batches in
      Array.sort compare sorted;
      let q p = float_of_int (Drive.percentile sorted p) /. float_of_int per in
      (q 50., q 75. -. q 25.)

let floats key (median, iqr) = [ (key, median); (key ^ "_iqr", iqr) ]

let time key f =
  let batch k =
    let t0 = now_ns () in
    for _ = 1 to k do
      ignore (Sys.opaque_identity (f ()))
    done;
    now_ns () - t0
  in
  (* Doubling the batch until it fills [batch_ns] also warms [f] up. *)
  let rec size k = if batch k >= batch_ns then k else size (2 * k) in
  let k = if samples = 0 then 1 else size 1 in
  floats key (summary ~per:k (List.init samples (fun _ -> batch k)))

let time_each ?(per = 1) key ~setup f =
  let sample _ =
    let s = setup () in
    let t0 = now_ns () in
    ignore (Sys.opaque_identity (f s));
    now_ns () - t0
  in
  floats key (summary ~per (List.init samples sample))

(* ---------------- tables ---------------- *)

let keys r = List.map fst r.ints @ List.map fst r.floats

let cells r =
  (r.label :: List.map (fun (_, v) -> string_of_int v) r.ints)
  @ List.map (fun (_, f) -> if Float.is_nan f then "n/a" else Printf.sprintf "%.1f" f) r.floats

let tables rows =
  let step acc r =
    let header = "label" :: keys r in
    match acc with
    | (h, body) :: older when h = header -> (h, cells r :: body) :: older
    | _ -> (header, [ cells r ]) :: acc
  in
  List.rev_map (fun (header, body) -> (header, List.rev body)) (List.fold_left step [] rows)

let print_table (header, body) =
  let widths =
    List.mapi
      (fun i c ->
        List.fold_left (fun w r -> max w (String.length (List.nth r i))) (String.length c) body)
      header
  in
  let line cells =
    Printf.printf "| %s |\n"
      (String.concat " | " (List.map2 (fun w c -> Printf.sprintf "%-*s" w c) widths cells))
  in
  line header;
  Printf.printf "|%s|\n" (String.concat "|" (List.map (fun w -> String.make (w + 2) '-') widths));
  List.iter line body;
  print_newline ()

(* ---------------- emit ---------------- *)

let escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let float_json f =
  (* NaN/inf are not JSON; record them as null (read back as nan). *)
  if Float.is_nan f || f = Float.infinity || f = Float.neg_infinity then "null"
  else Printf.sprintf "%.3f" f

let render doc =
  let buf = Buffer.create 1024 in
  let pair_i (k, v) = Printf.sprintf "\"%s\": %d" (escape k) v in
  let pair_f (k, v) = Printf.sprintf "\"%s\": %s" (escape k) (float_json v) in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf (Printf.sprintf "  \"schema_version\": %d,\n" schema_version);
  Buffer.add_string buf (Printf.sprintf "  \"id\": \"%s\",\n" (escape doc.id));
  Buffer.add_string buf (Printf.sprintf "  \"title\": \"%s\",\n" (escape doc.title));
  Buffer.add_string buf (Printf.sprintf "  \"mode\": \"%s\",\n" (escape doc.mode));
  Buffer.add_string buf "  \"rows\": [\n";
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_string buf ",\n";
      Buffer.add_string buf
        (Printf.sprintf "    {\"label\": \"%s\", \"ints\": {%s}, \"floats\": {%s}}"
           (escape r.label)
           (String.concat ", " (List.map pair_i r.ints))
           (String.concat ", " (List.map pair_f r.floats))))
    doc.rows;
  Buffer.add_string buf "\n  ]\n}\n";
  Buffer.contents buf

let emit ~id ~title rows =
  Printf.printf "\n### %s: %s\n\n" (String.uppercase_ascii id) title;
  List.iter print_table (tables rows);
  let d = dir () in
  (if not (Sys.file_exists d) then try Unix.mkdir d 0o755 with Unix.Unix_error _ -> ());
  let path = path_for id in
  let oc = open_out path in
  output_string oc (render { id; title; mode; rows });
  close_out oc;
  Printf.printf "[bench] wrote %s (%d rows, mode %s)\n%!" path (List.length rows) mode

(* ---------------- read back ---------------- *)

let doc_of_json j =
  let open Sim.Json in
  let field name = function
    | Obj members -> (
        match List.assoc_opt name members with
        | Some v -> Ok v
        | None -> Error (Printf.sprintf "missing field %S" name))
    | _ -> Error "expected an object"
  in
  let str = function Str s -> Ok s | _ -> Error "expected a string" in
  let int_of = function
    | Num f when Float.is_integer f -> Ok (int_of_float f)
    | Num _ -> Error "expected an integer"
    | _ -> Error "expected a number"
  in
  let float_of = function Num f -> Ok f | Null -> Ok nan | _ -> Error "expected a number" in
  let ( let* ) = Result.bind in
  let* version = Result.bind (field "schema_version" j) int_of in
  if version <> schema_version then
    Error (Printf.sprintf "unsupported schema_version %d (expected %d)" version schema_version)
  else
    let* id = Result.bind (field "id" j) str in
    let* title = Result.bind (field "title" j) str in
    let* mode = Result.bind (field "mode" j) str in
    let* rows_j = field "rows" j in
    let parse_row r =
      let* label = Result.bind (field "label" r) str in
      let pairs conv = function
        | Obj members ->
            List.fold_left
              (fun acc (k, v) ->
                let* acc = acc in
                let* v = conv v in
                Ok ((k, v) :: acc))
              (Ok []) members
            |> Result.map List.rev
        | _ -> Error "expected an object of metrics"
      in
      let* ints = Result.bind (field "ints" r) (pairs int_of) in
      let* floats = Result.bind (field "floats" r) (pairs float_of) in
      Ok { label; ints; floats }
    in
    match rows_j with
    | Arr rs ->
        let* rows =
          List.fold_left
            (fun acc r ->
              let* acc = acc in
              let* row = parse_row r in
              Ok (row :: acc))
            (Ok []) rs
          |> Result.map List.rev
        in
        Ok { id; title; mode; rows }
    | _ -> Error "rows: expected an array"

let load path =
  match
    let ic = open_in_bin path in
    let len = in_channel_length ic in
    let s = really_input_string ic len in
    close_in ic;
    s
  with
  | exception Sys_error e -> Error e
  | s -> Result.bind (Sim.Json.parse s) doc_of_json

(* ---------------- compare ---------------- *)

(* Logical comparison: ids, row labels, and every integer metric must match
   exactly, against a baseline written by a full-mode run. Floats
   (wall-times) are never compared — that is the point of the int/float
   split. *)
let check ~baseline ~current =
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  if baseline.id <> current.id then err "id mismatch: baseline %S, current %S" baseline.id current.id;
  if baseline.mode <> "full" then
    err "baseline %s is a %s-mode run: baselines are regenerated in full mode" baseline.id
      baseline.mode;
  let blabels = List.map (fun r -> r.label) baseline.rows in
  let clabels = List.map (fun r -> r.label) current.rows in
  if blabels <> clabels then
    err "row labels differ: baseline [%s], current [%s]" (String.concat "; " blabels)
      (String.concat "; " clabels)
  else
    List.iter2
      (fun b c ->
        let keys l = List.map fst l in
        if keys b.ints <> keys c.ints then
          err "row %S: metric keys differ: baseline [%s], current [%s]" b.label
            (String.concat "; " (keys b.ints))
            (String.concat "; " (keys c.ints))
        else
          List.iter2
            (fun (k, bv) (_, cv) ->
              if bv <> cv then err "row %S: %s changed: baseline %d, current %d" b.label k bv cv)
            b.ints c.ints)
      baseline.rows current.rows;
  match List.rev !errs with [] -> Ok () | es -> Error es
