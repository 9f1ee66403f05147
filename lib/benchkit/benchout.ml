(* Machine-readable bench artifacts: BENCH_<ID>.json files recording, per
   experiment row, the *logical* quantities (integers: ops, bytes, crypto-op
   counters, virtual-time latency) separately from the *physical* ones
   (floats: wall-clock nanoseconds). Logical quantities are deterministic
   functions of the protocol and the fixed seeds, so CI compares them
   exactly against a committed baseline; wall-times vary with the machine
   and are reported, never gated. The emitter below writes the subset that
   [Sim.Json] reads back. *)

type row = {
  label : string;
  ints : (string * int) list; (* logical metrics: compared exactly *)
  floats : (string * float) list; (* wall-times etc.: reported only *)
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

let write ~id ~title rows =
  let doc = { id; title; mode; rows } in
  let d = dir () in
  (if not (Sys.file_exists d) then try Unix.mkdir d 0o755 with Unix.Unix_error _ -> ());
  let path = path_for id in
  let oc = open_out path in
  output_string oc (render doc);
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
   exactly. Floats (wall-times) are never compared — that is the point of
   the int/float split. *)
let check ~baseline ~current =
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  if baseline.id <> current.id then err "id mismatch: baseline %S, current %S" baseline.id current.id;
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
