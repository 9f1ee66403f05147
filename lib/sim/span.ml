type span = {
  sp_trace : string;
  sp_id : string;
  sp_parent : string option;
  sp_actor : string;
  sp_kind : string;
  sp_name : string;
  sp_start : int;
  sp_end : int;
  sp_attrs : (string * string) list;
  sp_costs : (string * int) list;
}

type context = { ctx_trace : string; ctx_span : string }

(* An open span. [fr_before] is the metrics snapshot at entry; [fr_children]
   accumulates the *total* (inclusive) cost of each closed child so the
   parent's self cost can be computed by subtraction on close. *)
type frame = {
  fr_trace : string;
  fr_id : string;
  fr_parent : string option;
  fr_actor : string;
  fr_kind : string;
  fr_name : string;
  fr_start : int;
  fr_before : (string * int) list;
  mutable fr_attrs : (string * string) list;
  fr_children : (string, int) Hashtbl.t;
}

type t = {
  clock : Clock.t;
  metrics : Metrics.t;
  drbg : Crypto.Drbg.t;
  capacity : int;
  ring : span option array;
  mutable next : int;
  mutable count : int;
  mutable dropped : int;
  mutable stack : frame list;
}

let create ?(capacity = 65_536) ~seed ~clock ~metrics () =
  let capacity = max 1 capacity in
  {
    clock;
    metrics;
    drbg = Crypto.Drbg.create ~seed;
    capacity;
    ring = Array.make capacity None;
    next = 0;
    count = 0;
    dropped = 0;
    stack = [];
  }

let hex s =
  let b = Buffer.create (2 * String.length s) in
  String.iter (fun c -> Buffer.add_string b (Printf.sprintf "%02x" (Char.code c))) s;
  Buffer.contents b

(* Ids come from a collector-private DRBG (seeded from the net seed, not the
   shared environment DRBG), so enabling tracing never perturbs the keys and
   nonces a run would otherwise draw — same trick as [Fault.runtime]. *)
let mint t = hex (Crypto.Drbg.generate t.drbg 8)

let push_ring t s =
  t.ring.(t.next) <- Some s;
  t.next <- (t.next + 1) mod t.capacity;
  if t.count = t.capacity then t.dropped <- t.dropped + 1 else t.count <- t.count + 1

let spans t =
  let first = if t.count = t.capacity then t.next else 0 in
  List.init t.count (fun i ->
      match t.ring.((first + i) mod t.capacity) with
      | Some s -> s
      | None -> assert false)

let clear t =
  Array.fill t.ring 0 t.capacity None;
  t.next <- 0;
  t.count <- 0;
  t.dropped <- 0;
  t.stack <- []

let dropped t = t.dropped

let enter t ~actor ~kind ~name ~attrs ~parent =
  let trace, parent_id =
    match (parent, t.stack) with
    | Some ctx, _ -> (ctx.ctx_trace, Some ctx.ctx_span)
    | None, top :: _ -> (top.fr_trace, Some top.fr_id)
    | None, [] -> (mint t, None)
  in
  let fr =
    {
      fr_trace = trace;
      fr_id = mint t;
      fr_parent = parent_id;
      fr_actor = actor;
      fr_kind = kind;
      fr_name = name;
      fr_start = Clock.now t.clock;
      fr_before = Metrics.snapshot t.metrics;
      fr_attrs = attrs;
      fr_children = Hashtbl.create 8;
    }
  in
  t.stack <- fr :: t.stack

let exit_frame t =
  match t.stack with
  | [] -> ()
  | fr :: rest ->
      t.stack <- rest;
      let total = Metrics.diff ~before:fr.fr_before ~after:(Metrics.snapshot t.metrics) in
      (* Self cost = own-interval delta minus everything attributed to
         children; summed over a trace, self costs reproduce the global
         metrics diff exactly. *)
      let self =
        List.filter_map
          (fun (k, v) ->
            let c = Option.value (Hashtbl.find_opt fr.fr_children k) ~default:0 in
            if v - c <> 0 then Some (k, v - c) else None)
          total
      in
      (match rest with
      | up :: _ ->
          List.iter
            (fun (k, v) ->
              let cur = Option.value (Hashtbl.find_opt up.fr_children k) ~default:0 in
              Hashtbl.replace up.fr_children k (cur + v))
            total
      | [] -> ());
      push_ring t
        {
          sp_trace = fr.fr_trace;
          sp_id = fr.fr_id;
          sp_parent = fr.fr_parent;
          sp_actor = fr.fr_actor;
          sp_kind = fr.fr_kind;
          sp_name = fr.fr_name;
          sp_start = fr.fr_start;
          sp_end = Clock.now t.clock;
          sp_attrs = List.rev fr.fr_attrs;
          sp_costs = self;
        }

let add_attr t k v =
  match t with
  | None -> ()
  | Some t -> ( match t.stack with [] -> () | fr :: _ -> fr.fr_attrs <- (k, v) :: fr.fr_attrs)

let context t =
  match t with
  | None -> None
  | Some t -> (
      match t.stack with
      | [] -> None
      | fr :: _ -> Some { ctx_trace = fr.fr_trace; ctx_span = fr.fr_id })

let with_span t ~actor ~kind ?(name = "") ?(attrs = []) ?parent f =
  match t with
  | None -> f ()
  | Some t -> (
      enter t ~actor ~kind ~name ~attrs:(List.rev attrs) ~parent;
      match f () with
      | v ->
          exit_frame t;
          v
      | exception e ->
          add_attr (Some t) "error" (Printexc.to_string e);
          exit_frame t;
          raise e)

(* Iterative substring scan: the old recursive version burned one stack
   frame per haystack character and overflowed on multi-hundred-KB events. *)
let contains_substring ~needle hay =
  let nn = String.length needle and nh = String.length hay in
  if nn = 0 then true
  else if nn > nh then false
  else begin
    let limit = nh - nn in
    let found = ref false in
    let i = ref 0 in
    while (not !found) && !i <= limit do
      let j = ref 0 in
      while !j < nn && String.unsafe_get hay (!i + !j) = String.unsafe_get needle !j do
        incr j
      done;
      if !j = nn then found := true else incr i
    done;
    !found
  end

(* ------------------------------------------------------------------ *)
(* Aggregation helpers                                                 *)

let cost_total spans =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun s ->
      List.iter
        (fun (k, v) ->
          let cur = Option.value (Hashtbl.find_opt tbl k) ~default:0 in
          Hashtbl.replace tbl k (cur + v))
        s.sp_costs)
    spans;
  Hashtbl.fold (fun k v acc -> if v <> 0 then (k, v) :: acc else acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let by_kind spans =
  let kinds =
    List.fold_left (fun acc s -> if List.mem s.sp_kind acc then acc else s.sp_kind :: acc) [] spans
  in
  List.rev_map
    (fun k ->
      let of_kind = List.filter (fun s -> String.equal s.sp_kind k) spans in
      (k, List.length of_kind, cost_total of_kind))
    kinds

let max_depth spans =
  let by_id = Hashtbl.create (List.length spans) in
  List.iter (fun s -> Hashtbl.replace by_id s.sp_id s) spans;
  let memo = Hashtbl.create (List.length spans) in
  let rec depth id =
    match Hashtbl.find_opt memo id with
    | Some d -> d
    | None ->
        let d =
          match Hashtbl.find_opt by_id id with
          | None -> 0
          | Some s -> (
              match s.sp_parent with
              | None -> 1
              | Some p -> 1 + depth p)
        in
        Hashtbl.replace memo id d;
        d
  in
  List.fold_left (fun acc s -> max acc (depth s.sp_id)) 0 spans

let actors spans =
  List.fold_left (fun acc s -> if List.mem s.sp_actor acc then acc else s.sp_actor :: acc) [] spans
  |> List.rev

(* ------------------------------------------------------------------ *)
(* Exporters                                                           *)

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let label s = if s.sp_name = "" then s.sp_kind else s.sp_kind ^ " " ^ s.sp_name

let add_args b s =
  Buffer.add_string b (Printf.sprintf {|"trace_id":"%s","span_id":"%s"|} s.sp_trace s.sp_id);
  (match s.sp_parent with
  | Some p -> Buffer.add_string b (Printf.sprintf {|,"parent_id":"%s"|} p)
  | None -> ());
  List.iter
    (fun (k, v) ->
      Buffer.add_string b (Printf.sprintf {|,"%s":"%s"|} (json_escape k) (json_escape v)))
    s.sp_attrs;
  List.iter
    (fun (k, v) -> Buffer.add_string b (Printf.sprintf {|,"cost.%s":%d|} (json_escape k) v))
    s.sp_costs

(* Chrome trace-event format ("X" complete events, microsecond ts/dur —
   matching the virtual clock's unit), loadable in chrome://tracing or
   https://ui.perfetto.dev. One tid per actor, named via "M" metadata. *)
let to_chrome_trace spans =
  let b = Buffer.create 4096 in
  Buffer.add_string b {|{"traceEvents":[|};
  let tids = Hashtbl.create 8 in
  let first = ref true in
  let sep () = if !first then first := false else Buffer.add_char b ',' in
  List.iter
    (fun a ->
      let tid = Hashtbl.length tids + 1 in
      Hashtbl.replace tids a tid;
      sep ();
      Buffer.add_string b
        (Printf.sprintf
           {|{"ph":"M","pid":1,"tid":%d,"name":"thread_name","args":{"name":"%s"}}|} tid
           (json_escape a)))
    (actors spans);
  List.iter
    (fun s ->
      let tid = Option.value (Hashtbl.find_opt tids s.sp_actor) ~default:0 in
      sep ();
      Buffer.add_string b
        (Printf.sprintf {|{"ph":"X","pid":1,"tid":%d,"ts":%d,"dur":%d,"name":"%s","cat":"%s","args":{|}
           tid s.sp_start
           (max 1 (s.sp_end - s.sp_start))
           (json_escape (label s)) (json_escape s.sp_kind));
      add_args b s;
      Buffer.add_string b "}}")
    spans;
  Buffer.add_string b {|],"displayTimeUnit":"ms"}|};
  Buffer.contents b

(* One span per line, fixed key order: byte-identical across same-seed runs. *)
let to_jsonl spans =
  let b = Buffer.create 4096 in
  List.iter
    (fun s ->
      Buffer.add_string b
        (Printf.sprintf {|{"trace":"%s","span":"%s","parent":%s,"actor":"%s","kind":"%s"|}
           s.sp_trace s.sp_id
           (match s.sp_parent with Some p -> Printf.sprintf {|"%s"|} p | None -> "null")
           (json_escape s.sp_actor) (json_escape s.sp_kind));
      if s.sp_name <> "" then
        Buffer.add_string b (Printf.sprintf {|,"name":"%s"|} (json_escape s.sp_name));
      Buffer.add_string b (Printf.sprintf {|,"start":%d,"end":%d|} s.sp_start s.sp_end);
      Buffer.add_string b {|,"attrs":{|};
      let first = ref true in
      List.iter
        (fun (k, v) ->
          if !first then first := false else Buffer.add_char b ',';
          Buffer.add_string b
            (Printf.sprintf {|"%s":"%s"|} (json_escape k) (json_escape v)))
        s.sp_attrs;
      Buffer.add_string b {|},"costs":{|};
      let first = ref true in
      List.iter
        (fun (k, v) ->
          if !first then first := false else Buffer.add_char b ',';
          Buffer.add_string b (Printf.sprintf {|"%s":%d|} (json_escape k) v))
        s.sp_costs;
      Buffer.add_string b "}}\n")
    spans;
  Buffer.contents b
