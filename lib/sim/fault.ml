type directive =
  | Drop of { p : float }
  | Duplicate of { p : float }
  | Jitter of { max_us : int }
  | Crash of { node : string; at : int; until : int option }
  | Partition of { a : string list; b : string list; at : int; until : int option }

type plan = { p_seed : string; p_directives : directive list }

let check_p p =
  if not (p >= 0. && p <= 1.) then invalid_arg "Fault: probability must be in [0,1]"

let check_directive = function
  | Drop { p } | Duplicate { p } -> check_p p
  | Jitter { max_us } -> if max_us < 0 then invalid_arg "Fault.jitter: negative"
  | Crash { at; until; _ } -> (
      match until with
      | Some u when u < at -> invalid_arg "Fault.crash: until before at"
      | _ -> ())
  | Partition { at; until; _ } -> (
      match until with
      | Some u when u < at -> invalid_arg "Fault.partition: until before at"
      | _ -> ())

let plan ~seed directives =
  List.iter check_directive directives;
  { p_seed = seed; p_directives = directives }

let drop p = Drop { p }
let duplicate p = Duplicate { p }
let jitter max_us = Jitter { max_us }
let crash node ~at ?until () = Crash { node; at; until }
let partition ~a ~b ~at ?until () = Partition { a; b; at; until }

type runtime = { rt_plan : plan; rt_drbg : Crypto.Drbg.t }

let runtime p = { rt_plan = p; rt_drbg = Crypto.Drbg.create ~seed:("fault:" ^ p.p_seed) }

let in_window ~now ~at ~until =
  now >= at && (match until with None -> true | Some u -> now < u)

let node_down rt ~now name =
  List.exists
    (function
      | Crash { node; at; until } -> node = name && in_window ~now ~at ~until
      | _ -> false)
    rt.rt_plan.p_directives

let partitioned rt ~now ~src ~dst =
  let across a b =
    (List.mem src a && List.mem dst b) || (List.mem src b && List.mem dst a)
  in
  List.exists
    (function
      | Partition { a; b; at; until } -> in_window ~now ~at ~until && across a b
      | _ -> false)
    rt.rt_plan.p_directives

(* One coin flip with probability [p], quantized to a millionth. Drawing
   through [uniform_int] keeps the DRBG byte stream identical across runs
   with the same plan and workload. *)
let flip rt p =
  p > 0. && Crypto.Drbg.uniform_int rt.rt_drbg 1_000_000 < int_of_float (p *. 1e6)

type outcome = { o_drop : bool; o_duplicate : bool; o_jitter_us : int }

let transit rt =
  List.fold_left
    (fun acc d ->
      match d with
      | Drop { p } ->
          let hit = flip rt p in
          { acc with o_drop = acc.o_drop || hit }
      | Duplicate { p } ->
          let hit = flip rt p in
          { acc with o_duplicate = acc.o_duplicate || hit }
      | Jitter { max_us } ->
          let extra = if max_us = 0 then 0 else Crypto.Drbg.uniform_int rt.rt_drbg (max_us + 1) in
          { acc with o_jitter_us = acc.o_jitter_us + extra }
      | _ -> acc)
    { o_drop = false; o_duplicate = false; o_jitter_us = 0 }
    rt.rt_plan.p_directives
