type dist = { count : int; sum : int; max : int }

(* Counter names are strings: one [String.equal] per probe, not a
   polymorphic compare. [Hashtbl.hash] keeps the generic table's buckets,
   so every fold visits the names in the same order as before. *)
module Names = Hashtbl.Make (struct
  type t = string

  let equal = String.equal
  let hash = Hashtbl.hash
end)

type t = {
  counters : int ref Names.t;
  dists : dist ref Names.t;
  mutable owner : int;
      (* Domain id allowed to mutate, or -1 for unguarded. Lane schedulers
         pin this to the executing domain for the duration of an epoch so
         any cross-lane write — a shared-counter bug that would silently
         lose increments under parallelism — crashes instead. *)
}

let create () = { counters = Names.create 32; dists = Names.create 8; owner = -1 }

let self_id () = (Domain.self () :> int)

let guard_here t = t.owner <- self_id ()
let unguard t = t.owner <- -1

let check_owner t =
  if t.owner >= 0 && t.owner <> self_id () then
    failwith "Sim.Metrics: cross-domain write (counter mutated outside its owning lane)"

(* One lookup per increment, allocating nothing: a new name starts at [n]. *)
let bump t name n =
  match Names.find t.counters name with
  | r -> r := !r + n
  | exception Not_found -> Names.add t.counters name (ref n)

let add t name n =
  check_owner t;
  bump t name n

let incr t name = add t name 1
let get t name = match Names.find_opt t.counters name with Some r -> !r | None -> 0

let observe t name v =
  check_owner t;
  match Names.find_opt t.dists name with
  | Some r -> r := { count = !r.count + 1; sum = !r.sum + v; max = max !r.max v }
  | None -> Names.add t.dists name (ref { count = 1; sum = v; max = v })

let dist t name = Option.map ( ! ) (Names.find_opt t.dists name)

let mean d = if d.count = 0 then 0. else float_of_int d.sum /. float_of_int d.count

let sorted l = List.sort (fun (a, _) (b, _) -> String.compare a b) l

(* Snapshots keep zero-valued counters: a counter that was live in
   [before] and is 0 in [after] must still show up in [diff]. *)
let snapshot t = Names.fold (fun k r acc -> (k, !r) :: acc) t.counters [] |> sorted

(* Hashtable-backed: per-span delta snapshotting calls this thousands of
   times per run, and the old [List.assoc_opt]-per-key version was O(n²). *)
let diff ~before ~after =
  let acc = Names.create (List.length after + 8) in
  List.iter (fun (k, v) -> Names.replace acc k v) after;
  List.iter
    (fun (k, v) ->
      let cur = Option.value (Names.find_opt acc k) ~default:0 in
      Names.replace acc k (cur - v))
    before;
  Names.fold (fun k d l -> if d <> 0 then (k, d) :: l else l) acc [] |> sorted

(* Lane-merge: fold [src] into [into] in canonical (sorted) key order,
   summing shared keys — the right semantics for per-lane counters of the
   same global quantity ("net.messages" across lanes). *)
let merge_into ~into src =
  check_owner into;
  List.iter (fun (k, v) -> bump into k v) (snapshot src);
  List.iter
    (fun (k, d) ->
      match Names.find_opt into.dists k with
      | Some r ->
          r := { count = !r.count + d.count; sum = !r.sum + d.sum; max = max !r.max d.max }
      | None -> Names.add into.dists k (ref d))
    (Names.fold (fun k r acc -> (k, !r) :: acc) src.dists [] |> sorted)
