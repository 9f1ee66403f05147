type entry = { time : int; actor : string; event : string }
type t = { mutable rev_entries : entry list }

let create () = { rev_entries = [] }
let record t ~time ~actor event = t.rev_entries <- { time; actor; event } :: t.rev_entries
let entries t = List.rev t.rev_entries

(* The scan lives in [Span] now (iterative — the old recursive version
   overflowed the stack on multi-hundred-KB events). *)
let contains_substring hay needle = Span.contains_substring ~needle hay

let find t ~actor ~substring =
  List.find_opt (fun e -> e.actor = actor && contains_substring e.event substring) (entries t)

let pp_entry fmt e = Format.fprintf fmt "[%8dus] %-20s %s" e.time e.actor e.event
