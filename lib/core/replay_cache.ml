(* Record-if-absent over {!Expiring}: capacity pressure drops the
   identifier whose replay window closes soonest — forgetting it early
   reopens the smallest window. *)
type t = unit Expiring.t

let create ?(capacity = 1 lsl 17) ?on_evict () =
  if capacity < 1 then invalid_arg "Replay_cache.create: capacity must be positive";
  Expiring.create ?on_evict ~capacity ()

let seen t ~now id = Option.is_some (Expiring.find t ~now id)

let record t ~now ~expires ?tag id =
  if seen t ~now id then Error (Printf.sprintf "accept-once identifier %S already recorded" id)
  else Ok (Expiring.add t ~now ~expires ?tag id ())

(* Revocation cleanup: a bulletin that kills a grantor makes every
   accept-once identifier recorded under that grantor's authority moot —
   the credential that carried it can no longer verify, so keeping the
   record only burns capacity and, worse, collides with a legitimately
   re-issued credential that reuses the identifier (a re-drawn check
   number). *)
let shed = Expiring.shed
let size = Expiring.size
let capacity = Expiring.capacity
let purge = Expiring.purge
