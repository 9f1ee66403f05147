(* Max-monotone progress over {!Expiring}: losing an entry to capacity
   pressure resets that sequence to its first step, which only ever
   narrows what the proxy can do. *)
type t = int Expiring.t

let create ?(capacity = 1 lsl 17) ?on_evict () =
  if capacity < 1 then invalid_arg "Seq_tracker.create: capacity must be positive";
  Expiring.create ?on_evict ~capacity ()

let progress t ~now key = Option.value (Expiring.find t ~now key) ~default:0

(* Progress is max-monotone: concurrent advancement, replicated imports and
   retransmitted forwards can only move a sequence forward, never rewind
   it — rewinding would re-open already-consumed steps. Re-advancing a
   live key updates it in place (it is the same logical sequence, not a
   fresh one). *)
let set_progress t ~now ~expires ?tag key k =
  if k > progress t ~now key then Expiring.add t ~now ~expires ?tag key k

let advance t ~now ~expires ?tag key =
  let k = progress t ~now key + 1 in
  set_progress t ~now ~expires ?tag key k;
  k

(* Revocation cleanup, same contract as {!Replay_cache.shed}: a fresh
   post-revocation grant must start its sequence from the first step. *)
let shed = Expiring.shed
let clear = Expiring.clear
let size = Expiring.size
let capacity = Expiring.capacity
let purge = Expiring.purge
