(* A successful verification is a [unit] entry in one [Expiring] table,
   living [ttl_us] from when it was recorded; the table owns purging and
   eviction, and this module keeps the counts. *)

type t = {
  table : unit Expiring.t option;  (* [None]: capacity 0, caching off *)
  ttl_us : int;
  on_invalidate : unit -> unit;
  evictions : int ref;  (* bumped by the table's eviction hook *)
  mutable hits : int;
  mutable misses : int;
  mutable invalidations : int;
}

type stats = { hits : int; misses : int; evictions : int; invalidations : int; size : int }

let default_capacity = 1024
let default_ttl_us = 3_600_000_000 (* matches Pki.Resolver's default TTL *)

let create ?(capacity = default_capacity) ?(ttl_us = default_ttl_us) ?(on_evict = ignore)
    ?(on_invalidate = ignore) () =
  if capacity < 0 then invalid_arg "Verify_cache.create: capacity must be non-negative";
  if ttl_us < 1 then invalid_arg "Verify_cache.create: ttl must be positive";
  let evictions = ref 0 in
  let table =
    if capacity = 0 then None
    else
      Some
        (Expiring.create ~capacity
           ~on_evict:(fun () ->
             incr evictions;
             on_evict ())
           ())
  in
  { table; ttl_us; on_invalidate; evictions; hits = 0; misses = 0; invalidations = 0 }

(* Length-framed concatenation, so ("ab","c") and ("a","bc") cannot key the
   same entry. *)
let key ~signed_bytes ~signature ~signer =
  let frame s =
    let n = String.length s in
    String.init 4 (fun i -> Char.chr ((n lsr (8 * (3 - i))) land 0xff)) ^ s
  in
  Crypto.Sha256.digest (frame signed_bytes ^ frame signature ^ frame signer)

let check t ~now k =
  match t.table with
  | Some table when Option.is_some (Expiring.find table ~now k) ->
      t.hits <- t.hits + 1;
      true
  | Some _ | None ->
      t.misses <- t.misses + 1;
      false

let record t ~now k =
  match t.table with
  | Some table -> Expiring.add table ~now ~expires:(now + t.ttl_us) k ()
  | None -> ()

let size t = match t.table with Some table -> Expiring.size table | None -> 0

(* A revocation, unlike TTL expiry (a freshness bound) or eviction (a space
   bound), is a correctness event: the memoized verdicts are no longer
   trusted. Each dropped entry counts as an invalidation, so a storm of
   bumps is observable. *)
let bump_generation t =
  let n = size t in
  Option.iter Expiring.clear t.table;
  t.invalidations <- t.invalidations + n;
  for _ = 1 to n do
    t.on_invalidate ()
  done;
  n

let stats (t : t) =
  {
    hits = t.hits;
    misses = t.misses;
    evictions = !(t.evictions);
    invalidations = t.invalidations;
    size = size t;
  }
