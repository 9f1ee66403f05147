(* Each remembered success is an entry in one [Expiring] table, living
   [ttl_us] from when it was recorded: a signature or binding verdict, or
   an opened conventional link with what opening it gave. The table owns purging and
   eviction, and this module keeps the counts. *)

type entry = Verified | Link of Proxy_cert.body * string

type t = {
  table : entry Expiring.t option;  (* [None]: capacity 0, caching off *)
  ttl_us : int;
  on_invalidate : unit -> unit;
  evictions : int ref;  (* bumped by the table's eviction hook *)
  mutable hits : int;
  mutable link_hits : int;
  mutable binding_hits : int;
  mutable misses : int;
  mutable invalidations : int;
}

type stats = {
  hits : int;
  link_hits : int;
  binding_hits : int;
  misses : int;
  evictions : int;
  invalidations : int;
  size : int;
}

(* Room for every link and every binding of a server's working set: a
   chain presented over one ticket holds one entry per link plus one for
   its binding. *)
let default_capacity = 2048
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
  { table; ttl_us; on_invalidate; evictions; hits = 0; link_hits = 0; binding_hits = 0;
    misses = 0; invalidations = 0 }

(* Length-framed, so ("ab","c") and ("a","bc") cannot key the same entry;
   the leading tag keeps the kinds of key apart. *)
let frame s =
  let n = String.length s in
  String.init 4 (fun i -> Char.chr ((n lsr (8 * (3 - i))) land 0xff)) ^ s

let key ~signed_bytes ~signature ~signer =
  String.concat "" [ "S"; frame signed_bytes; frame signature; frame signer ]

let binding_key ~signed_bytes ~binding ~key =
  String.concat "" [ "B"; frame signed_bytes; frame binding; frame key ]

let link_key ~sealing_key blob = String.concat "" [ "L"; frame sealing_key; blob ]

let lookup t ~now k = match t.table with Some table -> Expiring.find table ~now k | None -> None

let remember t ~now k entry =
  match t.table with
  | Some table -> Expiring.add table ~now ~expires:(now + t.ttl_us) k entry
  | None -> ()

let check t ~now k =
  match lookup t ~now k with
  | Some Verified ->
      t.hits <- t.hits + 1;
      if k.[0] = 'B' then t.binding_hits <- t.binding_hits + 1;
      true
  | Some (Link _) | None ->
      t.misses <- t.misses + 1;
      false

let record t ~now k = remember t ~now k Verified

let find_link t ~now ~sealing_key blob =
  match lookup t ~now (link_key ~sealing_key blob) with
  | Some (Link (body, proxy_key)) ->
      t.hits <- t.hits + 1;
      t.link_hits <- t.link_hits + 1;
      Some (body, proxy_key)
  | Some Verified | None ->
      t.misses <- t.misses + 1;
      None

let record_link t ~now ~sealing_key blob (body, proxy_key) =
  remember t ~now (link_key ~sealing_key blob) (Link (body, proxy_key))

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
    link_hits = t.link_hits;
    binding_hits = t.binding_hits;
    misses = t.misses;
    evictions = !(t.evictions);
    invalidations = t.invalidations;
    size = size t;
  }
