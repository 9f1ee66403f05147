(* Each remembered success is an entry in one [Expiring] table, living
   [ttl_us] from when it was recorded: a signature or binding verdict, or
   an opened conventional link with what opening it gave. The table owns
   purging and eviction, and this module keeps the counts. *)

(* A verdict is found by its signature and holds what the signature was
   checked over and under. [decoded] is a public-key certificate a guard
   decoded whose signed bytes are [signed], with the wire value it came
   from: an equal wire value is that certificate again. *)
type entry =
  | Verdict of {
      signed : string;
      signer : string;
      mutable decoded : (Wire.t * Proxy_cert.pk_cert) option;
    }
  | Link of Proxy_cert.body * string

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

(* A one-byte tag keeps the kinds of key apart. A link's key is its
   sealing key, length-framed so that no other split of the same string
   names another (key, blob) pair, then the exact blob. *)
let frame s =
  let n = String.length s in
  String.init 4 (fun i -> Char.chr ((n lsr (8 * (3 - i))) land 0xff)) ^ s

let link_key ~sealing_key blob = String.concat "" [ "L"; frame sealing_key; blob ]

let lookup t ~now k = match t.table with Some table -> Expiring.find table ~now k | None -> None

let remember t ~now k entry =
  match t.table with
  | Some table -> Expiring.add table ~now ~expires:(now + t.ttl_us) k entry
  | None -> ()

let count (t : t) ~binding hit =
  if hit then begin
    t.hits <- t.hits + 1;
    if binding then t.binding_hits <- t.binding_hits + 1
  end
  else t.misses <- t.misses + 1;
  hit

(* A signature is where to look, never a proof: the entry must say the
   same signer checked the same bytes. *)
let holds ~signed_bytes ~signer = function
  | Some (Verdict v) -> String.equal v.signer signer && String.equal v.signed signed_bytes
  | Some (Link _) | None -> false

let check t ~now ~signed_bytes ~signature ~signer =
  count t ~binding:false (holds ~signed_bytes ~signer (lookup t ~now ("S" ^ signature)))

let record t ~now ~signed_bytes ~signature ~signer =
  remember t ~now ("S" ^ signature) (Verdict { signed = signed_bytes; signer; decoded = None })

let check_binding t ~now ~signed_bytes ~binding ~key =
  count t ~binding:true (holds ~signed_bytes ~signer:key (lookup t ~now ("B" ^ binding)))

let record_binding t ~now ~signed_bytes ~binding ~key =
  remember t ~now ("B" ^ binding) (Verdict { signed = signed_bytes; signer = key; decoded = None })

(* The very certificate the entry decoded has the entry's signed bytes, so
   only the signer is compared; any other is re-encoded and compared. *)
let check_cert t ~now ~signer (cert : Proxy_cert.pk_cert) =
  count t ~binding:false
    (match lookup t ~now ("S" ^ cert.Proxy_cert.signature) with
    | Some (Verdict { decoded = Some (_, c); signer = s; _ }) when c == cert -> String.equal s signer
    | Some (Verdict v) ->
        String.equal v.signer signer && String.equal v.signed (Proxy_cert.pk_signed_bytes cert)
    | Some (Link _) | None -> false)

let decode_cert t ~now w =
  let fresh () = Proxy_cert.pk_cert_of_wire w in
  match w with
  | Wire.L [ _; _; _; Wire.S signature ] -> (
      match lookup t ~now ("S" ^ signature) with
      | Some (Verdict { decoded = Some (w', c); _ }) when Wire.equal w' w -> Ok c
      | Some (Verdict ({ decoded = None; _ } as v)) ->
          let r = fresh () in
          (match r with
          | Ok c when String.equal v.signed (Proxy_cert.pk_signed_bytes c) ->
              v.decoded <- Some (w, c)
          | Ok _ | Error _ -> ());
          r
      | Some (Verdict _ | Link _) | None -> fresh ())
  | _ -> fresh ()

let find_link t ~now ~sealing_key blob =
  match lookup t ~now (link_key ~sealing_key blob) with
  | Some (Link (body, proxy_key)) ->
      t.hits <- t.hits + 1;
      t.link_hits <- t.link_hits + 1;
      Some (body, proxy_key)
  | Some (Verdict _) | None ->
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
