(* Each remembered success is an entry in one [Expiring] table, living
   [ttl_us] from when it was recorded: a signature or binding verdict, or
   an opened conventional link with what opening it gave. The table owns
   purging and eviction, and this module keeps the counts. *)

(* A verdict is found by its signature and holds what the signature was
   checked over and under. [decoded] is a public-key certificate a guard
   decoded whose signed bytes are [signed], with the wire value it came
   from: an equal wire value is that certificate again. A binding is
   found by the binding and holds what it binds: the server, the ticket
   digest and the verifying key. A link is found by its box's tag and
   holds the sealing key and the box, with what opening it gave. *)
type entry =
  | Verdict of {
      signed : string;
      signer : string;
      mutable decoded : (Wire.t * Proxy_cert.pk_cert) option;
    }
  | Binding of { server : Principal.t; ticket : string; key : string }
  | Link of { sealing_key : string; blob : string; body : Proxy_cert.body; proxy_key : string }

type t = {
  table : entry Expiring.t option;  (* [None]: capacity 0, caching off *)
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
let ttl_us = 3_600_000_000 (* matches Pki.Resolver's TTL *)

let create ?(capacity = default_capacity) ?(on_evict = ignore) ?(on_invalidate = ignore) () =
  if capacity < 0 then invalid_arg "Verify_cache.create: capacity must be non-negative";
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
  { table; on_invalidate; evictions; hits = 0; link_hits = 0; binding_hits = 0;
    misses = 0; invalidations = 0 }

(* A one-byte tag keeps the kinds of key apart: "S" and a signature, "B"
   and a binding, "L" and a sealed link's 16-byte Poly1305 tag. *)
let lookup t ~now k = match t.table with Some table -> Expiring.find table ~now k | None -> None

let remember t ~now k entry =
  match t.table with
  | Some table -> Expiring.add table ~now ~expires:(now + ttl_us) k entry
  | None -> ()

let count (t : t) ~binding hit =
  if hit then begin
    t.hits <- t.hits + 1;
    if binding then t.binding_hits <- t.binding_hits + 1
  end
  else t.misses <- t.misses + 1;
  hit

(* A signature, a binding or a tag is where to look, never a proof: the
   entry must hold the same bytes checked under the same key. *)
let check t ~now ~signed_bytes ~signature ~signer =
  count t ~binding:false
    (match lookup t ~now ("S" ^ signature) with
    | Some (Verdict v) -> String.equal v.signer signer && String.equal v.signed signed_bytes
    | Some (Binding _ | Link _) | None -> false)

let record t ~now ~signed_bytes ~signature ~signer =
  remember t ~now ("S" ^ signature) (Verdict { signed = signed_bytes; signer; decoded = None })

let check_binding t ~now ~server ~ticket ~binding ~key =
  count t ~binding:true
    (match lookup t ~now ("B" ^ binding) with
    | Some (Binding b) ->
        String.equal b.key key && String.equal b.ticket ticket && Principal.equal b.server server
    | Some (Verdict _ | Link _) | None -> false)

let record_binding t ~now ~server ~ticket ~binding ~key =
  remember t ~now ("B" ^ binding) (Binding { server; ticket; key })

(* The very certificate the entry decoded has the entry's signed bytes, so
   only the signer is compared; any other is re-encoded and compared. *)
let check_cert t ~now ~signer (cert : Proxy_cert.pk_cert) =
  count t ~binding:false
    (match lookup t ~now ("S" ^ cert.Proxy_cert.signature) with
    | Some (Verdict { decoded = Some (_, c); signer = s; _ }) when c == cert -> String.equal s signer
    | Some (Verdict v) ->
        String.equal v.signer signer && String.equal v.signed (Proxy_cert.pk_signed_bytes cert)
    | Some (Binding _ | Link _) | None -> false)

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
      | Some (Verdict _ | Binding _ | Link _) | None -> fresh ())
  | _ -> fresh ()

(* A box too short to carry a tag never opened, so it is not looked up. *)
let link_key blob = Crypto.Aead.tag ~prefix:"L" blob
let has_tag blob = String.length blob >= Crypto.Aead.overhead

let find_link t ~now ~sealing_key blob =
  match if has_tag blob then lookup t ~now (link_key blob) else None with
  | Some (Link l) when String.equal l.blob blob && String.equal l.sealing_key sealing_key ->
      t.hits <- t.hits + 1;
      t.link_hits <- t.link_hits + 1;
      Some (l.body, l.proxy_key)
  | Some (Verdict _ | Binding _ | Link _) | None ->
      t.misses <- t.misses + 1;
      None

let record_link t ~now ~sealing_key blob (body, proxy_key) =
  remember t ~now (link_key blob) (Link { sealing_key; blob; body; proxy_key })

(* The keys a walk of the chain from certificate [from] on, and its
   binding's check, would look up. *)
let forget t pres ~from ~binding =
  match t.table with
  | None -> ()
  | Some table ->
      let drop k = Expiring.remove table k in
      (match pres with
      | Proxy.Public_key certs ->
          List.iteri (fun i c -> if i >= from then drop ("S" ^ c.Proxy_cert.signature)) certs
      | Proxy.Hybrid (head, blobs) ->
          if from = 0 then drop ("S" ^ head.Proxy_cert.h_signature);
          List.iteri (fun i b -> if i + 1 >= from && has_tag b then drop (link_key b)) blobs
      | Proxy.Conventional _ -> ());
      Option.iter (fun b -> drop ("B" ^ b)) binding

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
