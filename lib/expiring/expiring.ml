(* Every entry sits in the Hashtbl, for lookups, and in a binary min-heap on
   (expiry, insertion seq), for "what expires first": expired entries are
   popped off the top and the eviction victim is the root. Each entry
   knows its heap slot, so any entry can be unlinked in O(log n). A heap
   array rather than a persistent set keeps the per-entry cost to one
   record and one slot, and allocates nothing per insert beyond them. *)

type 'v entry = {
  key : string;
  mutable value : 'v;
  mutable expires : int;
  seq : int;
  mutable tag : string option;
  mutable slot : int;
}

type 'v t = {
  entries : (string, 'v entry) Hashtbl.t;
  mutable heap : 'v entry array;  (* slots [0, size) hold the heap *)
  capacity : int;
  on_evict : unit -> unit;
  mutable next_seq : int;
}

let create ?(on_evict = ignore) ~capacity () =
  if capacity < 1 then invalid_arg "Expiring.create: capacity must be positive";
  { entries = Hashtbl.create 64; heap = [||]; capacity; on_evict; next_seq = 0 }

let size t = Hashtbl.length t.entries
let capacity t = t.capacity
let precedes a b = a.expires < b.expires || (a.expires = b.expires && a.seq < b.seq)

let put t i e =
  t.heap.(i) <- e;
  e.slot <- i

(* Fill hole [i] with [e], moving it toward the root or the leaves until
   the heap order holds again. *)
let rec sift_up t i e =
  let parent = (i - 1) / 2 in
  if i > 0 && precedes e t.heap.(parent) then begin
    put t i t.heap.(parent);
    sift_up t parent e
  end
  else put t i e

let rec sift_down t i e =
  let l = (2 * i) + 1 in
  let c = if l + 1 < size t && precedes t.heap.(l + 1) t.heap.(l) then l + 1 else l in
  if c < size t && precedes t.heap.(c) e then begin
    put t i t.heap.(c);
    sift_down t c e
  end
  else put t i e

let restore t e =
  sift_down t e.slot e;
  sift_up t e.slot e

let remove t e =
  Hashtbl.remove t.entries e.key;
  let n = size t in
  if n = 0 then t.heap <- [||]
  else begin
    let last = t.heap.(n) in
    if last != e then begin
      put t e.slot last;
      restore t last
    end;
    (* The vacated slot must not keep a removed entry alive. *)
    t.heap.(n) <- t.heap.(0)
  end

let insert t e =
  let n = size t in
  if n = Array.length t.heap then begin
    let grown = Array.make (min t.capacity (max 16 (2 * n))) e in
    Array.blit t.heap 0 grown 0 n;
    t.heap <- grown
  end;
  Hashtbl.replace t.entries e.key e;
  sift_up t n e

let find t ~now key =
  match Hashtbl.find_opt t.entries key with
  | Some e when e.expires > now -> Some e.value
  | Some e ->
      remove t e;
      None
  | None -> None

let mem t key = Hashtbl.mem t.entries key

let rec purge t ~now =
  if size t > 0 && t.heap.(0).expires <= now then begin
    remove t t.heap.(0);
    purge t ~now
  end

let add ?on_evict t ~now ~expires ?tag key value =
  purge t ~now;
  match Hashtbl.find_opt t.entries key with
  | Some e ->
      (* Still present after the purge, so live: the same logical entry,
         updated in place. *)
      e.value <- value;
      e.expires <- expires;
      e.tag <- tag;
      restore t e
  | None ->
      if size t >= t.capacity then begin
        remove t t.heap.(0);
        (Option.value on_evict ~default:t.on_evict) ()
      end;
      let seq = t.next_seq in
      t.next_seq <- seq + 1;
      insert t { key; value; expires; seq; tag; slot = 0 }

let shed t ~tag =
  let doomed =
    Hashtbl.fold (fun _ e acc -> if e.tag = Some tag then e :: acc else acc) t.entries []
  in
  List.iter (remove t) doomed;
  List.length doomed

let clear t =
  Hashtbl.reset t.entries;
  t.heap <- [||]
