(* Consistent-hash ring over shard identifiers.

   Each shard contributes [vnodes] points at SHA-256("id#k"); a key maps to
   the shard owning the first point at or clockwise after SHA-256(key). The
   hash is over raw digest bytes, so placement is independent of shard
   naming conventions, and adding a shard moves only the keys that fall
   between its new points and their predecessors — no global reshuffle. *)

type t = {
  points : (string * string) array;  (* (digest, shard id), sorted by digest *)
  shards : string list;
}

let point id k = Crypto.Sha256.digest (id ^ "#" ^ string_of_int k)

(* Virtual points per shard: enough to smooth the key distribution. *)
let vnodes = 32

let create shards =
  if shards = [] then invalid_arg "Ring.create: no shards";
  let shards = List.sort_uniq String.compare shards in
  let points =
    List.concat_map (fun id -> List.init vnodes (fun k -> (point id k, id))) shards
    |> Array.of_list
  in
  Array.sort (fun (a, _) (b, _) -> String.compare a b) points;
  { points; shards }

let lookup t key =
  let h = Crypto.Sha256.digest key in
  let n = Array.length t.points in
  (* First point with digest >= h; past the last point wraps to the first. *)
  let rec search lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if String.compare (fst t.points.(mid)) h < 0 then search (mid + 1) hi
      else search lo mid
  in
  let i = search 0 n in
  snd t.points.(if i = n then 0 else i)

let spread t keys =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun k ->
      let s = lookup t k in
      Hashtbl.replace tbl s (1 + Option.value (Hashtbl.find_opt tbl s) ~default:0))
    keys;
  List.map (fun s -> (s, Option.value (Hashtbl.find_opt tbl s) ~default:0)) t.shards
