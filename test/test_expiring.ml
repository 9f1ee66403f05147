(* Expiring against a naive reference: random op sequences over small
   capacities, few keys and many equal expiries, compared after every op. *)

(* The reference keeps the fold-based purge and soonest-(expiry, seq)
   eviction that the accept-once cache, the sequence tracker and the
   Secure_rpc response cache each carried before they shared Expiring,
   arranged into the same add rule, plus a floor per tag: the greatest
   expiry a live entry under that tag was evicted with. It keeps every
   floor it ever raised; Expiring sweeps those [now] has passed, which no
   lookup can tell apart. *)
module Oracle = struct
  type t = {
    entries : (string, int * int * int * string option) Hashtbl.t;
        (* key -> (value, expiry, insertion seq, tag) *)
    capacity : int;
    mutable next_seq : int;
    mutable evictions : int;
    mutable floors : (string option * int) list;
  }

  let create ~capacity =
    { entries = Hashtbl.create 8; capacity; next_seq = 0; evictions = 0; floors = [] }

  let find t ~now key =
    match Hashtbl.find_opt t.entries key with
    | None -> None
    | Some (v, expires, _, _) ->
        if expires > now then Some v
        else begin
          Hashtbl.remove t.entries key;
          None
        end

  let purge t ~now =
    let stale =
      Hashtbl.fold
        (fun key (_, expires, _, _) acc -> if expires <= now then key :: acc else acc)
        t.entries []
    in
    List.iter (Hashtbl.remove t.entries) stale

  let evict_soonest t =
    match
      Hashtbl.fold
        (fun key (_, expires, seq, _) best ->
          match best with
          | Some (_, e, s) when (e, s) <= (expires, seq) -> best
          | _ -> Some (key, expires, seq))
        t.entries None
    with
    | None -> ()
    | Some (key, expires, _) ->
        let _, _, _, tag = Hashtbl.find t.entries key in
        Hashtbl.remove t.entries key;
        t.evictions <- t.evictions + 1;
        let floor = Option.value (List.assoc_opt tag t.floors) ~default:expires in
        t.floors <- (tag, max expires floor) :: List.remove_assoc tag t.floors

  let lookup t ~now ~expires ?tag key =
    match find t ~now key with
    | Some v -> Expiring.Live v
    | None -> (
        match List.assoc_opt tag t.floors with
        | Some floor when now < expires && expires <= floor -> Expiring.Forgotten
        | Some _ | None -> Expiring.Absent)

  let add t ~now ~expires ?tag key v =
    purge t ~now;
    match Hashtbl.find_opt t.entries key with
    | Some (_, _, seq, _) -> Hashtbl.replace t.entries key (v, expires, seq, tag)
    | None ->
        if Hashtbl.length t.entries >= t.capacity then evict_soonest t;
        Hashtbl.replace t.entries key (v, expires, t.next_seq, tag);
        t.next_seq <- t.next_seq + 1

  let shed t ~tag =
    let doomed =
      Hashtbl.fold
        (fun key (_, _, _, tg) acc -> if tg = Some tag then key :: acc else acc)
        t.entries []
    in
    List.iter (Hashtbl.remove t.entries) doomed;
    List.length doomed

  let clear t =
    Hashtbl.reset t.entries;
    t.floors <- []
  let size t = Hashtbl.length t.entries
end

type op =
  | Add of { key : int; ttl : int; tag : int option; value : int }
  | Find of int
  | Lookup of { key : int; ttl : int; tag : int option }
  | Tick of int  (** advance [now] *)
  | Shed of int
  | Purge
  | Clear

let show_op = function
  | Add { key; ttl; tag; value } ->
      Printf.sprintf "add k%d ttl=%d tag=%s v=%d" key ttl
        (match tag with Some g -> "g" ^ string_of_int g | None -> "-")
        value
  | Find k -> Printf.sprintf "find k%d" k
  | Lookup { key; ttl; tag } ->
      Printf.sprintf "lookup k%d ttl=%d tag=%s" key ttl
        (match tag with Some g -> "g" ^ string_of_int g | None -> "-")
  | Tick d -> Printf.sprintf "tick %d" d
  | Shed g -> Printf.sprintf "shed g%d" g
  | Purge -> "purge"
  | Clear -> "clear"

(* Ten keys over capacities 1–8 keep adds hitting live keys; TTLs of 0–4
   ticks make equal expiries (and already-expired adds) common. *)
let gen_op =
  QCheck.Gen.(
    frequency
      [ ( 6,
          map4
            (fun key ttl tag value -> Add { key; ttl; tag; value })
            (int_bound 9) (int_bound 4) (opt (int_bound 2)) (int_bound 99) );
        (4, map (fun k -> Find k) (int_bound 9));
        ( 4,
          map3
            (fun key ttl tag -> Lookup { key; ttl; tag })
            (int_bound 9) (int_bound 4) (opt (int_bound 2)) );
        (3, map (fun d -> Tick d) (int_bound 2));
        (1, map (fun g -> Shed g) (int_bound 2));
        (1, return Purge);
        (1, return Clear) ])

let arb_case =
  QCheck.make
    ~print:(fun (capacity, ops) ->
      Printf.sprintf "capacity=%d: %s" capacity (String.concat "; " (List.map show_op ops)))
    QCheck.Gen.(pair (int_range 1 8) (list_size (int_range 1 80) gen_op))

let prop_matches_oracle =
  QCheck.Test.make ~name:"Expiring agrees with the fold-based reference" ~count:1000 arb_case
    (fun (capacity, ops) ->
      let evictions = ref 0 in
      let t = Expiring.create ~on_evict:(fun () -> incr evictions) ~capacity () in
      let o = Oracle.create ~capacity in
      let now = ref 0 in
      let key k = "k" ^ string_of_int k and tag g = "g" ^ string_of_int g in
      List.for_all
        (fun op ->
          let same_result =
            match op with
            | Add { key = k; ttl; tag = g; value } ->
                let tag = Option.map tag g in
                Expiring.add t ~now:!now ~expires:(!now + ttl) ?tag (key k) value;
                Oracle.add o ~now:!now ~expires:(!now + ttl) ?tag (key k) value;
                true
            | Find k -> Expiring.find t ~now:!now (key k) = Oracle.find o ~now:!now (key k)
            | Lookup { key = k; ttl; tag = g } ->
                let expires = !now + ttl and tag = Option.map tag g in
                Expiring.lookup t ~now:!now ~expires ?tag (key k)
                = Oracle.lookup o ~now:!now ~expires ?tag (key k)
            | Tick d ->
                now := !now + d;
                true
            | Shed g -> Expiring.shed t ~tag:(tag g) = Oracle.shed o ~tag:(tag g)
            | Purge ->
                Expiring.purge t ~now:!now;
                Oracle.purge o ~now:!now;
                true
            | Clear ->
                Expiring.clear t;
                Oracle.clear o;
                true
          in
          same_result
          && Expiring.size t = Oracle.size o
          && !evictions = o.Oracle.evictions
          && Expiring.size t <= capacity)
        ops)

(* Not reachable from the reference: a response cache counts only the
   evictions its served traffic causes, so one insertion may carry its own
   hook. *)
let test_per_call_hook () =
  let table_hook = ref 0 and call_hook = ref 0 in
  let t = Expiring.create ~on_evict:(fun () -> incr table_hook) ~capacity:1 () in
  Expiring.add t ~now:0 ~expires:100 "a" ();
  Expiring.add ~on_evict:(fun () -> incr call_hook) t ~now:0 ~expires:100 "b" ();
  Alcotest.(check (pair int int)) "only the per-call hook fired" (0, 1) (!table_hook, !call_hook)

let () =
  Alcotest.run "expiring"
    [ ("rule", [ ("per-call eviction hook", `Quick, test_per_call_hook) ]);
      ("properties", List.map QCheck_alcotest.to_alcotest [ prop_matches_oracle ]) ]
