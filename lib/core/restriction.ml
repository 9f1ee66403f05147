type currency = string

type authorized_entry = { target : string; ops : string list }

type seq_step = {
  step_op : string;
  step_server : Principal.t option;
  step_target : string option;
}

type t =
  | Grantee of Principal.t list * int
  | For_use_by_group of Principal.Group.t list * int
  | Issued_for of Principal.t list
  | Quota of currency * int
  | Authorized of authorized_entry list
  | Group_membership of string list
  | Accept_once of string
  | Sequence of seq_step list
  | Limit_restriction of Principal.t list * t list
  | Unknown of string

let seq_step_equal a b =
  a.step_op = b.step_op
  && Option.equal Principal.equal a.step_server b.step_server
  && Option.equal String.equal a.step_target b.step_target

(* A usable sequence is non-empty with pairwise-distinct steps: duplicate
   steps would make "which step just ran" ambiguous, so both the decoder
   and the checker refuse them (fail closed). *)
let seq_validate steps =
  if steps = [] then Error "sequence: empty step list"
  else
    let rec dup = function
      | [] -> false
      | st :: rest -> List.exists (seq_step_equal st) rest || dup rest
    in
    if dup steps then Error "sequence: duplicate step" else Ok ()

let rec equal a b =
  match (a, b) with
  | Grantee (ps, q), Grantee (ps', q') ->
      q = q' && List.length ps = List.length ps' && List.for_all2 Principal.equal ps ps'
  | For_use_by_group (gs, q), For_use_by_group (gs', q') ->
      q = q' && List.length gs = List.length gs' && List.for_all2 Principal.Group.equal gs gs'
  | Issued_for ss, Issued_for ss' ->
      List.length ss = List.length ss' && List.for_all2 Principal.equal ss ss'
  | Quota (c, n), Quota (c', n') -> c = c' && n = n'
  | Authorized es, Authorized es' -> es = es'
  | Group_membership gs, Group_membership gs' -> gs = gs'
  | Accept_once id, Accept_once id' -> id = id'
  | Sequence steps, Sequence steps' ->
      List.length steps = List.length steps' && List.for_all2 seq_step_equal steps steps'
  | Limit_restriction (ss, rs), Limit_restriction (ss', rs') ->
      List.length ss = List.length ss'
      && List.for_all2 Principal.equal ss ss'
      && List.length rs = List.length rs'
      && List.for_all2 equal rs rs'
  | Unknown tag, Unknown tag' -> tag = tag'
  | ( ( Grantee _ | For_use_by_group _ | Issued_for _ | Quota _ | Authorized _
      | Group_membership _ | Accept_once _ | Sequence _ | Limit_restriction _ | Unknown _ ),
      _ ) ->
      false

let pp_seq_step fmt st =
  Format.fprintf fmt "%s%s%s" st.step_op
    (match st.step_server with
    | None -> ""
    | Some s -> "@" ^ Principal.to_string s)
    (match st.step_target with None -> "" | Some tg -> "/" ^ tg)

let rec pp fmt = function
  | Grantee (ps, q) ->
      Format.fprintf fmt "grantee(%d of [%s])" q
        (String.concat "; " (List.map Principal.to_string ps))
  | For_use_by_group (gs, q) ->
      Format.fprintf fmt "for-use-by-group(%d of [%s])" q
        (String.concat "; " (List.map Principal.Group.to_string gs))
  | Issued_for ss ->
      Format.fprintf fmt "issued-for[%s]" (String.concat "; " (List.map Principal.to_string ss))
  | Quota (c, n) -> Format.fprintf fmt "quota(%s, %d)" c n
  | Authorized es ->
      let entry e =
        if e.ops = [] then e.target else e.target ^ ":" ^ String.concat "," e.ops
      in
      Format.fprintf fmt "authorized[%s]" (String.concat "; " (List.map entry es))
  | Group_membership gs -> Format.fprintf fmt "group-membership[%s]" (String.concat "; " gs)
  | Accept_once id -> Format.fprintf fmt "accept-once(%s)" id
  | Sequence steps ->
      Format.fprintf fmt "sequence[%a]"
        (Format.pp_print_list ~pp_sep:(fun f () -> Format.fprintf f " -> ") pp_seq_step)
        steps
  | Limit_restriction (ss, rs) ->
      Format.fprintf fmt "limit-restriction([%s], [%a])"
        (String.concat "; " (List.map Principal.to_string ss))
        (Format.pp_print_list ~pp_sep:(fun f () -> Format.fprintf f ";@ ") pp)
        rs
  | Unknown tag -> Format.fprintf fmt "unknown(%s)" tag

let rec to_wire = function
  | Grantee (ps, q) ->
      Wire.L [ Wire.S "grantee"; Wire.L (List.map Principal.to_wire ps); Wire.I q ]
  | For_use_by_group (gs, q) ->
      Wire.L
        [ Wire.S "for-use-by-group"; Wire.L (List.map Principal.Group.to_wire gs); Wire.I q ]
  | Issued_for ss -> Wire.L [ Wire.S "issued-for"; Wire.L (List.map Principal.to_wire ss) ]
  | Quota (c, n) -> Wire.L [ Wire.S "quota"; Wire.S c; Wire.I n ]
  | Authorized es ->
      let entry e = Wire.L [ Wire.S e.target; Wire.L (List.map (fun o -> Wire.S o) e.ops) ] in
      Wire.L [ Wire.S "authorized"; Wire.L (List.map entry es) ]
  | Group_membership gs ->
      Wire.L [ Wire.S "group-membership"; Wire.L (List.map (fun g -> Wire.S g) gs) ]
  | Accept_once id -> Wire.L [ Wire.S "accept-once"; Wire.S id ]
  | Sequence steps ->
      let step st =
        Wire.L
          [ Wire.S st.step_op;
            Wire.L (match st.step_server with None -> [] | Some s -> [ Principal.to_wire s ]);
            Wire.L (match st.step_target with None -> [] | Some tg -> [ Wire.S tg ]) ]
      in
      Wire.L [ Wire.S "sequence"; Wire.L (List.map step steps) ]
  | Limit_restriction (ss, rs) ->
      Wire.L
        [ Wire.S "limit-restriction";
          Wire.L (List.map Principal.to_wire ss);
          Wire.L (List.map to_wire rs) ]
  | Unknown tag -> Wire.L [ Wire.S tag ]

let rec of_wire v =
  let open Wire in
  match v with
  | L [ S "grantee"; L ps; I q ] ->
      let* ps = map_all Principal.of_wire ps in
      if q < 1 then Error "grantee: quorum must be at least 1" else Ok (Grantee (ps, q))
  | L [ S "for-use-by-group"; L gs; I q ] ->
      let* gs = map_all Principal.Group.of_wire gs in
      if q < 1 then Error "for-use-by-group: quorum must be at least 1"
      else Ok (For_use_by_group (gs, q))
  | L [ S "issued-for"; L ss ] ->
      let* ss = map_all Principal.of_wire ss in
      Ok (Issued_for ss)
  | L [ S "quota"; S c; I n ] -> if n < 0 then Error "quota: negative limit" else Ok (Quota (c, n))
  | L [ S "authorized"; L es ] ->
      let entry = function
        | L [ S target; L ops ] ->
            let* ops = map_all to_string ops in
            Ok { target; ops }
        | _ -> Error "authorized: malformed entry"
      in
      let* es = map_all entry es in
      Ok (Authorized es)
  | L [ S "group-membership"; L gs ] ->
      let* gs = map_all to_string gs in
      if List.mem "" gs then Error "group-membership: empty group name"
      else Ok (Group_membership gs)
  | L [ S "accept-once"; S id ] -> Ok (Accept_once id)
  | L [ S "sequence"; L steps ] ->
      let step = function
        | L [ S step_op; L ([] | [ _ ] as sv); L ([] | [ S _ ] as tv) ] ->
            let* step_server =
              match sv with
              | [ p ] -> Result.map Option.some (Principal.of_wire p)
              | _ -> Ok None
            in
            let step_target = match tv with [ S tg ] -> Some tg | _ -> None in
            Ok { step_op; step_server; step_target }
        | _ -> Error "sequence: malformed step"
      in
      let* steps = map_all step steps in
      let* () = seq_validate steps in
      Ok (Sequence steps)
  | L [ S "limit-restriction"; L ss; L rs ] ->
      let* ss = map_all Principal.of_wire ss in
      let* rs = map_all of_wire rs in
      Ok (Limit_restriction (ss, rs))
  | L
      (S
         (( "grantee" | "for-use-by-group" | "issued-for" | "quota" | "authorized"
          | "group-membership" | "accept-once" | "sequence" | "limit-restriction" ) as tag)
      :: _) ->
      Error (tag ^ ": malformed")
  | L (S other :: _) -> Ok (Unknown other)
  | _ -> Error "restriction: malformed"

let list_to_wire rs = Wire.L (List.map to_wire rs)
let list_of_wire v = Result.bind (Wire.to_list v) (Wire.map_all of_wire)

type request = {
  server : Principal.t;
  time : int;
  operation : string;
  target : string;
  presenters : Principal.t list;
  groups_asserted : Principal.Group.t list;
  spend : (currency * int) option;
}

let request ~server ~time ~operation ?(target = "") ?(presenters = []) ?(groups_asserted = [])
    ?spend () =
  { server; time; operation; target; presenters; groups_asserted; spend }

let assert_membership = "assert-membership"
let membership_right = "member"

let membership ~group ~member =
  [ Authorized [ { target = group; ops = [ assert_membership; membership_right ] } ];
    Group_membership [ group ];
    Grantee ([ member ], 1) ]

let claimed_groups rs =
  List.fold_left
    (fun acc g -> if g = "" || List.mem g acc then acc else acc @ [ g ])
    []
    (List.concat_map (function Group_membership gs -> gs | _ -> []) rs)

type stateful = Once of string | Steps of seq_step list

let no_state = function
  | Once id -> Error (Printf.sprintf "accept-once: %s cannot be recorded here" id)
  | Steps _ -> Error "sequence: progress cannot be recorded here"

(* The canonical form of a sequence is its own wire encoding: two sequences
   share progress state iff their encodings are byte-identical. *)
let seq_canonical steps = Wire.encode (to_wire (Sequence steps))

(* Progress-tracker key: the canonical sequence scoped under the presented
   chain's head serial (wire-framed, so binary serials cannot collide with a
   crafted canonical form). Keyed like accept-once state: revoking the
   grantor sheds it, and two chains derived from one grant share progress. *)
let seq_key ~head canon = Wire.encode (Wire.L [ Wire.S head; Wire.S canon ])

let seq_key_parse key =
  let open Wire in
  let* v = decode key in
  match v with
  | L [ S head; S canon ] -> (
      let* cv = decode canon in
      let* r = of_wire cv in
      match r with
      | Sequence steps -> Ok (head, steps)
      | _ -> Error "sequence key does not carry a sequence restriction")
  | _ -> Error "sequence key: malformed"

let tighten_sequence ~keep steps =
  let keep = max 1 (min keep (List.length steps)) in
  List.filteri (fun i _ -> i < keep) steps

let seq_next steps ~done_:k req =
  let len = List.length steps in
  if k >= len then Error (Printf.sprintf "sequence: all %d steps already consumed" len)
  else
    let st = List.nth steps k in
    if st.step_op <> req.operation then
      Error (Printf.sprintf "sequence: step %d permits %s, not %s" k st.step_op req.operation)
    else if
      match st.step_server with Some s -> not (Principal.equal s req.server) | None -> false
    then
      Error
        (Printf.sprintf "sequence: step %d is not for server %s" k
           (Principal.to_string req.server))
    else if match st.step_target with Some tg -> tg <> req.target | None -> false then
      Error (Printf.sprintf "sequence: step %d is not for target %S" k req.target)
    else Ok ()

(* One pass over the list, in order, first refusal wins. A limit naming
   this server splices its restrictions in where it stands, so a stateful
   restriction reaches [held] wherever it binds, at any depth. *)
let check_all ~held rs req =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | Grantee (ps, q) :: rest ->
        let present = List.filter (fun p -> List.exists (Principal.equal p) req.presenters) ps in
        if List.length present >= q then go acc rest
        else
          Error
            (Printf.sprintf "grantee: %d of the named principals present, %d required"
               (List.length present) q)
    | For_use_by_group (gs, q) :: rest ->
        let asserted =
          List.filter (fun g -> List.exists (Principal.Group.equal g) req.groups_asserted) gs
        in
        if List.length asserted >= q then go acc rest
        else
          Error
            (Printf.sprintf "for-use-by-group: %d of the named groups asserted, %d required"
               (List.length asserted) q)
    | Issued_for ss :: rest ->
        if List.exists (Principal.equal req.server) ss then go acc rest
        else
          Error
            (Printf.sprintf "issued-for: %s may not accept this proxy"
               (Principal.to_string req.server))
    | Quota (c, limit) :: rest -> (
        match req.spend with
        | Some (c', amount) when c = c' && amount > limit ->
            Error (Printf.sprintf "quota: %d %s exceeds limit %d" amount c limit)
        | Some _ | None -> go acc rest)
    | Authorized entries :: rest ->
        let permits (e : authorized_entry) =
          e.target = req.target && (e.ops = [] || List.mem req.operation e.ops)
        in
        if List.exists permits entries then go acc rest
        else
          Error
            (Printf.sprintf "authorized: %s on %S not in the authorized list" req.operation
               req.target)
    | Group_membership gs :: rest ->
        if req.operation <> assert_membership || List.mem req.target gs then go acc rest
        else Error (Printf.sprintf "group-membership: %s not covered" req.target)
    | Accept_once id :: rest -> decided acc rest (held (Once id))
    | Sequence steps :: rest -> (
        match seq_validate steps with
        | Error _ as e -> e
        | Ok () -> decided acc rest (held (Steps steps)))
    | Limit_restriction (ss, inner) :: rest ->
        go acc (if List.exists (Principal.equal req.server) ss then inner @ rest else rest)
    | Unknown tag :: _ -> Error (Printf.sprintf "unknown restriction type %S" tag)
  and decided acc rest = function Ok v -> go (v :: acc) rest | Error _ as e -> e in
  go [] rs

let grantees rs = List.concat_map (function Grantee (ps, _) -> ps | _ -> []) rs

let propagate ~issued_for rs =
  if issued_for = [] then invalid_arg "Restriction.propagate: issued_for must be non-empty";
  let reaches servers = List.exists (fun s -> List.exists (Principal.equal s) issued_for) servers in
  let kept =
    List.filter
      (fun r -> match r with Limit_restriction (ss, _) -> reaches ss | _ -> true)
      rs
  in
  Issued_for issued_for :: kept
