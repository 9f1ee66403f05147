(* The generated-program AST: a closed, finite vocabulary of authorization
   operations over a fixed small universe (three users, one file server, one
   group server, one accounting server).  Everything is plain data so the
   reference model can interpret a program without any cryptography, and so
   programs can be serialized into replayable repro files. *)

let n_users = 3
let currency = "usd"
let initial_balance = 100
let group = "team"

type server = Fs | Bank | Gs

type target = File of int | Shared

type flavor = Conv | Pk | Hybrid

(* A purely syntactic restriction specification; [Exec] lowers it to a real
   [Restriction.t], [Model] interprets it as a predicate. *)
type rspec =
  | R_grantee of int list  (** delegate proxy: named users may exercise it *)
  | R_issued_for of server list
  | R_quota of int  (** ceiling in [currency] *)
  | R_authorized of (target * string list) list
  | R_accept_once of int  (** single-use id, lowered to its decimal string *)
  | R_limit of server * rspec list
  | R_sequence of (string * target) list
      (** ordered permitted steps (operation, target); progress is tracked
          per chain head, so every cascade of one grant shares the counter *)
  | R_unknown  (** an unrecognized restriction type: must fail closed *)

type op =
  | Grant of { grantor : int; flavor : flavor; expired : bool; rs : rspec list }
      (** grantor mints a proxy for the file server; appends a proxy slot *)
  | Derive of { slot : int; expired : bool; rs : rspec list; delegate : int option }
      (** cascade from slot (mod live slots), appending restrictions; on a
          public-key chain [delegate] signs with a named user's key *)
  | Present of { slot : int; presenter : int; verb : [ `Read | `Write ]; target : target }
      (** presenter exercises slot (mod live slots) at the file server; with
          no live slots the request goes proxy-less *)
  | Revoke of { owner : int }  (** drop the owner's ACL entry for their file *)
  | Revoke_proxy of { slot : int }
      (** the revocation authority revokes slot (mod live slots) by its head
          certificate's serial and publishes a cumulative signed bulletin to
          the file server; kills the grant and every cascade derived from it *)
  | Add_member of { member : int }  (** add to [group] at the group server *)
  | Remove_member of { member : int }
  | Assert_group of { member : int }
      (** obtain a membership proxy and read the shared file with it *)
  | Write_check of { payor : int; payee : int; amount : int }
      (** appends a check slot; drawn on the payor's account *)
  | Deposit of { cslot : int; depositor : int }
      (** depositor endorses check (mod live checks) and deposits it *)

type t = op list

(* Observable outcome of one operation — the thing the executor and the
   model must agree on, bit for bit. *)
type outcome =
  | O_done  (** setup operation executed *)
  | O_skip  (** nothing to act on (e.g. deposit with no checks written) *)
  | O_ok of bool  (** authorization decision: was the request granted? *)
  | O_group of bool * bool  (** membership proxy granted?, shared read ok? *)

type run = { outcomes : outcome list; balances : int array }

(* --- pretty-printing --- *)

let server_name = function Fs -> "fs" | Bank -> "bank" | Gs -> "gs"
let target_name = function File i -> Printf.sprintf "u%d.dat" i | Shared -> "shared.dat"
let flavor_name = function Conv -> "conv" | Pk -> "pk" | Hybrid -> "hybrid"

let rec pp_rspec fmt = function
  | R_grantee us ->
      Format.fprintf fmt "grantee[%s]" (String.concat "," (List.map string_of_int us))
  | R_issued_for ss ->
      Format.fprintf fmt "issued-for[%s]" (String.concat "," (List.map server_name ss))
  | R_quota n -> Format.fprintf fmt "quota(%d)" n
  | R_authorized es ->
      let entry (t, ops) =
        if ops = [] then target_name t else target_name t ^ ":" ^ String.concat "," ops
      in
      Format.fprintf fmt "authorized[%s]" (String.concat "; " (List.map entry es))
  | R_accept_once n -> Format.fprintf fmt "accept-once(%d)" n
  | R_limit (s, rs) ->
      Format.fprintf fmt "limit(%s, [%a])" (server_name s)
        (Format.pp_print_list ~pp_sep:(fun f () -> Format.fprintf f "; ") pp_rspec)
        rs
  | R_sequence steps ->
      Format.fprintf fmt "sequence[%s]"
        (String.concat " -> "
           (List.map (fun (op, t) -> op ^ "@" ^ target_name t) steps))
  | R_unknown -> Format.fprintf fmt "unknown"

let pp_rs fmt rs =
  Format.fprintf fmt "[%a]"
    (Format.pp_print_list ~pp_sep:(fun f () -> Format.fprintf f "; ") pp_rspec)
    rs

let pp_op fmt = function
  | Grant { grantor; flavor; expired; rs } ->
      Format.fprintf fmt "grant u%d %s%s %a" grantor (flavor_name flavor)
        (if expired then " expired" else "")
        pp_rs rs
  | Derive { slot; expired; rs; delegate } ->
      Format.fprintf fmt "derive #%d%s%s %a" slot
        (match delegate with Some d -> Printf.sprintf " delegate=u%d" d | None -> "")
        (if expired then " expired" else "")
        pp_rs rs
  | Present { slot; presenter; verb; target } ->
      Format.fprintf fmt "present #%d u%d %s %s" slot presenter
        (match verb with `Read -> "read" | `Write -> "write")
        (target_name target)
  | Revoke { owner } -> Format.fprintf fmt "revoke u%d" owner
  | Revoke_proxy { slot } -> Format.fprintf fmt "revoke-proxy #%d" slot
  | Add_member { member } -> Format.fprintf fmt "add-member u%d" member
  | Remove_member { member } -> Format.fprintf fmt "remove-member u%d" member
  | Assert_group { member } -> Format.fprintf fmt "assert-group u%d" member
  | Write_check { payor; payee; amount } ->
      Format.fprintf fmt "write-check u%d -> u%d %d %s" payor payee amount currency
  | Deposit { cslot; depositor } -> Format.fprintf fmt "deposit #%d by u%d" cslot depositor

let pp fmt (p : t) =
  List.iteri (fun i op -> Format.fprintf fmt "%2d: %a@." i pp_op op) p

let pp_outcome fmt = function
  | O_done -> Format.fprintf fmt "done"
  | O_skip -> Format.fprintf fmt "skip"
  | O_ok b -> Format.fprintf fmt "ok=%b" b
  | O_group (a, b) -> Format.fprintf fmt "group=%b,read=%b" a b

let pp_run fmt r =
  Format.fprintf fmt "outcomes=[%a] balances=[%s]"
    (Format.pp_print_list ~pp_sep:(fun f () -> Format.fprintf f "; ") pp_outcome)
    r.outcomes
    (String.concat ";" (Array.to_list (Array.map string_of_int r.balances)))

let run_equal a b = a.outcomes = b.outcomes && a.balances = b.balances

(* First operation index where two runs disagree, with a description. *)
let first_divergence a b =
  let rec go i xs ys =
    match (xs, ys) with
    | x :: xs', y :: ys' ->
        if x = y then go (i + 1) xs' ys'
        else Some (i, Format.asprintf "op %d: %a vs %a" i pp_outcome x pp_outcome y)
    | [], [] ->
        if a.balances = b.balances then None
        else
          Some
            ( List.length a.outcomes,
              Format.asprintf "balances [%s] vs [%s]"
                (String.concat ";" (Array.to_list (Array.map string_of_int a.balances)))
                (String.concat ";" (Array.to_list (Array.map string_of_int b.balances))) )
    | _ -> Some (i, "outcome lists differ in length")
  in
  go 0 a.outcomes b.outcomes

(* --- wire codec (for repro files) --- *)

let server_to_wire s = Wire.I (match s with Fs -> 0 | Bank -> 1 | Gs -> 2)

let server_of_wire v =
  match Wire.to_int v with
  | Ok 0 -> Ok Fs
  | Ok 1 -> Ok Bank
  | Ok 2 -> Ok Gs
  | Ok n -> Error (Printf.sprintf "mbt: bad server tag %d" n)
  | Error e -> Error e

let target_to_wire = function
  | File i -> Wire.L [ Wire.I 0; Wire.I i ]
  | Shared -> Wire.L [ Wire.I 1 ]

let target_of_wire v =
  let open Wire in
  match v with
  | L [ I 0; I i ] -> Ok (File i)
  | L [ I 1 ] -> Ok Shared
  | _ -> Error "mbt: malformed target"

let rec rspec_to_wire = function
  | R_grantee us -> Wire.L [ Wire.S "g"; Wire.L (List.map (fun u -> Wire.I u) us) ]
  | R_issued_for ss -> Wire.L [ Wire.S "i"; Wire.L (List.map server_to_wire ss) ]
  | R_quota n -> Wire.L [ Wire.S "q"; Wire.I n ]
  | R_authorized es ->
      let entry (t, ops) =
        Wire.L [ target_to_wire t; Wire.L (List.map (fun o -> Wire.S o) ops) ]
      in
      Wire.L [ Wire.S "a"; Wire.L (List.map entry es) ]
  | R_accept_once n -> Wire.L [ Wire.S "o"; Wire.I n ]
  | R_limit (s, rs) ->
      Wire.L [ Wire.S "l"; server_to_wire s; Wire.L (List.map rspec_to_wire rs) ]
  | R_sequence steps ->
      Wire.L
        [ Wire.S "s";
          Wire.L (List.map (fun (op, t) -> Wire.L [ Wire.S op; target_to_wire t ]) steps) ]
  | R_unknown -> Wire.L [ Wire.S "u" ]

let rec rspec_of_wire v =
  let open Wire in
  match v with
  | L [ S "g"; L us ] ->
      let* us = map_all to_int us in
      Ok (R_grantee us)
  | L [ S "i"; L ss ] ->
      let* ss = map_all server_of_wire ss in
      Ok (R_issued_for ss)
  | L [ S "q"; I n ] -> Ok (R_quota n)
  | L [ S "a"; L es ] ->
      let entry = function
        | L [ t; L ops ] ->
            let* t = target_of_wire t in
            let* ops = map_all to_string ops in
            Ok (t, ops)
        | _ -> Error "mbt: malformed authorized entry"
      in
      let* es = map_all entry es in
      Ok (R_authorized es)
  | L [ S "o"; I n ] -> Ok (R_accept_once n)
  | L [ S "l"; s; L rs ] ->
      let* s = server_of_wire s in
      let* rs = map_all rspec_of_wire rs in
      Ok (R_limit (s, rs))
  | L [ S "s"; L steps ] ->
      let step = function
        | L [ S op; t ] ->
            let* t = target_of_wire t in
            Ok (op, t)
        | _ -> Error "mbt: malformed sequence step"
      in
      let* steps = map_all step steps in
      Ok (R_sequence steps)
  | L [ S "u" ] -> Ok R_unknown
  | _ -> Error "mbt: malformed rspec"

let rs_to_wire rs = Wire.L (List.map rspec_to_wire rs)
let rs_of_wire v = Result.bind (Wire.to_list v) (Wire.map_all rspec_of_wire)

let op_to_wire = function
  | Grant { grantor; flavor; expired; rs } ->
      Wire.L
        [ Wire.S "grant"; Wire.I grantor;
          Wire.I (match flavor with Conv -> 0 | Pk -> 1 | Hybrid -> 2);
          Wire.I (if expired then 1 else 0); rs_to_wire rs ]
  | Derive { slot; expired; rs; delegate } ->
      Wire.L
        [ Wire.S "derive"; Wire.I slot; Wire.I (if expired then 1 else 0); rs_to_wire rs;
          (match delegate with None -> Wire.L [] | Some d -> Wire.L [ Wire.I d ]) ]
  | Present { slot; presenter; verb; target } ->
      Wire.L
        [ Wire.S "present"; Wire.I slot; Wire.I presenter;
          Wire.I (match verb with `Read -> 0 | `Write -> 1); target_to_wire target ]
  | Revoke { owner } -> Wire.L [ Wire.S "revoke"; Wire.I owner ]
  | Revoke_proxy { slot } -> Wire.L [ Wire.S "revoke-proxy"; Wire.I slot ]
  | Add_member { member } -> Wire.L [ Wire.S "add-member"; Wire.I member ]
  | Remove_member { member } -> Wire.L [ Wire.S "remove-member"; Wire.I member ]
  | Assert_group { member } -> Wire.L [ Wire.S "assert-group"; Wire.I member ]
  | Write_check { payor; payee; amount } ->
      Wire.L [ Wire.S "write-check"; Wire.I payor; Wire.I payee; Wire.I amount ]
  | Deposit { cslot; depositor } ->
      Wire.L [ Wire.S "deposit"; Wire.I cslot; Wire.I depositor ]

let op_of_wire v =
  let open Wire in
  match v with
  | L [ S "grant"; I grantor; I f; I e; rs ] ->
      let* flavor =
        match f with
        | 0 -> Ok Conv
        | 1 -> Ok Pk
        | 2 -> Ok Hybrid
        | n -> Error (Printf.sprintf "mbt: bad flavor %d" n)
      in
      let* rs = rs_of_wire rs in
      Ok (Grant { grantor; flavor; expired = e <> 0; rs })
  | L [ S "derive"; I slot; I e; rs; L ([] | [ I _ ] as delegate) ] ->
      let* rs = rs_of_wire rs in
      let delegate = match delegate with [ I d ] -> Some d | _ -> None in
      Ok (Derive { slot; expired = e <> 0; rs; delegate })
  | L [ S "present"; I slot; I presenter; I vb; target ] ->
      let* verb =
        match vb with
        | 0 -> Ok `Read
        | 1 -> Ok `Write
        | n -> Error (Printf.sprintf "mbt: bad verb %d" n)
      in
      let* target = target_of_wire target in
      Ok (Present { slot; presenter; verb; target })
  | L [ S "revoke"; I owner ] -> Ok (Revoke { owner })
  | L [ S "revoke-proxy"; I slot ] -> Ok (Revoke_proxy { slot })
  | L [ S "add-member"; I member ] -> Ok (Add_member { member })
  | L [ S "remove-member"; I member ] -> Ok (Remove_member { member })
  | L [ S "assert-group"; I member ] -> Ok (Assert_group { member })
  | L [ S "write-check"; I payor; I payee; I amount ] -> Ok (Write_check { payor; payee; amount })
  | L [ S "deposit"; I cslot; I depositor ] -> Ok (Deposit { cslot; depositor })
  | _ -> Error "mbt: malformed op"

let magic = "mbt-program"
let version = 1

let to_wire (p : t) =
  Wire.L [ Wire.S magic; Wire.I version; Wire.L (List.map op_to_wire p) ]

let of_wire v : (t, string) result =
  match v with
  | Wire.L [ Wire.S m; Wire.I ver; Wire.L ops ] when m = magic ->
      if ver <> version then Error (Printf.sprintf "mbt: unsupported program version %d" ver)
      else Wire.map_all op_of_wire ops
  | _ -> Error "mbt: not a program"

(* --- hex helpers (repro files are hex so they survive editors and diffs) --- *)

let to_hex s =
  let b = Buffer.create (2 * String.length s) in
  String.iter (fun c -> Buffer.add_string b (Printf.sprintf "%02x" (Char.code c))) s;
  Buffer.contents b

let of_hex s =
  let digit c =
    match c with
    | '0' .. '9' -> Ok (Char.code c - Char.code '0')
    | 'a' .. 'f' -> Ok (Char.code c - Char.code 'a' + 10)
    | 'A' .. 'F' -> Ok (Char.code c - Char.code 'A' + 10)
    | _ -> Error (Printf.sprintf "bad hex digit %C" c)
  in
  let n = String.length s in
  if n mod 2 <> 0 then Error "odd-length hex"
  else
    let rec go i acc =
      if i >= n then Ok (String.concat "" (List.rev acc))
      else
        match (digit s.[i], digit s.[i + 1]) with
        | Ok hi, Ok lo -> go (i + 2) (String.make 1 (Char.chr ((hi lsl 4) lor lo)) :: acc)
        | (Error _ as e), _ | _, (Error _ as e) -> e
    in
    go 0 []
