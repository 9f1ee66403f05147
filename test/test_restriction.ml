(* Restriction semantics (paper Section 7) and the additive-propagation
   rules (Section 7.9). *)

module R = Restriction

let realm = "r"
let p name = Principal.make ~realm name
let alice = p "alice"
let bob = p "bob"
let carol = p "carol"
let server = p "server"
let other_server = p "other"
let gserver = p "groups"
let admins = Principal.Group.make ~server:gserver "admins"
let ops = Principal.Group.make ~server:gserver "operators"

let restriction = Alcotest.testable R.pp R.equal

let base_req = R.request ~server ~time:100 ~operation:"read" ~target:"file1" ()

(* A server's records as [check_all]'s [held]: the accept-once ids it has
   seen, and how many steps of every sequence it has granted. *)
let records ?(seen = []) ?(done_ = 0) req = function
  | R.Once id ->
      if List.mem id seen then Error (Printf.sprintf "accept-once: %s already used" id) else Ok ()
  | R.Steps steps -> R.seq_next steps ~done_ req

let verdict ?seen ?done_ r req = R.check_all ~held:(records ?seen ?done_ req) [ r ] req

let check_ok ?seen ?done_ r req =
  Alcotest.(check bool) "passes" true (Result.is_ok (verdict ?seen ?done_ r req))

let check_fails ?seen ?done_ r req =
  Alcotest.(check bool) "fails" true (Result.is_error (verdict ?seen ?done_ r req))

let test_grantee () =
  let r = R.Grantee ([ alice; bob ], 1) in
  check_fails r base_req;
  check_ok r { base_req with R.presenters = [ alice ] };
  check_ok r { base_req with R.presenters = [ bob; carol ] };
  check_fails r { base_req with R.presenters = [ carol ] };
  (* Quorum of two: separation of privilege. *)
  let r2 = R.Grantee ([ alice; bob ], 2) in
  check_fails r2 { base_req with R.presenters = [ alice ] };
  check_ok r2 { base_req with R.presenters = [ alice; bob ] }

let test_for_use_by_group () =
  let r = R.For_use_by_group ([ admins; ops ], 1) in
  check_fails r base_req;
  check_ok r { base_req with R.groups_asserted = [ admins ] };
  let disjoint = R.For_use_by_group ([ admins; ops ], 2) in
  check_fails disjoint { base_req with R.groups_asserted = [ admins ] };
  check_ok disjoint { base_req with R.groups_asserted = [ admins; ops ] }

let test_issued_for () =
  let r = R.Issued_for [ server ] in
  check_ok r base_req;
  check_fails r { base_req with R.server = other_server }

let test_quota () =
  let r = R.Quota ("pages", 10) in
  check_ok r base_req;
  check_ok r { base_req with R.spend = Some ("pages", 10) };
  check_fails r { base_req with R.spend = Some ("pages", 11) };
  (* A different currency is not constrained by this quota. *)
  check_ok r { base_req with R.spend = Some ("cpu", 1000) }

let test_authorized () =
  let r = R.Authorized [ { R.target = "file1"; ops = [ "read" ] } ] in
  check_ok r base_req;
  check_fails r { base_req with R.operation = "write" };
  check_fails r { base_req with R.target = "file2" };
  (* Empty ops list authorizes all operations on the object. *)
  let all_ops = R.Authorized [ { R.target = "file1"; ops = [] } ] in
  check_ok all_ops { base_req with R.operation = "delete" };
  check_fails (R.Authorized []) base_req

(* The request a membership proxy answers when it asserts group [g]. *)
let asserting g = { base_req with R.operation = R.assert_membership; target = g }

let test_group_membership () =
  let r = R.Group_membership [ "admins" ] in
  check_ok r base_req;
  check_ok r (asserting "admins");
  check_fails r (asserting "wheel");
  (* The groups a proxy claims: each named once, the empty name never. *)
  Alcotest.(check (list string)) "claimed groups" [ "ops"; "wheel" ]
    (R.claimed_groups
       (R.membership ~group:"ops" ~member:server @ [ R.Group_membership [ ""; "ops"; "wheel" ] ]))

let test_accept_once () =
  let r = R.Accept_once "check-42" in
  check_ok r base_req;
  check_fails ~seen:[ "check-42" ] r base_req;
  check_ok ~seen:[ "check-43" ] r base_req;
  (* A caller that keeps no records refuses it (fail closed). *)
  Alcotest.(check (result (list unit) string))
    "no state" (Error "accept-once: check-42 cannot be recorded here")
    (R.check_all ~held:R.no_state [ r ] base_req)

let test_limit_restriction () =
  let inner = R.Authorized [ { R.target = "file1"; ops = [ "read" ] } ] in
  let r = R.Limit_restriction ([ server ], [ inner ]) in
  (* Enforced on the named server... *)
  check_ok r base_req;
  check_fails r { base_req with R.operation = "write" };
  (* ...ignored elsewhere. *)
  check_ok r { base_req with R.server = other_server; R.operation = "write" }

(* --- sequence: the stateful ordered-steps restriction --- *)

let step ?server ?target op = { R.step_op = op; step_server = server; step_target = target }

let seq_req ~operation ~target () = R.request ~server ~time:100 ~operation ~target ()

let test_sequence_order () =
  let steps = [ step "open" ~target:"file1"; step "read" ~target:"file1" ] in
  let r = R.Sequence steps in
  (* Step 0 permits only "open" on file1. *)
  check_ok r (seq_req ~operation:"open" ~target:"file1" ());
  check_fails r (seq_req ~operation:"read" ~target:"file1" ());
  check_fails r (seq_req ~operation:"open" ~target:"file2" ());
  (* After one advance, only "read" is next; "open" is consumed. *)
  check_ok ~done_:1 r (seq_req ~operation:"read" ~target:"file1" ());
  check_fails ~done_:1 r (seq_req ~operation:"open" ~target:"file1" ());
  (* Exhausted: everything is denied. *)
  Alcotest.(check (result unit string))
    "exhausted" (Error "sequence: all 2 steps already consumed")
    (R.seq_next steps ~done_:2 (seq_req ~operation:"read" ~target:"file1" ()));
  (* A step naming a server binds the step to it. *)
  let r2 = R.Sequence [ step "open" ~server:other_server ] in
  check_fails r2 (seq_req ~operation:"open" ~target:"file1" ());
  let r3 = R.Sequence [ step "open" ~server ] in
  check_ok r3 (seq_req ~operation:"open" ~target:"file1" ());
  (* A step with no target constraint accepts any target. *)
  let r4 = R.Sequence [ step "open" ] in
  check_ok r4 (seq_req ~operation:"open" ~target:"anything" ())

let test_sequence_degenerate_fails_closed () =
  (* Empty and duplicate-step sequences are unusable however they arise,
     and are refused before any record is read. *)
  let req = seq_req ~operation:"open" ~target:"file1" () in
  let unread _ = Alcotest.fail "a degenerate sequence reached held" in
  Alcotest.(check (result (list unit) string))
    "empty" (Error "sequence: empty step list")
    (R.check_all ~held:unread [ R.Sequence [] ] req);
  let s = step "open" ~target:"file1" in
  Alcotest.(check (result (list unit) string))
    "duplicate" (Error "sequence: duplicate step")
    (R.check_all ~held:unread [ R.Sequence [ s; s ] ] req)

let test_sequence_wire_form_pinned () =
  (* The exact wire form, pinned: a pre-sequence verifier sees the head tag
     [S "sequence"], does not recognize it, decodes the whole value as
     [Unknown "sequence"] — and [check_all] fails that closed.  A proxy carrying
     a sequence is therefore unusable at servers that predate the tag, never
     silently stateless. *)
  let steps = [ step "open" ~server ~target:"file1"; step "read" ] in
  let expected =
    Wire.L
      [ Wire.S "sequence";
        Wire.L
          [ Wire.L
              [ Wire.S "open"; Wire.L [ Principal.to_wire server ];
                Wire.L [ Wire.S "file1" ] ];
            Wire.L [ Wire.S "read"; Wire.L []; Wire.L [] ] ] ]
  in
  Alcotest.(check bool) "pinned encoding" true
    (Wire.equal (R.to_wire (R.Sequence steps)) expected);
  (* Round-trips for a current verifier... *)
  (match R.of_wire expected with
  | Ok r -> Alcotest.check restriction "roundtrip" (R.Sequence steps) r
  | Error e -> Alcotest.fail e);
  (* ...and fails closed for a pre-sequence one, which maps the unrecognized
     head tag to [Unknown] exactly as test_unknown_wire_form pins. *)
  check_fails (R.Unknown "sequence") (seq_req ~operation:"open" ~target:"file1" ())

let test_sequence_wire_rejects_degenerate () =
  (* The decoder refuses what the checker would refuse: fail closed at both
     layers. *)
  Alcotest.(check bool) "empty" true
    (Result.is_error (R.of_wire (Wire.L [ Wire.S "sequence"; Wire.L [] ])));
  let s = step "open" ~target:"file1" in
  Alcotest.(check bool) "duplicate step" true
    (Result.is_error (R.of_wire (R.to_wire (R.Sequence [ s; s ]))));
  Alcotest.(check bool) "malformed step" true
    (Result.is_error
       (R.of_wire (Wire.L [ Wire.S "sequence"; Wire.L [ Wire.I 3 ] ])))

let test_unknown_fails_closed () =
  check_fails (R.Unknown "hologram") base_req;
  (* An unknown restriction arriving off the wire must also fail. *)
  match R.of_wire (Wire.L [ Wire.S "hologram"; Wire.I 3 ]) with
  | Ok r -> check_fails r base_req
  | Error e -> Alcotest.fail e

let test_check_all () =
  let rs = [ R.Issued_for [ server ]; R.Quota ("pages", 5) ] in
  let check_all = R.check_all ~held:R.no_state in
  Alcotest.(check bool) "all pass" true (check_all rs base_req = Ok []);
  Alcotest.(check bool) "one fails" true
    (Result.is_error (check_all rs { base_req with R.spend = Some ("pages", 6) }));
  Alcotest.(check bool) "empty list passes" true (check_all [] base_req = Ok [])

let all_restrictions =
  [ R.Grantee ([ alice; bob ], 2);
    R.For_use_by_group ([ admins ], 1);
    R.Issued_for [ server; other_server ];
    R.Quota ("dollars", 100);
    R.Authorized [ { R.target = "obj"; ops = [ "read"; "write" ] }; { R.target = "x"; ops = [] } ];
    R.Group_membership [ "a"; "b" ];
    R.Accept_once "id-1";
    R.Limit_restriction ([ server ], [ R.Quota ("cpu", 1) ]);
    R.Sequence
      [ { R.step_op = "open"; step_server = Some server; step_target = Some "obj" };
        { R.step_op = "read"; step_server = None; step_target = None } ];
    R.Unknown "mystery" ]

let test_unknown_wire_form () =
  (* The forward-compatibility contract, pinned: an unrecognized tag decodes
     to [Unknown tag] (never an error, never a crash), and [Unknown tag]
     encodes as [L [S tag]] — so a relay built today forwards restriction
     types invented tomorrow, while every checker fails them closed. *)
  Alcotest.(check bool) "pinned encoding" true
    (Wire.equal (R.to_wire (R.Unknown "x-future")) (Wire.L [ Wire.S "x-future" ]));
  (match R.of_wire (Wire.L [ Wire.S "x-future"; Wire.I 9; Wire.S "payload" ]) with
  | Ok (R.Unknown "x-future") -> ()
  | Ok r -> Alcotest.failf "decoded to %a" R.pp r
  | Error e -> Alcotest.fail e);
  match R.of_wire (R.to_wire (R.Unknown "x-future")) with
  | Ok (R.Unknown "x-future") -> ()
  | Ok r -> Alcotest.failf "roundtripped to %a" R.pp r
  | Error e -> Alcotest.fail e

let test_wire_roundtrip () =
  List.iter
    (fun r ->
      match R.of_wire (R.to_wire r) with
      | Ok r' -> Alcotest.check restriction "roundtrip" r r'
      | Error e -> Alcotest.fail e)
    all_restrictions;
  match R.list_of_wire (R.list_to_wire all_restrictions) with
  | Ok rs -> Alcotest.(check int) "list roundtrip" (List.length all_restrictions) (List.length rs)
  | Error e -> Alcotest.fail e

let test_wire_rejects_garbage () =
  Alcotest.(check bool) "int" true (Result.is_error (R.of_wire (Wire.I 3)));
  Alcotest.(check bool) "bad quorum" true
    (Result.is_error (R.of_wire (Wire.L [ Wire.S "grantee"; Wire.L []; Wire.I 0 ])));
  Alcotest.(check bool) "negative quota" true
    (Result.is_error (R.of_wire (Wire.L [ Wire.S "quota"; Wire.S "c"; Wire.I (-1) ])));
  Alcotest.(check (result reject string)) "empty group name"
    (Error "group-membership: empty group name")
    (R.of_wire (Wire.L [ Wire.S "group-membership"; Wire.L [ Wire.S "a"; Wire.S "" ] ]))

(* A list with several malformed entries reports the first one's error. *)
let test_wire_list_first_error_wins () =
  let bad_quota = Wire.L [ Wire.S "quota"; Wire.S "c"; Wire.I (-1) ] in
  let bad_grantee = Wire.L [ Wire.S "grantee"; Wire.L []; Wire.I 0 ] in
  let err w = match R.of_wire w with Error e -> e | Ok _ -> Alcotest.fail "decoded garbage" in
  Alcotest.(check bool) "the two errors differ" true (err bad_quota <> err bad_grantee);
  List.iter
    (fun (first, second) ->
      Alcotest.(check (result reject string))
        "first malformed entry's error" (Error (err first))
        (R.list_of_wire (Wire.L [ R.to_wire (R.Quota ("pages", 1)); first; second ])))
    [ (bad_quota, bad_grantee); (bad_grantee, bad_quota) ]

let test_propagate_keeps_everything () =
  let rs = [ R.Quota ("pages", 5); R.Accept_once "x" ] in
  let out = R.propagate ~issued_for:[ server ] rs in
  Alcotest.(check int) "issued-for prepended" (List.length rs + 1) (List.length out);
  (match out with
  | R.Issued_for [ s ] :: rest ->
      Alcotest.(check bool) "server" true (Principal.equal s server);
      Alcotest.(check bool) "rest preserved" true (List.for_all2 R.equal rest rs)
  | _ -> Alcotest.fail "expected Issued_for head")

let test_propagate_elides_unreachable_limit () =
  let limited = R.Limit_restriction ([ other_server ], [ R.Quota ("cpu", 1) ]) in
  let out = R.propagate ~issued_for:[ server ] [ limited; R.Quota ("pages", 5) ] in
  Alcotest.(check bool) "limit elided" true
    (not (List.exists (function R.Limit_restriction _ -> true | _ -> false) out));
  (* But kept when the derived proxy can reach the limited server. *)
  let out2 = R.propagate ~issued_for:[ other_server ] [ limited ] in
  Alcotest.(check bool) "limit kept" true
    (List.exists (function R.Limit_restriction _ -> true | _ -> false) out2)

let test_propagate_empty_raises () =
  Alcotest.(check_raises "empty"
      (Invalid_argument "Restriction.propagate: issued_for must be non-empty") (fun () ->
        ignore (R.propagate ~issued_for:[] [])))

(* --- properties --- *)

let gen_principal =
  QCheck.Gen.(map (fun i -> p (Printf.sprintf "p%d" i)) (int_bound 20))

let gen_restriction =
  QCheck.Gen.(
    sized @@ fix (fun self n ->
        let leaf =
          oneof
            [ map2 (fun ps q -> R.Grantee (ps, 1 + q))
                (list_size (int_range 1 3) gen_principal) (int_bound 2);
              map (fun ss -> R.Issued_for ss) (list_size (int_range 1 3) gen_principal);
              map2 (fun c v -> R.Quota (c, v)) (oneofl [ "usd"; "pages"; "cpu" ]) (int_bound 1000);
              map (fun id -> R.Accept_once id) string_small;
              (* Group names are non-empty, as the decoder requires. *)
              map
                (fun gs -> R.Group_membership gs)
                (list_size (int_bound 3) (map (fun s -> "g" ^ s) string_small));
              map
                (fun ts -> R.Authorized (List.map (fun t -> { R.target = t; ops = [] }) ts))
                (list_size (int_bound 3) string_small);
              (* Steps distinct by construction: the generator never emits
                 the degenerate forms the decoder refuses. *)
              map
                (fun n -> R.Sequence (List.init (1 + n) (fun i -> step (Printf.sprintf "s%d" i))))
                (int_bound 2) ]
        in
        if n <= 0 then leaf
        else
          frequency
            [ (4, leaf);
              ( 1,
                map2
                  (fun ss rs -> R.Limit_restriction (ss, rs))
                  (list_size (int_range 1 2) gen_principal)
                  (list_size (int_bound 2) (self (n / 2))) ) ]))

let arb_restriction = QCheck.make ~print:(Format.asprintf "%a" R.pp) gen_restriction

let prop_wire_roundtrip =
  QCheck.Test.make ~name:"restriction wire roundtrip" ~count:300 arb_restriction (fun r ->
      match R.of_wire (R.to_wire r) with Ok r' -> R.equal r r' | Error _ -> false)

let prop_check_total =
  QCheck.Test.make ~name:"check never raises" ~count:300 arb_restriction (fun r ->
      match R.check_all ~held:R.no_state [ r ] base_req with Ok _ | Error _ -> true)

let prop_propagate_monotone =
  QCheck.Test.make ~name:"propagate never invents permissions" ~count:300
    (QCheck.list_of_size (QCheck.Gen.int_bound 5) arb_restriction) (fun rs ->
      let out = R.propagate ~issued_for:[ server ] rs in
      (* Every propagated restriction other than the new Issued_for was in
         the input: propagation can only drop (unreachable limits), never
         add or alter. *)
      List.for_all
        (fun r ->
          match r with
          | R.Issued_for [ s ] when Principal.equal s server -> true
          | _ -> List.exists (R.equal r) rs)
        out)

(* Progress is prefix-monotone: drive a random interleaving of step attempts
   (including out-of-order and repeated ones) through check + advance, with
   [held] returning the progress a grant writes, as the guard's does; the
   granted operations are always exactly the in-order prefix of the
   sequence, and every out-of-turn attempt is denied. *)
let prop_progress_prefix_monotone =
  QCheck.Test.make ~name:"sequence progress is prefix-monotone" ~count:300
    QCheck.(pair (int_range 1 4) (list_of_size (QCheck.Gen.int_range 1 12) (int_bound 5)))
    (fun (n, attempts) ->
      let steps = List.init n (fun i -> step (Printf.sprintf "s%d" i)) in
      let r = R.Sequence steps in
      let progress = ref 0 in
      let granted = ref [] in
      List.iter
        (fun a ->
          let operation = Printf.sprintf "s%d" a in
          let req = seq_req ~operation ~target:"t" () in
          let held = function
            | R.Steps steps ->
                Result.map (fun () -> !progress + 1) (R.seq_next steps ~done_:!progress req)
            | R.Once _ -> Error "no accept-once here"
          in
          match R.check_all ~held [ r ] req with
          | Ok [ next ] ->
              granted := !granted @ [ operation ];
              progress := next
          | Ok _ | Error _ -> ())
        attempts;
      let k = List.length !granted in
      k <= n && !granted = List.init k (fun i -> Printf.sprintf "s%d" i))

(* Random trees of stateful leaves, passing stateless ones and limits
   naming this server, another one, or both. *)
let gen_held_tree =
  QCheck.Gen.(
    sized @@ fix (fun self n ->
        let leaf =
          oneof
            [ map (fun id -> R.Accept_once id) string_small;
              map
                (fun n -> R.Sequence (List.init (1 + n) (fun i -> step (Printf.sprintf "s%d" i))))
                (int_bound 2);
              return (R.Issued_for [ server ]);
              return (R.Quota ("pages", 1)) ]
        in
        if n <= 0 then leaf
        else
          frequency
            [ (3, leaf);
              ( 1,
                map2
                  (fun ss rs -> R.Limit_restriction (ss, rs))
                  (oneofl [ [ server ]; [ other_server ]; [ other_server; server ] ])
                  (list_size (int_bound 3) (self (n / 2))) ) ]))

(* [check_all] hands [held] each Accept_once and Sequence leaf reachable
   through limits naming the server, once, in order, and no leaf under a
   limit naming only another server. *)
let prop_held_reaches_what_applies =
  let rec applies = function
    | R.Accept_once id -> [ R.Once id ]
    | R.Sequence steps -> [ R.Steps steps ]
    | R.Limit_restriction (ss, rs) ->
        if List.exists (Principal.equal server) ss then List.concat_map applies rs else []
    | _ -> []
  in
  let same a b =
    match (a, b) with
    | R.Once x, R.Once y -> x = y
    | R.Steps x, R.Steps y -> List.length x = List.length y && List.for_all2 R.seq_step_equal x y
    | _ -> false
  in
  QCheck.Test.make ~name:"held sees exactly the stateful leaves that apply" ~count:300
    (QCheck.make
       ~print:(Format.asprintf "%a" (Format.pp_print_list R.pp))
       QCheck.Gen.(list_size (int_bound 4) gen_held_tree))
    (fun rs ->
      let calls = ref [] in
      let held s =
        calls := !calls @ [ s ];
        Ok s
      in
      let expected = List.concat_map applies rs in
      match R.check_all ~held rs base_req with
      | Ok returned ->
          List.length !calls = List.length expected
          && List.for_all2 same !calls expected
          && List.for_all2 same returned expected
      | Error _ -> false)

(* A guard reads a signed chain's accept-once ids before verifying it:
   [once_ids] names exactly the ids [check_all] hands [held], in order. *)
let prop_once_ids_are_what_held_sees =
  QCheck.Test.make ~name:"once_ids lists the accept-once ids held sees" ~count:300
    (QCheck.make
       ~print:(Format.asprintf "%a" (Format.pp_print_list R.pp))
       QCheck.Gen.(list_size (int_bound 4) gen_held_tree))
    (fun rs ->
      let seen = ref [] in
      let held s =
        (match s with R.Once id -> seen := !seen @ [ id ] | R.Steps _ -> ());
        Ok ()
      in
      Result.is_ok (R.check_all ~held rs base_req) && R.once_ids ~server rs = !seen)

let props =
  List.map QCheck_alcotest.to_alcotest
    [ prop_wire_roundtrip; prop_check_total; prop_propagate_monotone;
      prop_progress_prefix_monotone; prop_held_reaches_what_applies;
      prop_once_ids_are_what_held_sees ]

(* --- combination matrix: limit-restriction wrapping each type, quorum
   edges, unsatisfiable forms --- *)

let test_limit_wraps_each_type () =
  (* Every restriction type behaves identically inside a limit-restriction
     scoped to the evaluating server, and is ignored when scoped away. *)
  let wrapped r = R.Limit_restriction ([ server ], [ r ]) in
  let away r = R.Limit_restriction ([ other_server ], [ r ]) in
  let failing_reqs =
    [ (R.Grantee ([ alice ], 1), base_req);
      (R.For_use_by_group ([ admins ], 1), base_req);
      (R.Issued_for [ other_server ], base_req);
      (R.Quota ("pages", 1), { base_req with R.spend = Some ("pages", 2) });
      (R.Authorized [ { R.target = "other"; ops = [] } ], base_req);
      (R.Group_membership [ "a" ], asserting "b");
      (R.Accept_once "id", base_req);
      (R.Sequence [ step "open" ], base_req);
      (R.Unknown "x", base_req) ]
  in
  (* The server has seen "id", so the accept-once row fails where it
     applies. *)
  List.iter
    (fun (r, req) ->
      check_fails ~seen:[ "id" ] (wrapped r) req;
      check_ok ~seen:[ "id" ] (away r) req)
    failing_reqs

let test_nested_limit () =
  (* limit(server, [limit(other, [unknown])]) — the inner limit is scoped
     away, so the whole thing passes; flip the scopes and it fails. *)
  let inner_away = R.Limit_restriction ([ server ], [ R.Limit_restriction ([ other_server ], [ R.Unknown "x" ]) ]) in
  check_ok inner_away base_req;
  let inner_here = R.Limit_restriction ([ server ], [ R.Limit_restriction ([ server ], [ R.Unknown "x" ]) ]) in
  check_fails inner_here base_req

let test_quorum_edges () =
  (* A quorum larger than the list is unsatisfiable. *)
  check_fails (R.Grantee ([ alice ], 2)) { base_req with R.presenters = [ alice ] };
  check_fails (R.For_use_by_group ([ admins ], 2)) { base_req with R.groups_asserted = [ admins ] };
  (* Duplicate presenters do not double-count toward the quorum. *)
  check_fails
    (R.Grantee ([ alice; bob ], 2))
    { base_req with R.presenters = [ alice; alice ] }

let test_unsatisfiable_forms () =
  (* Empty lists are deny-all, not allow-all. *)
  check_fails (R.Grantee ([], 1)) { base_req with R.presenters = [ alice ] };
  check_fails (R.Issued_for []) base_req;
  check_fails (R.Authorized []) base_req;
  (* An empty group-membership restriction forbids asserting anything. *)
  check_fails (R.Group_membership []) (asserting "a");
  check_ok (R.Group_membership []) base_req

let () =
  Alcotest.run "restriction"
    [ ( "check",
        [ ("grantee", `Quick, test_grantee);
          ("for-use-by-group", `Quick, test_for_use_by_group);
          ("issued-for", `Quick, test_issued_for);
          ("quota", `Quick, test_quota);
          ("authorized", `Quick, test_authorized);
          ("group-membership", `Quick, test_group_membership);
          ("accept-once", `Quick, test_accept_once);
          ("limit-restriction", `Quick, test_limit_restriction);
          ("sequence order", `Quick, test_sequence_order);
          ("sequence degenerate fails closed", `Quick, test_sequence_degenerate_fails_closed);
          ("unknown fails closed", `Quick, test_unknown_fails_closed);
          ("check_all", `Quick, test_check_all);
          ("limit wraps each type", `Quick, test_limit_wraps_each_type);
          ("nested limit", `Quick, test_nested_limit);
          ("quorum edges", `Quick, test_quorum_edges);
          ("unsatisfiable forms", `Quick, test_unsatisfiable_forms) ] );
      ( "wire",
        [ ("roundtrip", `Quick, test_wire_roundtrip);
          ("unknown tag pinned", `Quick, test_unknown_wire_form);
          ("sequence form pinned, pre-tag fails closed", `Quick, test_sequence_wire_form_pinned);
          ("sequence rejects degenerate", `Quick, test_sequence_wire_rejects_degenerate);
          ("rejects garbage", `Quick, test_wire_rejects_garbage);
          ("first malformed entry's error wins", `Quick, test_wire_list_first_error_wins) ] );
      ( "propagate",
        [ ("keeps everything", `Quick, test_propagate_keeps_everything);
          ("elides unreachable limits", `Quick, test_propagate_elides_unreachable_limit);
          ("empty raises", `Quick, test_propagate_empty_raises) ] );
      ("properties", props) ]
