(* Wire encoding: unit tests plus fuzz-style properties (decode must never
   raise on arbitrary input, and decode . encode = id). *)

let wire = Alcotest.testable Wire.pp Wire.equal

let test_scalars () =
  let roundtrip v =
    match Wire.decode (Wire.encode v) with
    | Ok v' -> Alcotest.check wire "roundtrip" v v'
    | Error e -> Alcotest.fail e
  in
  List.iter roundtrip
    [ Wire.I 0; Wire.I 1; Wire.I (-1); Wire.I max_int; Wire.I min_int;
      Wire.S ""; Wire.S "hello"; Wire.S (String.make 1000 '\xff');
      Wire.L []; Wire.L [ Wire.I 1; Wire.S "x"; Wire.L [ Wire.I 2 ] ] ]

let test_canonical () =
  (* Equal values encode to identical bytes (signatures depend on this). *)
  let v = Wire.L [ Wire.I 42; Wire.S "abc"; Wire.L [ Wire.S "" ] ] in
  Alcotest.(check string) "deterministic" (Wire.encode v) (Wire.encode v)

let test_malformed () =
  let bad input =
    match Wire.decode input with
    | Ok _ -> Alcotest.failf "expected decode failure for %S" input
    | Error _ -> ()
  in
  bad "";
  bad "\x99";
  bad "\x01\x00";
  bad "\x02\x00\x00\x00\x05ab";
  bad "\x02\xff\xff\xff\xff";
  bad "\x03\x00\x00\x00\x02\x01";
  bad (Wire.encode (Wire.I 5) ^ "extra")

let test_truncated_frames () =
  (* Every strict prefix of a valid frame must fail to decode: tags fix the
     payload size, so a cut anywhere leaves an incomplete frame, and the
     decoder must report it rather than crash or accept a partial value. *)
  let v =
    Wire.L
      [ Wire.S "header"; Wire.I 42;
        Wire.L [ Wire.S "nested"; Wire.I (-7); Wire.L [ Wire.S "" ] ];
        Wire.S (String.make 64 'x') ]
  in
  let bytes = Wire.encode v in
  for i = 0 to String.length bytes - 1 do
    match Wire.decode (String.sub bytes 0 i) with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "truncation at byte %d/%d decoded" i (String.length bytes)
  done

let test_oversized_length_prefix () =
  (* Length prefixes claiming more bytes than the input carries must fail
     closed, at the top level and nested inside a list. *)
  let oversized =
    [ "\x02\x7f\xff\xff\xff";  (* string claiming ~2 GiB *)
      "\x02\x00\x00\x01\x00tiny";  (* string claiming 256, carrying 4 *)
      "\x03\x7f\xff\xff\xff" ^ Wire.encode (Wire.I 1);  (* huge list arity *)
      (* a well-formed list wrapping a string whose length overruns it *)
      "\x03\x00\x00\x00\x01\x02\xff\xff\xff\xf0" ]
  in
  List.iter
    (fun input ->
      match Wire.decode input with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "oversized length prefix decoded (%S)" input)
    oversized

let test_depth_bomb () =
  (* A million-deep nested list must be rejected, not crash the decoder
     with a stack overflow. *)
  let depth = 1_000_000 in
  let buf = Buffer.create (6 * depth) in
  for _ = 1 to depth do
    Buffer.add_string buf "\x03\x00\x00\x00\x01"
  done;
  Buffer.add_string buf (Wire.encode (Wire.I 0));
  (match Wire.decode (Buffer.contents buf) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "depth bomb decoded");
  (* Reasonable nesting still decodes. *)
  let rec nest n v = if n = 0 then v else nest (n - 1) (Wire.L [ v ]) in
  let deep_ok = nest 15 (Wire.I 7) in
  match Wire.decode (Wire.encode deep_ok) with
  | Ok v -> Alcotest.(check bool) "15 levels fine" true (Wire.equal v deep_ok)
  | Error e -> Alcotest.fail e

let test_accessors () =
  Alcotest.(check (result int string)) "to_int" (Ok 7) (Wire.to_int (Wire.I 7));
  Alcotest.(check (result string string)) "to_string" (Ok "s") (Wire.to_string (Wire.S "s"));
  Alcotest.(check bool) "to_list" true (Wire.to_list (Wire.L [ Wire.I 1 ]) = Ok [ Wire.I 1 ]);
  Alcotest.(check bool) "wrong type" true (Result.is_error (Wire.to_int (Wire.S "x")));
  Alcotest.(check bool) "list of scalar" true (Result.is_error (Wire.to_list (Wire.I 1)))

let gen_wire =
  QCheck.Gen.(
    sized @@ fix (fun self n ->
        if n <= 0 then oneof [ map (fun i -> Wire.I i) int; map (fun s -> Wire.S s) string_small ]
        else
          frequency
            [ (2, map (fun i -> Wire.I i) int);
              (2, map (fun s -> Wire.S s) string_small);
              (1, map (fun l -> Wire.L l) (list_size (int_bound 5) (self (n / 2)))) ]))

let arb_wire = QCheck.make ~print:(Format.asprintf "%a" Wire.pp) gen_wire

let prop_roundtrip =
  QCheck.Test.make ~name:"decode . encode = id" ~count:500 arb_wire (fun v ->
      match Wire.decode (Wire.encode v) with Ok v' -> Wire.equal v v' | Error _ -> false)

let prop_decode_total =
  QCheck.Test.make ~name:"decode never raises" ~count:1000 QCheck.string (fun s ->
      match Wire.decode s with Ok _ | Error _ -> true)

let prop_encode_injective =
  QCheck.Test.make ~name:"encode injective" ~count:300 (QCheck.pair arb_wire arb_wire)
    (fun (a, b) -> Wire.equal a b || Wire.encode a <> Wire.encode b)

let props =
  List.map QCheck_alcotest.to_alcotest [ prop_roundtrip; prop_decode_total; prop_encode_injective ]

let () =
  Alcotest.run "wire"
    [ ( "wire",
        [ ("scalar roundtrips", `Quick, test_scalars);
          ("canonical", `Quick, test_canonical);
          ("malformed inputs", `Quick, test_malformed);
          ("truncated frames rejected", `Quick, test_truncated_frames);
          ("oversized length prefixes rejected", `Quick, test_oversized_length_prefix);
          ("depth bomb rejected", `Quick, test_depth_bomb);
          ("accessors", `Quick, test_accessors) ] );
      ("properties", props) ]
