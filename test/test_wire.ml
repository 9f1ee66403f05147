(* Wire encoding: unit tests plus fuzz-style properties (decode must never
   raise on arbitrary input, and decode . encode = id), and the codec
   against the reference below, byte for byte and error for error. *)

let wire = Alcotest.testable Wire.pp Wire.equal

(* The codec as it was before encoding sized its value first: a buffer
   that starts at 64 bytes and doubles, and a decoder that reads one byte
   per closure call. It is the oracle for the bytes [Wire.encode] writes
   and for what [Wire.decode] returns on any input, errors included. *)
module Ref_wire = struct
  open Wire

  let rec encode_into buf v =
    match v with
    | I n ->
        Buffer.add_char buf '\x01';
        for i = 7 downto 0 do
          Buffer.add_char buf (Char.chr ((n asr (8 * i)) land 0xff))
        done
    | S s ->
        Buffer.add_char buf '\x02';
        add_u32 buf (String.length s);
        Buffer.add_string buf s
    | L items ->
        Buffer.add_char buf '\x03';
        add_u32 buf (List.length items);
        List.iter (encode_into buf) items

  and add_u32 buf n =
    for i = 3 downto 0 do
      Buffer.add_char buf (Char.chr ((n lsr (8 * i)) land 0xff))
    done

  let encode v =
    let buf = Buffer.create 64 in
    encode_into buf v;
    Buffer.contents buf

  exception Bad of string

  let max_depth = 64

  let decode s =
    let len = String.length s in
    let pos = ref 0 in
    let byte () =
      if !pos >= len then raise (Bad "truncated");
      let c = Char.code s.[!pos] in
      incr pos;
      c
    in
    let u32 () =
      let a = byte () in
      let b = byte () in
      let c = byte () in
      let d = byte () in
      (a lsl 24) lor (b lsl 16) lor (c lsl 8) lor d
    in
    let rec value depth =
      if depth > max_depth then raise (Bad "nesting too deep");
      match byte () with
      | 0x01 ->
          let b0 = byte () in
          let n = ref (if b0 >= 0x80 then b0 - 256 else b0) in
          for _ = 1 to 7 do
            n := (!n lsl 8) lor byte ()
          done;
          I !n
      | 0x02 ->
          let n = u32 () in
          if n > len - !pos then raise (Bad "string length exceeds input");
          let str = String.sub s !pos n in
          pos := !pos + n;
          S str
      | 0x03 ->
          let n = u32 () in
          if n > len - !pos then raise (Bad "list count exceeds input");
          let rec items k acc =
            if k = 0 then List.rev acc else items (k - 1) (value (depth + 1) :: acc)
          in
          L (items n [])
      | t -> raise (Bad (Printf.sprintf "unknown tag 0x%02x" t))
    in
    match value 0 with
    | v -> if !pos = len then Ok v else Error "trailing bytes"
    | exception Bad msg -> Error msg
end

let decoded = Alcotest.(result wire string)

(* [input] decodes as the reference decodes it: the same value, or the
   same error text. *)
let agrees input =
  match (Wire.decode input, Ref_wire.decode input) with
  | Ok a, Ok b -> Wire.equal a b
  | Error a, Error b -> String.equal a b
  | Ok _, Error _ | Error _, Ok _ -> false

let prefixes bytes = List.init (String.length bytes + 1) (String.sub bytes 0)

let set_byte bytes pos m =
  let b = Bytes.of_string bytes in
  Bytes.set b pos (Char.chr m);
  Bytes.to_string b

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

(* Every prefix of [bytes], and [bytes] with byte [pos] set to each of
   [mutants], decode as the reference decodes them. *)
let check_against_ref ~mutants bytes =
  let check what input =
    if not (agrees input) then
      Alcotest.check decoded what (Ref_wire.decode input) (Wire.decode input)
  in
  List.iter
    (fun p -> check (Printf.sprintf "prefix of %d bytes" (String.length p)) p)
    (prefixes bytes);
  String.iteri
    (fun pos c ->
      List.iter
        (fun m -> check (Printf.sprintf "byte %d set to 0x%02x" pos m) (set_byte bytes pos m))
        (mutants (Char.code c)))
    bytes

let rec nest depth v = if depth = 0 then v else nest (depth - 1) (Wire.L [ v ])

let edge_ints = [ min_int; max_int; -1; 0; 1 lsl 31; (1 lsl 31) - 1; 1 lsl 32; (1 lsl 32) - 1 ]

(* The edge integers, empty strings and lists, and lists nested to the
   decoder's limit of 64 and one past it: the encoding is the
   reference's, and every prefix, and every byte set to a tag, to a
   length's edge or to itself with its low or high bit flipped, decodes
   as the reference decodes it. *)
let test_against_ref_edges () =
  let values =
    List.map (fun n -> Wire.I n) edge_ints
    @ [ Wire.S ""; Wire.L []; Wire.L [ Wire.S ""; Wire.L []; Wire.I min_int ];
        nest 64 (Wire.I 7); nest 64 (Wire.L []); nest 65 (Wire.I 7); nest 65 (Wire.S "");
        Wire.L (List.map (fun n -> Wire.L [ Wire.I n; Wire.S (string_of_int n) ]) edge_ints) ]
  in
  List.iter
    (fun v ->
      let bytes = Wire.encode v in
      Alcotest.(check string) (Format.asprintf "encode %a" Wire.pp v) (Ref_wire.encode v) bytes;
      check_against_ref bytes ~mutants:(fun c ->
          [ 0x00; 0x01; 0x02; 0x03; 0x04; 0x7f; 0x80; 0xff; c lxor 0x01; c lxor 0x80 ]))
    values

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

(* Values that lean on the edge integers, empty strings and lists, and
   nesting near the decoder's limit. *)
let gen_edgy =
  QCheck.Gen.(
    let leaf =
      frequency
        [ (2, map (fun i -> Wire.I i) (frequency [ (1, oneofl edge_ints); (1, int) ]));
          (2, map (fun s -> Wire.S s) string_small);
          (1, return (Wire.S ""));
          (1, return (Wire.L [])) ]
    in
    let tree =
      sized
      @@ fix (fun self n ->
             if n <= 0 then leaf
             else
               let list = map (fun l -> Wire.L l) (list_size (int_bound 5) (self (n / 2))) in
               frequency [ (3, leaf); (1, list) ])
    in
    frequency [ (5, tree); (1, map2 nest (int_range 60 66) tree) ])

let arb_mutated =
  QCheck.make
    ~print:(fun (v, muts) ->
      Format.asprintf "%a with %s" Wire.pp v
        (String.concat ", " (List.map (fun (p, b) -> Printf.sprintf "byte %d := 0x%02x" p b) muts)))
    QCheck.Gen.(pair gen_edgy (list_size (int_range 1 8) (pair nat (int_bound 255))))

let prop_encode_is_ref =
  QCheck.Test.make ~name:"encode = buffer reference" ~count:500
    (QCheck.make ~print:(Format.asprintf "%a" Wire.pp) gen_edgy)
    (fun v -> Wire.encode v = Ref_wire.encode v)

(* Every prefix of an encoding, and the encoding with random bytes
   replaced, one at a time. *)
let prop_decode_is_ref =
  QCheck.Test.make ~name:"decode = byte-at-a-time reference, prefixes and mutations" ~count:300
    arb_mutated (fun (v, muts) ->
      let bytes = Wire.encode v in
      List.for_all agrees (prefixes bytes)
      && List.for_all
           (fun (pos, m) -> agrees (set_byte bytes (pos mod String.length bytes) m))
           muts)

(* Encoding writes one buffer of the value's exact size, so a
   request-shaped value of 1,300 B allocates its encoding and a few words
   more. A buffer that doubled from 64 bytes allocated 4,168 B for it,
   2,064 B of that (its 2 KB block) in the major heap, where a count of
   minor words alone never saw it. Native code only: bytecode boxes what
   native code keeps unboxed. *)
let test_encode_allocation () =
  if Sys.backend_type = Sys.Native then begin
    let payload =
      Wire.encode
        (Wire.L [ Wire.S "read"; Wire.S "/home/alice/report.txt"; Wire.S (String.make 780 'p') ])
    in
    let request =
      Wire.L
        [ Wire.S "secure"; Wire.S (String.make 270 't'); Wire.S (String.make 150 'a');
          Wire.S payload; Wire.L [ Wire.I 0x1234_5678; Wire.I (-1) ] ]
    in
    let n = String.length (Wire.encode request) in
    let used = Testkit.alloc_bytes_per_call (fun () -> Wire.encode request) in
    let name = Printf.sprintf "Wire.encode of %d B: %.0f B per call <= %d" n used (n + 64) in
    Alcotest.(check bool) name true (used <= float (n + 64))
  end

let props =
  List.map QCheck_alcotest.to_alcotest
    [ prop_roundtrip; prop_decode_total; prop_encode_injective; prop_encode_is_ref;
      prop_decode_is_ref ]

let () =
  Alcotest.run "wire"
    [ ( "wire",
        [ ("scalar roundtrips", `Quick, test_scalars);
          ("canonical", `Quick, test_canonical);
          ("malformed inputs", `Quick, test_malformed);
          ("truncated frames rejected", `Quick, test_truncated_frames);
          ("oversized length prefixes rejected", `Quick, test_oversized_length_prefix);
          ("depth bomb rejected", `Quick, test_depth_bomb);
          ("accessors", `Quick, test_accessors);
          ("edge values against the reference", `Quick, test_against_ref_edges);
          ("encode allocates one buffer", `Quick, test_encode_allocation) ] );
      ("properties", props) ]
