module P = Principal

let principal = Alcotest.testable P.pp P.equal

let alice = P.make ~realm:"isi.edu" "alice"
let bob = P.make ~realm:"mit.edu" "bob"

let test_make () =
  Alcotest.(check string) "to_string" "isi.edu/alice" (P.to_string alice);
  Alcotest.(check bool) "make rejects empty" true
    (try
       ignore (P.make ~realm:"" "x");
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "make rejects slash" true
    (try
       ignore (P.make ~realm:"a" "b/c");
       false
     with Invalid_argument _ -> true)

let test_of_string () =
  Alcotest.(check (result principal string)) "parses" (Ok alice) (P.of_string "isi.edu/alice");
  Alcotest.(check bool) "no slash" true (Result.is_error (P.of_string "nope"));
  Alcotest.(check bool) "empty name" true (Result.is_error (P.of_string "realm/"));
  Alcotest.(check bool) "second slash" true (Result.is_error (P.of_string "a/b/c"))

let test_ordering () =
  Alcotest.(check bool) "equal" true (P.equal alice alice);
  Alcotest.(check bool) "not equal" false (P.equal alice bob);
  Alcotest.(check bool) "total order" true (P.compare alice bob <> 0);
  Alcotest.(check int) "reflexive" 0 (P.compare bob bob)

let test_wire () =
  (match P.of_wire (P.to_wire alice) with
  | Ok p -> Alcotest.check principal "roundtrip" alice p
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "bad wire" true (Result.is_error (P.of_wire (Wire.I 3)))

let test_group () =
  let g = P.Group.make ~server:bob "admins" in
  Alcotest.(check string) "global name" "mit.edu/bob$admins" (P.Group.to_string g);
  (match P.Group.of_wire (P.Group.to_wire g) with
  | Ok g' -> Alcotest.(check bool) "roundtrip" true (P.Group.equal g g')
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "same name different server differs" false
    (P.Group.equal g (P.Group.make ~server:alice "admins"))

let test_account () =
  let a = P.Account.make ~server:alice "savings" in
  Alcotest.(check string) "global name" "isi.edu/alice:savings" (P.Account.to_string a);
  Alcotest.(check bool) "same name different server differs" false
    (P.Account.equal a (P.Account.make ~server:bob "savings"))

let test_directory () =
  let d = Directory.create () in
  Alcotest.(check bool) "empty" true (Directory.symmetric d alice = None);
  Directory.add_symmetric d alice "key-a";
  Directory.add_symmetric d bob "key-b";
  Alcotest.(check (option string)) "lookup" (Some "key-a") (Directory.symmetric d alice);
  let drbg = Crypto.Drbg.create ~seed:"dir" in
  let rsa = Crypto.Rsa.generate drbg ~bits:256 in
  Directory.add_public d alice rsa.Crypto.Rsa.pub;
  Alcotest.(check bool) "public key" true (Directory.public d alice <> None);
  Alcotest.(check bool) "no public for bob" true (Directory.public d bob = None)

let () =
  Alcotest.run "principal"
    [ ( "principal",
        [ ("make/to_string", `Quick, test_make);
          ("of_string", `Quick, test_of_string);
          ("ordering", `Quick, test_ordering);
          ("wire", `Quick, test_wire) ] );
      ("group", [ ("group names", `Quick, test_group) ]);
      ("account", [ ("account names", `Quick, test_account) ]);
      ("directory", [ ("key directory", `Quick, test_directory) ]) ]
