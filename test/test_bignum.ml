(* Unit and property tests for the arbitrary-precision substrate. The
   reference implementation for property tests is native [int] arithmetic on
   small values plus algebraic identities on large ones. *)

module N = Bignum.Nat

let nat = Alcotest.testable N.pp N.equal

(* A deterministic byte source for the prime tests. *)
let test_rand =
  let state = ref 0x12345678 in
  fun n ->
    String.init n (fun _ ->
        (* xorshift *)
        let x = !state in
        let x = x lxor (x lsl 13) in
        let x = x lxor (x lsr 7) in
        let x = x lxor (x lsl 17) in
        state := x land max_int;
        Char.chr (x land 0xff))

let big_a = N.of_string "123456789012345678901234567890123456789"
let big_b = N.of_string "987654321098765432109876543210"

let test_of_to_int () =
  Alcotest.(check (option int)) "roundtrip 0" (Some 0) N.(to_int_opt zero);
  Alcotest.(check (option int)) "roundtrip 42" (Some 42) N.(to_int_opt (of_int 42));
  Alcotest.(check (option int))
    "roundtrip large" (Some 123_456_789_012_345)
    N.(to_int_opt (of_int 123_456_789_012_345));
  Alcotest.(check (option int)) "too big" None (N.to_int_opt big_a)

let test_decimal_roundtrip () =
  Alcotest.(check string) "string" "123456789012345678901234567890123456789" (N.to_string big_a);
  Alcotest.(check string) "zero" "0" N.(to_string zero);
  Alcotest.check nat "parse" big_a (N.of_string (N.to_string big_a))

let test_add_sub () =
  Alcotest.check nat "a+b-b=a" big_a N.(sub (add big_a big_b) big_b);
  Alcotest.check nat "a-a=0" N.zero (N.sub big_a big_a);
  Alcotest.(check_raises "underflow" N.Underflow (fun () -> ignore (N.sub big_b big_a)))

let test_mul_div () =
  let q, r = N.divmod big_a big_b in
  Alcotest.check nat "divmod reconstruct" big_a N.(add (mul q big_b) r);
  Alcotest.(check bool) "r < b" true (N.compare r big_b < 0);
  Alcotest.check nat "(a*b)/b = a" big_a N.(div (mul big_a big_b) big_b);
  Alcotest.check nat "mod of multiple" N.zero N.(rem (mul big_a big_b) big_a);
  Alcotest.(check_raises "div by zero" Division_by_zero (fun () -> ignore (N.div big_a N.zero)))

let test_known_quotient () =
  (* 10^38 / 10^19 = 10^19, computed independently. *)
  let p38 = N.of_string (String.concat "" [ "1"; String.make 38 '0' ]) in
  let p19 = N.of_string (String.concat "" [ "1"; String.make 19 '0' ]) in
  Alcotest.check nat "10^38/10^19" p19 (N.div p38 p19);
  Alcotest.check nat "exact" N.zero (N.rem p38 p19)

let test_shifts () =
  Alcotest.check nat "shl 0" big_a (N.shift_left big_a 0);
  Alcotest.check nat "shl/shr" big_a N.(shift_right (shift_left big_a 131) 131);
  Alcotest.check nat "shl = *2^k" N.(mul big_a (of_int 1024)) (N.shift_left big_a 10);
  Alcotest.check nat "shr = /2^k" N.(div big_a (of_int 1024)) (N.shift_right big_a 10)

let test_bits () =
  Alcotest.(check int) "bitlen 0" 0 N.(bit_length zero);
  Alcotest.(check int) "bitlen 1" 1 N.(bit_length one);
  Alcotest.(check int) "bitlen 255" 8 N.(bit_length (of_int 255));
  Alcotest.(check int) "bitlen 256" 9 N.(bit_length (of_int 256));
  Alcotest.(check bool) "bit 0 of 5" true N.(bit (of_int 5) 0);
  Alcotest.(check bool) "bit 1 of 5" false N.(bit (of_int 5) 1);
  Alcotest.(check bool) "bit 2 of 5" true N.(bit (of_int 5) 2);
  Alcotest.(check bool) "bit out of range" false (N.bit big_a 10_000)

(* The byte conversions as they were before the one-pass packing: one
   shift and add (or one shift) per byte. *)
let fold_of_bytes_be s =
  String.fold_left (fun r c -> N.add (N.shift_left r 8) (N.of_int (Char.code c))) N.zero s

let fold_to_bytes_be a =
  let nbytes = (N.bit_length a + 7) / 8 in
  let b = Bytes.create nbytes in
  let cur = ref a in
  for i = nbytes - 1 downto 0 do
    let low = ref 0 in
    for k = 7 downto 0 do
      low := (!low lsl 1) lor if N.bit !cur k then 1 else 0
    done;
    Bytes.set b i (Char.chr !low);
    cur := N.shift_right !cur 8
  done;
  Bytes.to_string b

let test_bytes_roundtrip () =
  Alcotest.check nat "bytes roundtrip" big_a (N.of_bytes_be (N.to_bytes_be big_a));
  Alcotest.(check string) "zero is empty" "" N.(to_bytes_be zero);
  Alcotest.check nat "empty is zero" N.zero (N.of_bytes_be "");
  let padded = N.to_bytes_be_padded 32 big_b in
  Alcotest.(check int) "padded length" 32 (String.length padded);
  Alcotest.check nat "padded value" big_b (N.of_bytes_be padded);
  List.iter
    (fun s ->
      let a = fold_of_bytes_be s in
      Alcotest.check nat (Printf.sprintf "of_bytes_be %S" s) a (N.of_bytes_be s);
      Alcotest.(check string) (Printf.sprintf "to_bytes_be %S" s) (fold_to_bytes_be a) (N.to_bytes_be a))
    [ ""; "\000"; "\000\000\000"; "\000\001"; "\001\000"; "\255"; "\000\000\128\000\000\000";
      String.make 13 '\255'; String.make 300 '\255'; "\001" ^ String.make 299 '\000' ];
  Alcotest.(check_raises "too small" (Invalid_argument "Nat.to_bytes_be_padded: does not fit")
      (fun () -> ignore (N.to_bytes_be_padded 2 big_a)))

let test_mod_pow () =
  (* 2^10 mod 1000 = 24 *)
  Alcotest.check nat "2^10 mod 1000" (N.of_int 24)
    N.(mod_pow two (of_int 10) (of_int 1000));
  (* Fermat: a^(p-1) = 1 mod p for prime p = 1000003 *)
  let p = N.of_int 1_000_003 in
  Alcotest.check nat "fermat" N.one N.(mod_pow (of_int 31337) (sub p one) p);
  Alcotest.check nat "mod 1" N.zero N.(mod_pow big_a big_b one)

let test_gcd_modinv () =
  Alcotest.check nat "gcd(12,18)" (N.of_int 6) N.(gcd (of_int 12) (of_int 18));
  Alcotest.check nat "gcd(a,0)" big_a (N.gcd big_a N.zero);
  let m = N.of_int 1_000_003 in
  (match N.mod_inv (N.of_int 12345) m with
  | None -> Alcotest.fail "expected inverse"
  | Some inv -> Alcotest.check nat "inverse" N.one N.(rem (mul (of_int 12345) inv) m));
  Alcotest.(check bool) "no inverse" true (N.mod_inv (N.of_int 6) (N.of_int 9) = None)

let test_primes_known () =
  let rounds = 16 in
  let prime_list = [ 2; 3; 5; 17; 257; 65537; 1_000_003 ] in
  List.iter
    (fun p ->
      Alcotest.(check bool)
        (Printf.sprintf "%d is prime" p)
        true
        (Bignum.Prime.is_probably_prime ~rounds test_rand (N.of_int p)))
    prime_list;
  let composite_list = [ 0; 1; 4; 9; 255; 65535; 1_000_001; 341; 561; 645; 1105 ] in
  List.iter
    (fun c ->
      Alcotest.(check bool)
        (Printf.sprintf "%d is composite" c)
        false
        (Bignum.Prime.is_probably_prime ~rounds test_rand (N.of_int c)))
    composite_list

let test_prime_generation () =
  let p = Bignum.Prime.generate ~rounds:8 test_rand 96 in
  Alcotest.(check int) "bit length" 96 (N.bit_length p);
  Alcotest.(check bool) "odd" true (N.is_odd p);
  Alcotest.(check bool) "probably prime" true
    (Bignum.Prime.is_probably_prime ~rounds:16 test_rand p)

let test_random_below () =
  let bound = N.of_int 1000 in
  for _ = 1 to 50 do
    let x = Bignum.Prime.random_nat_below test_rand bound in
    Alcotest.(check bool) "below bound" true (N.compare x bound < 0)
  done

(* Trial division as it was before the grouped residues: one [N.rem] per
   small prime. With zero Miller-Rabin rounds, [is_probably_prime] must
   decide exactly this, and draw nothing. *)
let small_primes =
  [ 2; 3; 5; 7; 11; 13; 17; 19; 23; 29; 31; 37; 41; 43; 47; 53; 59; 61; 67;
    71; 73; 79; 83; 89; 97; 101; 103; 107; 109; 113; 127; 131; 137; 139;
    149; 151; 157; 163; 167; 173; 179; 181; 191; 193; 197; 199; 211; 223;
    227; 229; 233; 239; 241; 251 ]

let list_trial_division n =
  match N.to_int_opt n with
  | Some i when i < 2 -> false
  | _ ->
      let divisible_by_small =
        List.exists
          (fun p ->
            let pn = N.of_int p in
            if N.compare n pn = 0 then false else N.is_zero (N.rem n pn))
          small_primes
      in
      if divisible_by_small then List.exists (fun p -> N.equal n (N.of_int p)) small_primes
      else true

let no_rand _ = failwith "zero rounds must draw no bytes"

let test_trial_division_small () =
  for i = 0 to (1 lsl 16) - 1 do
    let n = N.of_int i in
    if Bignum.Prime.is_probably_prime ~rounds:0 no_rand n <> list_trial_division n then
      Alcotest.failf "trial division disagrees at %d" i
  done

(* Property tests. *)

let small_nat_gen = QCheck.Gen.(map N.of_int (int_bound 1_000_000_000))

let big_nat_gen =
  QCheck.Gen.(
    map
      (fun bytes -> N.of_bytes_be bytes)
      (string_size ~gen:char (int_range 0 40)))

let arb_small = QCheck.make ~print:N.to_string small_nat_gen
let arb_big = QCheck.make ~print:N.to_string big_nat_gen

let prop_add_commutative =
  QCheck.Test.make ~name:"add commutative" ~count:200 (QCheck.pair arb_big arb_big)
    (fun (a, b) -> N.equal (N.add a b) (N.add b a))

let prop_mul_commutative =
  QCheck.Test.make ~name:"mul commutative" ~count:200 (QCheck.pair arb_big arb_big)
    (fun (a, b) -> N.equal (N.mul a b) (N.mul b a))

let prop_mul_distributes =
  QCheck.Test.make ~name:"mul distributes over add" ~count:200
    (QCheck.triple arb_big arb_big arb_big)
    (fun (a, b, c) -> N.equal (N.mul a (N.add b c)) (N.add (N.mul a b) (N.mul a c)))

let prop_divmod_invariant =
  QCheck.Test.make ~name:"divmod invariant" ~count:500 (QCheck.pair arb_big arb_big)
    (fun (a, b) ->
      QCheck.assume (not (N.is_zero b));
      let q, r = N.divmod a b in
      N.equal a (N.add (N.mul q b) r) && N.compare r b < 0)

let prop_matches_int =
  QCheck.Test.make ~name:"agrees with native int" ~count:500
    (QCheck.pair (QCheck.int_bound 100_000) (QCheck.int_bound 100_000))
    (fun (a, b) ->
      let na = N.of_int a and nb = N.of_int b in
      N.to_int_opt (N.add na nb) = Some (a + b)
      && N.to_int_opt (N.mul na nb) = Some (a * b)
      && (b = 0 || N.to_int_opt (N.div na nb) = Some (a / b))
      && (b = 0 || N.to_int_opt (N.rem na nb) = Some (a mod b)))

let prop_bytes_roundtrip =
  QCheck.Test.make ~name:"bytes roundtrip" ~count:300 arb_big (fun a ->
      N.equal a (N.of_bytes_be (N.to_bytes_be a)))

(* Lengths 0-300, often behind a run of leading zero bytes. *)
let bytes_gen =
  QCheck.Gen.(
    map2
      (fun zeros body -> String.make zeros '\000' ^ body)
      (frequency [ (2, return 0); (1, int_range 1 9) ])
      (string_size ~gen:char (int_range 0 300)))

let prop_bytes_vs_fold =
  QCheck.Test.make ~name:"byte conversions = per-byte fold" ~count:300
    (QCheck.make ~print:(Printf.sprintf "%S") bytes_gen)
    (fun s ->
      let a = fold_of_bytes_be s in
      N.equal (N.of_bytes_be s) a && N.to_bytes_be a = fold_to_bytes_be a)

let prop_string_roundtrip =
  QCheck.Test.make ~name:"decimal roundtrip" ~count:200 arb_big (fun a ->
      N.equal a (N.of_string (N.to_string a)))

let prop_shift_mul =
  QCheck.Test.make ~name:"shift_left k = mul 2^k" ~count:200
    (QCheck.pair arb_big (QCheck.int_bound 100))
    (fun (a, k) ->
      N.equal (N.shift_left a k) (N.mul a (N.mod_pow N.two (N.of_int k) (N.shift_left N.one 200))))

let prop_modinv =
  QCheck.Test.make ~name:"mod_inv correct when defined" ~count:200
    (QCheck.pair arb_small arb_small)
    (fun (a, m) ->
      QCheck.assume (N.compare m N.two >= 0);
      match N.mod_inv a m with
      | None -> not (N.equal (N.gcd a m) N.one) || N.is_zero (N.rem a m)
      | Some x -> N.equal (N.rem (N.mul (N.rem a m) x) m) N.one)

let prop_modpow_small =
  QCheck.Test.make ~name:"mod_pow agrees with naive" ~count:100
    (QCheck.triple (QCheck.int_bound 50) (QCheck.int_bound 12) (QCheck.int_range 1 1000))
    (fun (b, e, m) ->
      let naive = ref 1 in
      for _ = 1 to e do
        naive := !naive * b mod m
      done;
      N.to_int_opt (N.mod_pow (N.of_int b) (N.of_int e) (N.of_int m)) = Some !naive)

(* Fast-path cross-checks: the optimized mul (Karatsuba above the limb
   threshold) and mod_pow (Montgomery/sliding-window for odd moduli) against
   the retained reference implementations, on operands big enough to take
   the fast paths. *)

let huge_nat_gen =
  (* Up to ~2080 bits: well past karatsuba_threshold (27 limbs = 702 bits). *)
  QCheck.Gen.(map N.of_bytes_be (string_size ~gen:char (int_range 0 260)))

let arb_huge = QCheck.make ~print:N.to_string huge_nat_gen

let modulus_gen =
  (* 1..48 bytes: spans single-limb through multi-limb, even and odd. *)
  QCheck.Gen.(map N.of_bytes_be (string_size ~gen:char (int_range 1 48)))

let arb_modulus = QCheck.make ~print:N.to_string modulus_gen

let exponent_gen = QCheck.Gen.(map N.of_bytes_be (string_size ~gen:char (int_range 0 8)))
let arb_exponent = QCheck.make ~print:N.to_string exponent_gen

let prop_karatsuba_vs_schoolbook =
  QCheck.Test.make ~name:"karatsuba mul = schoolbook mul" ~count:150
    (QCheck.pair arb_huge arb_huge)
    (fun (a, b) -> N.equal (N.mul a b) (N.mul_schoolbook a b))

let prop_montgomery_vs_naive =
  QCheck.Test.make ~name:"mod_pow = mod_pow_naive (odd and even moduli)" ~count:100
    (QCheck.triple arb_huge arb_exponent arb_modulus)
    (fun (b, e, m) ->
      QCheck.assume (not (N.is_zero m));
      N.equal (N.mod_pow b e m) (N.mod_pow_naive b e m))

let prop_divmod_huge =
  QCheck.Test.make ~name:"divmod reconstruction on huge operands" ~count:150
    (QCheck.pair arb_huge arb_modulus)
    (fun (a, b) ->
      QCheck.assume (not (N.is_zero b));
      let q, r = N.divmod a b in
      N.equal a (N.add (N.mul q b) r) && N.compare r b < 0)

(* 2-600 bits with the top bit set; half are odd, and a quarter carry a
   random small prime factor, so every residue group decides some cases. *)
let trial_gen =
  QCheck.Gen.(
    int_range 2 600 >>= fun bits ->
    string_size ~gen:char (return ((bits + 7) / 8)) >>= fun s ->
    bool >>= fun odd ->
    oneofl small_primes >>= fun p ->
    frequency [ (3, return false); (1, return true) ] >|= fun times_p ->
    let n = N.shift_right (N.of_bytes_be s) ((8 * String.length s) - bits) in
    let n = N.add (N.shift_left N.one (bits - 1)) (N.rem n (N.shift_left N.one (bits - 1))) in
    let n = if odd && N.is_even n then N.add n N.one else n in
    if times_p then N.mul n (N.of_int p) else n)

let prop_trial_division =
  QCheck.Test.make ~name:"trial division = per-prime rem, 2-600 bits" ~count:500
    (QCheck.make ~print:N.to_string trial_gen)
    (fun n -> Bignum.Prime.is_probably_prime ~rounds:0 no_rand n = list_trial_division n)

let prop_rem_int =
  QCheck.Test.make ~name:"rem_int = rem, divisors to 2^36" ~count:300
    (QCheck.pair arb_huge
       (QCheck.make ~print:string_of_int
          QCheck.Gen.(frequency [ (1, oneofl [ 1; 2; 1 lsl 26; 1 lsl 36 ]); (3, int_range 1 (1 lsl 36)) ])))
    (fun (a, d) -> N.to_int_opt (N.rem a (N.of_int d)) = Some (N.rem_int a d))

let test_fast_path_edges () =
  let huge = N.of_string (String.concat "" (List.init 9 (fun _ -> "123456789876543212345678987")) ) in
  let odd_m = N.add (N.shift_left N.one 521) N.one in
  (* zero exponent: b^0 = 1 mod m (and 0 when m = 1) *)
  Alcotest.check nat "zero exponent" N.one (N.mod_pow huge N.zero odd_m);
  Alcotest.check nat "modulus one" N.zero (N.mod_pow huge big_b N.one);
  Alcotest.check nat "zero exponent, modulus one" N.zero (N.mod_pow huge N.zero N.one);
  (* single-limb odd modulus takes the Montgomery path *)
  let m1 = N.of_int 1_000_003 in
  Alcotest.check nat "single-limb modulus" (N.mod_pow_naive huge big_b m1)
    (N.mod_pow huge big_b m1);
  (* even modulus falls back to the naive path; results must agree *)
  let even_m = N.shift_left (N.of_int 3) 130 in
  Alcotest.check nat "even modulus fallback" (N.mod_pow_naive huge big_b even_m)
    (N.mod_pow huge big_b even_m);
  Alcotest.(check bool) "even modulus really even" true (N.is_even even_m);
  (* base a multiple of the modulus *)
  Alcotest.check nat "base = 0 mod m" N.zero (N.mod_pow (N.mul odd_m N.two) big_b odd_m);
  (* operand aliasing: the same value on both/all sides *)
  Alcotest.check nat "mul aliasing" (N.mul_schoolbook huge huge) (N.mul huge huge);
  Alcotest.check nat "mod_pow aliasing" (N.mod_pow_naive huge huge odd_m)
    (N.mod_pow huge huge odd_m);
  let odd_huge = if N.is_even huge then N.add huge N.one else huge in
  Alcotest.check nat "mod_pow all-aliased" (N.mod_pow_naive odd_huge odd_huge odd_huge)
    (N.mod_pow odd_huge odd_huge odd_huge);
  (* All-ones moduli m = 2^(26k) - 1 with base m - 2: the limbs sit at or
     next to their maximum, so the Montgomery columns sum near-maximal
     products. 512 limbs is the widest modulus the kernel takes; 513 falls
     back to the reference path. *)
  let e = N.sub (N.shift_left N.one 64) N.one in
  List.iter
    (fun k ->
      let m = N.sub (N.shift_left N.one (26 * k)) N.one in
      let b = N.sub m N.two in
      Alcotest.check nat
        (Printf.sprintf "all-ones modulus, %d limbs" k)
        (N.mod_pow_naive b e m) (N.mod_pow b e m))
    [ 1; 2; 10; 20; 40; 79; 512; 513 ];
  Alcotest.(check_raises "rem_int divisor above 2^36"
      (Invalid_argument "Nat.rem_int: divisor out of range")
      (fun () -> ignore (N.rem_int big_a ((1 lsl 36) + 1))));
  (* Karatsuba exercises operands just around the split point *)
  let around = [ 26; 27; 28; 53; 54; 55 ] in
  List.iter
    (fun limbs ->
      let x = N.sub (N.shift_left N.one (limbs * 26)) N.one in
      let y = N.add (N.shift_left N.one ((limbs - 1) * 26)) (N.of_int 12345) in
      Alcotest.check nat
        (Printf.sprintf "threshold split %d limbs" limbs)
        (N.mul_schoolbook x y) (N.mul x y))
    around

let props =
  List.map QCheck_alcotest.to_alcotest
    [ prop_add_commutative; prop_mul_commutative; prop_mul_distributes;
      prop_divmod_invariant; prop_matches_int; prop_bytes_roundtrip; prop_bytes_vs_fold;
      prop_string_roundtrip; prop_shift_mul; prop_modinv; prop_modpow_small;
      prop_karatsuba_vs_schoolbook; prop_montgomery_vs_naive; prop_divmod_huge;
      prop_trial_division; prop_rem_int ]

let suite =
  [ ("int conversion", `Quick, test_of_to_int);
    ("decimal roundtrip", `Quick, test_decimal_roundtrip);
    ("add/sub", `Quick, test_add_sub);
    ("mul/div", `Quick, test_mul_div);
    ("known quotient", `Quick, test_known_quotient);
    ("shifts", `Quick, test_shifts);
    ("bits", `Quick, test_bits);
    ("bytes roundtrip", `Quick, test_bytes_roundtrip);
    ("mod_pow", `Quick, test_mod_pow);
    ("gcd/modinv", `Quick, test_gcd_modinv);
    ("fast-path edges", `Quick, test_fast_path_edges);
    ("known primes", `Quick, test_primes_known);
    ("trial division below 2^16", `Quick, test_trial_division_small);
    ("prime generation", `Slow, test_prime_generation);
    ("random below", `Quick, test_random_below) ]
  @ List.map (fun (n, s, f) -> (n, s, f)) props

let () = Alcotest.run "bignum" [ ("nat+prime", suite) ]
