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

(* A byte source of zeros makes every candidate 2^(b-1) + 1, which 3
   divides for even b, so no prime is found: generation gives up after
   100 b candidates, naming the size, rather than looping. *)
let test_prime_generation_gives_up () =
  let zeros n = String.make n '\000' in
  Alcotest.check_raises "no prime"
    (Failure "Prime.generate: no 64-bit prime in 6400 candidates")
    (fun () -> ignore (Bignum.Prime.generate zeros 64))

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

(* Pairs of one-limb operands, of operands up to 40 bytes, and of 256-bit
   operands made coprime by dividing a by its common factor with m until
   none is left (a keeps its top bit set, so it never reaches 0). *)
let modinv_pair_gen =
  let nat256 =
    QCheck.Gen.map
      (fun s -> N.of_bytes_be (String.mapi (fun i c -> if i = 0 then Char.chr (Char.code c lor 0x80) else c) s))
      QCheck.Gen.(string_size ~gen:char (return 32))
  in
  let rec coprime (a, m) =
    let g = N.gcd a m in
    if N.equal g N.one then (a, m) else coprime (N.div a g, m)
  in
  QCheck.Gen.(
    frequency
      [ (1, pair small_nat_gen small_nat_gen); (1, pair big_nat_gen big_nat_gen);
        (1, map coprime (pair nat256 nat256)) ])

let prop_modinv =
  QCheck.Test.make ~name:"mod_inv correct when defined" ~count:300
    (QCheck.make
       ~print:(fun (a, m) -> Printf.sprintf "a = %s, m = %s" (N.to_string a) (N.to_string m))
       modinv_pair_gen)
    (fun (a, m) ->
      QCheck.assume (N.compare m N.two >= 0);
      let coprime = N.equal (N.gcd a m) N.one in
      match N.mod_inv a m with
      | None -> not coprime
      | Some x -> coprime && N.compare x m < 0 && N.equal (N.rem (N.mul (N.rem a m) x) m) N.one)

let prop_modpow_small =
  QCheck.Test.make ~name:"mod_pow agrees with naive" ~count:100
    (QCheck.triple (QCheck.int_bound 50) (QCheck.int_bound 12) (QCheck.int_range 1 1000))
    (fun (b, e, m) ->
      (* b^0 mod 1 is 0, not 1. *)
      let naive = ref (1 mod m) in
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

(* Odd moduli of lo to hi bits, top bit set, with a base and an
   exponent as wide as the modulus. *)
let odd_modulus_gen lo hi =
  QCheck.Gen.(
    int_range lo hi >>= fun bits ->
    let draw = string_size ~gen:char (return ((bits + 7) / 8)) >|= fun s ->
      N.rem (N.of_bytes_be s) (N.shift_left N.one bits)
    in
    triple draw draw draw >|= fun (b, e, m) ->
    let m = N.add (N.shift_left N.one (bits - 1)) (N.rem m (N.shift_left N.one (bits - 1))) in
    (b, e, if N.is_even m then N.add m N.one else m))

let arb_pow lo hi =
  QCheck.make
    ~print:(fun (b, e, m) -> String.concat ", " (List.map N.to_string [ b; e; m ]))
    (odd_modulus_gen lo hi)

(* The kernel's 29- and 28-bit widths with random limbs, and exponents
   long enough for the 4- and 5-bit windows. *)
let prop_montgomery_wide =
  QCheck.Test.make ~name:"mod_pow = mod_pow_naive, 200-1,100-bit odd moduli, full exponents"
    ~count:30 (arb_pow 200 1100)
    (fun (b, e, m) -> N.equal (N.mod_pow b e m) (N.mod_pow_naive b e m))

(* The band of the fixed 9-limb kernel, which the wide property above
   draws about once in 30 cases; most of these moduli are composite, as
   most Miller-Rabin candidates are. *)
let prop_montgomery_band =
  QCheck.Test.make ~name:"mod_pow = mod_pow_naive, 233-259-bit odd moduli, full exponents"
    ~count:200 (arb_pow 233 259)
    (fun (b, e, m) -> N.equal (N.mod_pow b e m) (N.mod_pow_naive b e m))

(* The band of the fixed 19-limb kernel, a 512-bit RSA modulus's. *)
let prop_montgomery_band19 =
  QCheck.Test.make ~name:"mod_pow = mod_pow_naive, 505-530-bit odd moduli, full exponents"
    ~count:200 (arb_pow 505 530)
    (fun (b, e, m) -> N.equal (N.mod_pow b e m) (N.mod_pow_naive b e m))

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
  (* All-ones moduli m = 2^(w k) - 1 with base m - 2. R is a power of
     two, so the base enters the Montgomery domain as -2R mod m, which is
     m with one bit cleared, and the first squaring multiplies limbs at
     or next to their maximum: its x*y column sums come near
     n(2^w - 1)^2. The kernel takes its limb width w from the modulus:
     the widest of 29, 28, 27 and 26 bits whose column sums stay below
     2^63. The second list is each width's first and last limb count, k
     limbs of w bits, all ones: 29 bits for 1 to 15 limbs (9 is an
     RSA-512 CRT half), 28 for 16 to 63, 27 for 66 to 255 and 26 for 265
     to 1,023. 26,598 bits is the widest modulus the kernel takes; one
     bit more falls back to the reference path. The first list is
     2^(26k) - 1 up to 512 limbs, the edge of the 26-bit kernel this one
     replaced. *)
  let e = N.sub (N.shift_left N.one 64) N.one in
  let all_ones bits = N.sub (N.shift_left N.one bits) N.one in
  let check what m =
    let b = N.sub m N.two in
    Alcotest.check nat what (N.mod_pow_naive b e m) (N.mod_pow b e m)
  in
  List.iter
    (fun k -> check (Printf.sprintf "all-ones modulus, %d limbs of 26 bits" k) (all_ones (26 * k)))
    [ 1; 2; 10; 20; 40; 79; 512; 513 ];
  (* Beside each all-ones modulus, 2^(w k) - 2^w + 1: every w-bit limb at
     its maximum but the lowest, which is 1, so -m^-1 mod 2^w = 2^w - 1
     and the quotient half of each column is large too. The third list is
     the edges of a bound on an unsigned 64-bit column sum,
     n < 2^(63-2w): 29 bits to 31 limbs, 28 to 127, 27 to 511. This kernel
     takes them at narrower widths; a copy that took them at w got the
     second family wrong at 29 x 31, 28 x 127 and 27 x 511. *)
  let low_one w bits = N.add (N.sub (N.shift_left N.one bits) (N.shift_left N.one w)) N.one in
  List.iter
    (fun (w, k) ->
      check (Printf.sprintf "all-ones modulus, %d limbs of %d bits" k w) (all_ones (w * k));
      if k > 1 then check (Printf.sprintf "2^%d - 2^%d + 1" (w * k) w) (low_one w (w * k)))
    [ (29, 1); (29, 9); (29, 15); (28, 16); (28, 63); (27, 66); (27, 255); (26, 265); (26, 1023);
      (29, 18); (29, 31); (28, 32); (28, 127); (27, 128); (27, 511) ];
  (* The squaring at the same edges, and at 1, 2 and 3 limbs: one limb
     leaves every pair loop empty, and two and three limbs give odd and
     even columns, with and without a pair beside the square. b = m - 1
     is -1, whose Montgomery form has every limb large; b = 2 starts the
     accumulator small. Each is raised to an exponent of 20, 64, 256 and
     300 bits, one per window width (1, 2, 4 and 5 bits); the exponents
     are sparse above their low 20 bits, so nearly every step is a
     squaring. *)
  let exponents =
    List.map
      (fun bits -> N.add (N.shift_left N.one (bits - 1)) (N.of_int 0x5a5a5))
      [ 20; 64; 256; 300 ]
  in
  let powers what m bases =
    List.iter
      (fun (base, b) ->
        List.iter
          (fun e ->
            Alcotest.check nat
              (Printf.sprintf "%s, b = %s, %d-bit exponent" what base (N.bit_length e))
              (N.mod_pow_naive b e m) (N.mod_pow b e m))
          exponents)
      bases
  in
  List.iter
    (fun (w, k) ->
      List.iter
        (fun (what, m) -> powers what m [ ("m - 1", N.sub m N.one); ("2", N.two) ])
        ((Printf.sprintf "all-ones modulus, %d limbs of %d bits" k w, all_ones (w * k))
        ::
        (if k > 1 then [ (Printf.sprintf "2^%d - 2^%d + 1" (w * k) w, low_one w (w * k)) ]
         else [])))
    [ (29, 1); (29, 2); (29, 3); (29, 15); (28, 16); (28, 63); (27, 66); (27, 255); (26, 265);
      (26, 1023) ];
  (* The fixed kernels' bands and their neighbours. Odd moduli of 233 to
     259 bits, 9 limbs of 29 bits with R = 2^261 > 4m, take [Mont9]; 505
     to 530 bits, 19 limbs of 28 bits with R = 2^532 > 4m, take [Mont19].
     Their lazy products stay below 2m. 232 and 504 bits (8 and 18 limbs)
     and 260, 261, 531 and 532 bits (R <= 4m) stay on the column loops.
     Each all-ones and 2^k - 2^w + 1 modulus is raised from b = m - 1, 2,
     m - 2 and floor(m/2) to the four exponents. A copy that ran [Mont9]
     at 260 and 261 bits got 28 of its 64 cases wrong, and one that ran
     [Mont19] at 531 and 532 bits 28 of its 64. *)
  List.iter
    (fun (w, bits) ->
      List.iter
        (fun (what, m) ->
          powers what m
            [ ("m - 1", N.sub m N.one); ("2", N.two); ("m - 2", N.sub m N.two);
              ("floor(m/2)", N.shift_right m 1) ])
        [ (Printf.sprintf "all-ones modulus, %d bits" bits, all_ones bits);
          (Printf.sprintf "2^%d - 2^%d + 1" bits w, low_one w bits) ])
    (List.map (fun bits -> (29, bits)) [ 232; 233; 256; 259; 260; 261 ]
    @ List.map (fun bits -> (28, bits)) [ 504; 505; 512; 530; 531; 532 ]);
  (* m = r^2 for odd r of about 128 bits (the 9-limb band) and about 256
     bits (the 19-limb band), b = r: the result is 0, but the lazy
     accumulator is m itself from the first square on, and only the final
     conditional subtraction brings it to 0 (a copy without it got all 24
     cases wrong). *)
  List.iter
    (fun r ->
      let m = N.mul r r in
      List.iter
        (fun e ->
          Alcotest.check nat
            (Printf.sprintf "r^2 modulus, %d bits, b = r, %d-bit exponent" (N.bit_length m)
               (N.bit_length e))
            N.zero (N.mod_pow r e m))
        exponents)
    [ N.add (N.shift_left N.one 127) (N.of_int 0x1234567);
      N.sub (N.shift_left N.one 129) N.one; all_ones 117;
      N.add (N.shift_left N.one 252) (N.of_int 0x1234567); all_ones 257; all_ones 265 ];
  check "all-ones modulus, 26,599 bits" (all_ones 26599);
  Alcotest.(check (list bool))
    "constants for odd moduli of 3 to 26,598 bits only"
    [ true; true; false; false; false; false ]
    (List.map
       (fun m -> N.mont m <> None)
       [ N.of_int 3; all_ones 26598; all_ones 26599; N.one; N.of_int 10; N.zero ]);
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

(* Allocation per exponentiation, on native code (bytecode boxes
   regardless), with exponents as wide as the modulus. A call builds its
   modulus's constants (one division for R^2 mod m), converts its base
   and allocates the kernel's workspace: the odd powers, the
   accumulator and the result (and the quotient limbs, on the column
   loops only). That reads 3,160 B at 256 bits and 6,832 B at 512 on
   x86-64, both on fixed kernels (3,240 B and 6,992 B while every call
   allocated quotient limbs). A Montgomery product allocates nothing:
   one that boxed a 64-bit column sum (24 B) per column would add about
   130 KB at 256 bits, where an exponentiation makes some 316 products
   of 17 columns. The fixed kernels' [Int64] locals are unboxed only
   while none of them escapes, so this gate also guards them. *)
let test_mod_pow_allocation () =
  if Sys.backend_type = Sys.Native then begin
    let d = Crypto.Drbg.create ~seed:"mod_pow allocation" in
    List.iter
      (fun (bits, bound) ->
        let draw () = N.of_bytes_be (Crypto.Drbg.generate d (bits / 8)) in
        let top = N.shift_left N.one (bits - 1) in
        let m = N.add top (N.rem (draw ()) top) in
        let m = if N.is_even m then N.add m N.one else m in
        let b = N.rem (draw ()) m and e = draw () in
        let used = Testkit.alloc_bytes_per_call (fun () -> N.mod_pow b e m) in
        Alcotest.(check bool)
          (Printf.sprintf "%d-bit mod_pow: %.0f B per call <= %d" bits used bound)
          true (used <= float bound))
      [ (256, 4096); (512, 8192) ]
  end

let props =
  List.map QCheck_alcotest.to_alcotest
    [ prop_add_commutative; prop_mul_commutative; prop_mul_distributes;
      prop_divmod_invariant; prop_matches_int; prop_bytes_roundtrip; prop_bytes_vs_fold;
      prop_string_roundtrip; prop_shift_mul; prop_modinv; prop_modpow_small;
      prop_karatsuba_vs_schoolbook; prop_montgomery_vs_naive; prop_montgomery_wide;
      prop_montgomery_band; prop_montgomery_band19; prop_divmod_huge;
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
    ("mod_pow allocation", `Quick, test_mod_pow_allocation);
    ("known primes", `Quick, test_primes_known);
    ("trial division below 2^16", `Quick, test_trial_division_small);
    ("prime generation", `Slow, test_prime_generation);
    ("prime generation gives up", `Quick, test_prime_generation_gives_up);
    ("random below", `Quick, test_random_below) ]
  @ List.map (fun (n, s, f) -> (n, s, f)) props

let () = Alcotest.run "bignum" [ ("nat+prime", suite) ]
