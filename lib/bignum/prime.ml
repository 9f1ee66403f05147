type rand = int -> string

let small_primes =
  [ 2; 3; 5; 7; 11; 13; 17; 19; 23; 29; 31; 37; 41; 43; 47; 53; 59; 61; 67;
    71; 73; 79; 83; 89; 97; 101; 103; 107; 109; 113; 127; 131; 137; 139;
    149; 151; 157; 163; 167; 173; 179; 181; 191; 193; 197; 199; 211; 223;
    227; 229; 233; 239; 241; 251 ]

(* The small primes in groups whose product is at most 2^36, so
   [Nat.rem_int] reduces a candidate once per group and each prime then
   divides a native int. *)
let prime_groups =
  let rec go groups prod group = function
    | [] -> List.rev ((prod, group) :: groups)
    | p :: ps when prod * p <= 1 lsl 36 -> go groups (prod * p) (p :: group) ps
    | p :: ps -> go ((prod, group) :: groups) p [ p ] ps
  in
  go [] 1 [] small_primes

let rec divides_any r = function [] -> false | p :: ps -> r mod p = 0 || divides_any r ps

let rec has_small_factor n = function
  | [] -> false
  | (prod, ps) :: groups -> divides_any (Nat.rem_int n prod) ps || has_small_factor n groups

let random_nat_bits rand k =
  if k <= 0 then Nat.zero
  else begin
    let nbytes = (k + 7) / 8 in
    let bytes = Bytes.of_string (rand nbytes) in
    (* Zero the excess high bits of the leading byte. *)
    let excess = (nbytes * 8) - k in
    let mask = 0xff lsr excess in
    Bytes.set bytes 0 (Char.chr (Char.code (Bytes.get bytes 0) land mask));
    Nat.of_bytes_be (Bytes.to_string bytes)
  end

let random_nat_below rand n =
  if Nat.is_zero n then invalid_arg "Prime.random_nat_below: zero bound";
  let bits = Nat.bit_length n in
  let rec try_once () =
    let candidate = random_nat_bits rand bits in
    if Nat.compare candidate n < 0 then candidate else try_once ()
  in
  try_once ()

(* One Miller–Rabin round with witness [a] against odd [n] where
   [n - 1 = d * 2^s], raising under [n]'s Montgomery constants [c] when
   [Nat.mont] gave them. Returns [true] if [n] passes (may be prime). *)
let mr_round c n n1 d s a =
  let x = match c with Some c -> Nat.mont_pow c a d | None -> Nat.mod_pow a d n in
  if Nat.equal x Nat.one || Nat.equal x n1 then true
  else begin
    let rec squares x i =
      if i >= s - 1 then false
      else begin
        let x = Nat.rem (Nat.mul x x) n in
        if Nat.equal x n1 then true else squares x (i + 1)
      end
    in
    squares x 0
  end

let is_probably_prime ?(rounds = 24) rand n =
  match Nat.to_int_opt n with
  | Some i when i < 2 -> false
  | Some i when List.mem i small_primes -> true
  | _ ->
      (* n is not a small prime, so a small prime factor makes it composite. *)
      if has_small_factor n prime_groups then false
      else begin
        let n1 = Nat.sub n Nat.one in
        let rec split d s = if Nat.is_even d then split (Nat.shift_right d 1) (s + 1) else (d, s) in
        let d, s = split n1 0 in
        let c = Nat.mont n in
        let rec run k =
          if k = 0 then true
          else begin
            (* Witness in [2, n-2]. *)
            let a = Nat.add (random_nat_below rand (Nat.sub n (Nat.of_int 3))) Nat.two in
            if mr_round c n n1 d s a then run (k - 1) else false
          end
        in
        run rounds
      end

(* A working kernel finds a b-bit prime in about 0.35 b odd candidates, so
   100 b of them without one means a broken kernel: fail, do not spin. *)
let generate ?(rounds = 24) rand bits =
  if bits < 2 then invalid_arg "Prime.generate: need at least 2 bits";
  let top = Nat.shift_left Nat.one (bits - 1) in
  let rec attempt left =
    if left = 0 then
      Printf.ksprintf failwith "Prime.generate: no %d-bit prime in %d candidates" bits (100 * bits);
    let r = random_nat_bits rand (bits - 1) in
    (* Force the top bit and oddness. *)
    let candidate = Nat.add top r in
    let candidate = if Nat.is_even candidate then Nat.add candidate Nat.one else candidate in
    if Nat.bit_length candidate = bits && is_probably_prime ~rounds rand candidate
    then candidate
    else attempt (left - 1)
  in
  attempt (100 * bits)
