(* Little-endian limb arrays in base 2^26, always normalized: the most
   significant limb of a non-zero number is non-zero, and zero is the empty
   array. 26-bit limbs keep every limb product below 2^52, well inside the
   native 63-bit integer, so no intermediate overflow is possible. *)

type t = int array

exception Underflow

let limb_bits = 26
let base = 1 lsl limb_bits
let limb_mask = base - 1

let zero : t = [||]
let one : t = [| 1 |]
let two : t = [| 2 |]

let normalize (a : int array) : t =
  let n = ref (Array.length a) in
  while !n > 0 && a.(!n - 1) = 0 do decr n done;
  if !n = Array.length a then a else Array.sub a 0 !n

let is_zero a = Array.length a = 0

let of_int n =
  if n < 0 then invalid_arg "Nat.of_int: negative";
  let rec limbs n = if n = 0 then [] else (n land limb_mask) :: limbs (n lsr limb_bits) in
  Array.of_list (limbs n)

let to_int_opt a =
  (* Accept anything whose value fits in a native int (62 value bits). *)
  let rec go i acc =
    if i < 0 then Some acc
    else if acc > (max_int - a.(i)) / base then None
    else go (i - 1) ((acc * base) + a.(i))
  in
  if Array.length a > 3 then None else go (Array.length a - 1) 0

let compare a b =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Stdlib.compare la lb
  else
    let rec go i =
      if i < 0 then 0
      else if a.(i) <> b.(i) then Stdlib.compare a.(i) b.(i)
      else go (i - 1)
    in
    go (la - 1)

let equal a b = compare a b = 0

let is_even a = is_zero a || a.(0) land 1 = 0
let is_odd a = not (is_even a)

let add a b =
  let la = Array.length a and lb = Array.length b in
  let n = max la lb in
  let r = Array.make (n + 1) 0 in
  let carry = ref 0 in
  for i = 0 to n - 1 do
    let s = (if i < la then a.(i) else 0) + (if i < lb then b.(i) else 0) + !carry in
    r.(i) <- s land limb_mask;
    carry := s lsr limb_bits
  done;
  r.(n) <- !carry;
  normalize r

let sub a b =
  let la = Array.length a and lb = Array.length b in
  if la < lb then raise Underflow;
  let r = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let d = a.(i) - (if i < lb then b.(i) else 0) - !borrow in
    if d < 0 then begin r.(i) <- d + base; borrow := 1 end
    else begin r.(i) <- d; borrow := 0 end
  done;
  if !borrow <> 0 then raise Underflow;
  normalize r

let mul_schoolbook a b =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then zero
  else begin
    let r = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let carry = ref 0 in
      let ai = a.(i) in
      for j = 0 to lb - 1 do
        let t = (ai * b.(j)) + r.(i + j) + !carry in
        r.(i + j) <- t land limb_mask;
        carry := t lsr limb_bits
      done;
      (* Propagate the final carry; it can itself overflow a limb. *)
      let k = ref (i + lb) in
      while !carry <> 0 do
        let t = r.(!k) + !carry in
        r.(!k) <- t land limb_mask;
        carry := t lsr limb_bits;
        incr k
      done
    done;
    normalize r
  end

let rec int_bits v = if v = 0 then 0 else 1 + int_bits (v lsr 1)

let bit_length a =
  let n = Array.length a in
  if n = 0 then 0 else ((n - 1) * limb_bits) + int_bits a.(n - 1)

let bit a i =
  let limb = i / limb_bits and off = i mod limb_bits in
  limb < Array.length a && (a.(limb) lsr off) land 1 = 1

let shift_left a k =
  if k < 0 then invalid_arg "Nat.shift_left: negative shift";
  if is_zero a || k = 0 then a
  else begin
    let limbs = k / limb_bits and bits = k mod limb_bits in
    let la = Array.length a in
    let r = Array.make (la + limbs + 1) 0 in
    if bits = 0 then Array.blit a 0 r limbs la
    else begin
      let carry = ref 0 in
      for i = 0 to la - 1 do
        let t = (a.(i) lsl bits) lor !carry in
        r.(i + limbs) <- t land limb_mask;
        carry := t lsr limb_bits
      done;
      r.(la + limbs) <- !carry
    end;
    normalize r
  end

let shift_right a k =
  if k < 0 then invalid_arg "Nat.shift_right: negative shift";
  if is_zero a || k = 0 then a
  else begin
    let limbs = k / limb_bits and bits = k mod limb_bits in
    let la = Array.length a in
    if limbs >= la then zero
    else begin
      let n = la - limbs in
      let r = Array.make n 0 in
      if bits = 0 then Array.blit a limbs r 0 n
      else begin
        for i = 0 to n - 1 do
          let lo = a.(i + limbs) lsr bits in
          let hi = if i + limbs + 1 < la then (a.(i + limbs + 1) lsl (limb_bits - bits)) land limb_mask else 0 in
          r.(i) <- lo lor hi
        done
      end;
      normalize r
    end
  end

(* Below this many limbs (~700 bits) the schoolbook inner loop wins; above
   it the three-multiplication split pays for its extra additions. Tuned on
   the RSA sizes the benches sweep (512..2048 bits). *)
let karatsuba_threshold = 27

let rec mul a b =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then zero
  else if la < karatsuba_threshold || lb < karatsuba_threshold then mul_schoolbook a b
  else begin
    (* Split both operands at [k] limbs: a = a1*B^k + a0, b = b1*B^k + b0,
       a*b = z2*B^2k + z1*B^k + z0 with z1 = (a0+a1)(b0+b1) - z0 - z2. *)
    let k = (max la lb + 1) / 2 in
    let lo x = normalize (Array.sub x 0 (min k (Array.length x))) in
    let hi x = if Array.length x <= k then zero else Array.sub x k (Array.length x - k) in
    let a0 = lo a and a1 = hi a and b0 = lo b and b1 = hi b in
    let z0 = mul a0 b0 in
    let z2 = mul a1 b1 in
    (* (a0+a1)(b0+b1) >= z0 + z2, so the subtractions cannot underflow. *)
    let z1 = sub (sub (mul (add a0 a1) (add b0 b1)) z0) z2 in
    add (add (shift_left z2 (2 * k * limb_bits)) (shift_left z1 (k * limb_bits))) z0
  end

(* Division by a single limb; returns (quotient, remainder-as-int). *)
let divmod_limb a d =
  let la = Array.length a in
  let q = Array.make la 0 in
  let r = ref 0 in
  for i = la - 1 downto 0 do
    let cur = (!r lsl limb_bits) lor a.(i) in
    q.(i) <- cur / d;
    r := cur mod d
  done;
  (normalize q, !r)

(* Knuth Algorithm D. [u] and [v] are limb arrays with len v >= 2 and
   u >= v. Returns (quotient, remainder). *)
let divmod_knuth u v =
  let n = Array.length v in
  (* Normalize so the top limb of v has its high bit set. *)
  let rec leading_shift x acc = if x land (base lsr 1) <> 0 then acc else leading_shift (x lsl 1) (acc + 1) in
  let s = leading_shift v.(n - 1) 0 in
  let v =
    let sv = shift_left v s in
    assert (Array.length sv = n);
    sv
  in
  let u =
    (* Extend by one top limb as Algorithm D requires. *)
    let su = shift_left u s in
    let m = Array.length su in
    let r = Array.make (m + 1) 0 in
    Array.blit su 0 r 0 m;
    r
  in
  let m = Array.length u - 1 - n in
  let q = Array.make (m + 1) 0 in
  for j = m downto 0 do
    let top2 = (u.(j + n) lsl limb_bits) lor u.(j + n - 1) in
    let qhat = ref (top2 / v.(n - 1)) in
    let rhat = ref (top2 mod v.(n - 1)) in
    if !qhat >= base then begin qhat := base - 1; rhat := top2 - (!qhat * v.(n - 1)) end;
    let continue = ref true in
    while !continue && !rhat < base do
      if !qhat * v.(n - 2) > (!rhat lsl limb_bits) lor u.(j + n - 2) then begin
        decr qhat;
        rhat := !rhat + v.(n - 1)
      end else continue := false
    done;
    (* Multiply and subtract: u[j..j+n] -= qhat * v. *)
    let borrow = ref 0 and carry = ref 0 in
    for i = 0 to n - 1 do
      let p = (!qhat * v.(i)) + !carry in
      carry := p lsr limb_bits;
      let d = u.(i + j) - (p land limb_mask) - !borrow in
      if d < 0 then begin u.(i + j) <- d + base; borrow := 1 end
      else begin u.(i + j) <- d; borrow := 0 end
    done;
    let d = u.(j + n) - !carry - !borrow in
    if d < 0 then begin
      (* qhat was one too large: add v back. *)
      u.(j + n) <- d + base;
      decr qhat;
      let c = ref 0 in
      for i = 0 to n - 1 do
        let s2 = u.(i + j) + v.(i) + !c in
        u.(i + j) <- s2 land limb_mask;
        c := s2 lsr limb_bits
      done;
      u.(j + n) <- (u.(j + n) + !c) land limb_mask
    end else u.(j + n) <- d;
    q.(j) <- !qhat
  done;
  let r = normalize (Array.sub u 0 n) in
  (normalize q, shift_right r s)

(* [r < d <= 2^36] keeps [(r lsl 26) lor limb] below 2^62. *)
let rem_int a d =
  if d <= 0 || d > 1 lsl 36 then invalid_arg "Nat.rem_int: divisor out of range";
  let r = ref 0 in
  for i = Array.length a - 1 downto 0 do
    r := ((!r lsl limb_bits) lor a.(i)) mod d
  done;
  !r

let divmod a b =
  if is_zero b then raise Division_by_zero;
  if compare a b < 0 then (zero, a)
  else if Array.length b = 1 then
    let q, r = divmod_limb a b.(0) in
    (q, of_int r)
  else divmod_knuth (Array.copy a) b

let div a b = fst (divmod a b)
let rem a b = snd (divmod a b)

let mod_pow_naive b e m =
  if is_zero m then raise Division_by_zero;
  if equal m one then zero
  else begin
    let result = ref one in
    let b = ref (rem b m) in
    let nbits = bit_length e in
    for i = 0 to nbits - 1 do
      if bit e i then result := rem (mul !result !b) m;
      if i < nbits - 1 then b := rem (mul !b !b) m
    done;
    !result
  end

(* --- Montgomery arithmetic (odd moduli) ---------------------------------

   The kernel works on limbs of its own width w, which it takes from the
   modulus: n = ceil(bits(m) / w) limbs, each an [int array] of exactly n
   entries. The multiplier scans products column by column, in the
   finely integrated product-scanning order of Koç, Acar and Kaliski
   (1996): column k sums every x_j*y_(k-j) and q_j*m_(k-j) in one native
   int before it takes the low limb and carries the rest into column
   k+1. Columns 0..n-1 each fix the quotient limb q_k that clears their
   low limb; columns n..2n-1 are the limbs of the result, which is below
   2m.

   Headroom: a limb product is at most (2^w-1)^2 and a column holds at
   most 2n of them. If every column sum is at most B = 2n(2^w-1)2^w, a
   carry is at most B/2^w = 2n(2^w-1), so the next sum is at most
   2n(2^w-1) + 2n(2^w-1)^2 = B again. A sum is only ever masked
   ([land]) and shifted ([lsr]), so it reads as an unsigned 63-bit
   number and needs B < 2^63, which n < 2^(62-2w) guarantees:
   B < 2n*4^w <= 2^63. The width is the widest of 29, 28, 27 and 26 bits
   that meets this bound: 29 bits up to 15 limbs (435-bit moduli), 28 up
   to 63 (1,764 bits), 27 up to 255 (6,885 bits) and 26 up to 1,023
   (26,598 bits). Wider moduli take [mod_pow_naive].

   The squaring walks the same columns, but a column's x-products come
   in symmetric pairs x_i*x_(k-i) = x_(k-i)*x_i, so it sums each pair
   once, i < k-i, and adds that sum twice, with the square x_(k/2)^2 of
   an even column once; it pairs the quotient products q_i*m_(k-i) and
   q_(k-i)*m_i in the same iteration. A column thus adds exactly the
   products the multiply adds for y = x, all non-negative, so every
   partial sum is at most the multiply's column total and the bound B,
   and the width rule above holds for it unchanged.

   Two limb counts take fixed kernels instead: the same multiply and
   squaring written out by gen_mont.ml as straight-line columns over
   limbs held in locals. [Mont9] takes odd moduli of 233 to 259 bits (9
   limbs of 29 bits: every Miller-Rabin candidate and RSA CRT half of a
   512-bit key), [Mont19] those of 505 to 530 bits (19 limbs of 28 bits:
   a 512-bit key's modulus, so every verify and every sign's fault
   check). They add the same products per column, so the bound B holds;
   a column sums the products that are ready first and adds the carry
   last, so only that add waits on the previous column. They reduce
   lazily: with R = 2^(w n) > 4m, a product of x, y < 2m is
   (xy + qm)/R < 4m^2/R + m < 2m, so no product takes the conditional
   subtraction, and [mont_pow] takes it once, on its result. *)

let mont_width bits =
  let rec pick w =
    if w < 26 then None
    else if (bits + w - 1) / w < 1 lsl (62 - (2 * w)) then Some w
    else pick (w - 1)
  in
  pick 29

(* [a]'s limbs of [from] bits repacked as [n] limbs of [into] bits, low
   limbs first: the number itself when it fits in [into * n] bits. *)
let repack ~from ~into n a =
  let mask = (1 lsl into) - 1 and la = Array.length a in
  let r = Array.make n 0 in
  let acc = ref 0 and bits = ref 0 and i = ref 0 in
  for j = 0 to n - 1 do
    while !bits < into && !i < la do
      acc := !acc lor (a.(!i) lsl !bits);
      bits := !bits + from;
      incr i
    done;
    r.(j) <- !acc land mask;
    acc := !acc lsr into;
    bits := !bits - into
  done;
  r

(* Limbs of w bits back to a normalized [t]. *)
let of_width ~width a =
  let top = ref (Array.length a - 1) in
  while !top >= 0 && a.(!top) = 0 do
    decr top
  done;
  let bits = if !top < 0 then 0 else (!top * width) + int_bits a.(!top) in
  repack ~from:width ~into:limb_bits ((bits + limb_bits - 1) / limb_bits) a

(* dst <- dst - m when dst >= m, for dst below 2m, with [over] set when
   dst has a bit above its top limb. *)
let sub_if_ge ~width ~over m dst =
  let n = Array.length m in
  let mask = (1 lsl width) - 1 in
  let i = ref (n - 1) in
  while !i >= 0 && dst.(!i) = m.(!i) do
    decr i
  done;
  if over || !i < 0 || dst.(!i) > m.(!i) then begin
    let borrow = ref 0 in
    for j = 0 to n - 1 do
      let d = dst.(j) - m.(j) - !borrow in
      dst.(j) <- d land mask;
      borrow := if d < 0 then 1 else 0
    done
  end

(* The last column of a Montgomery product: its carry c gives the top
   limb of dst, which is then below 2m, and one conditional subtraction
   brings it below m. *)
let mont_finish ~width m dst c =
  dst.(Array.length m - 1) <- c land ((1 lsl width) - 1);
  sub_if_ge ~width ~over:(c lsr width <> 0) m dst

(* dst <- x * y / R mod m, with R = 2^(w n) and m' = -m^{-1} mod 2^w.
   x, y, dst and the quotient q are n-limb arrays, x and y below
   m; dst may alias x or y, because column n+k writes limb k and later
   columns read only limbs above k. With the widths checked once, every
   inner index stays below n, so the inner loops skip the bounds checks;
   they never read w. *)
let mont_mul ~width ~neg_inv m q x y dst =
  let n = Array.length m in
  if Array.length x <> n || Array.length y <> n || Array.length dst <> n || Array.length q <> n
  then invalid_arg "Nat.mod_pow: Montgomery operand width";
  let mask = (1 lsl width) - 1 in
  let c = ref 0 in
  for k = 0 to n - 1 do
    let s = ref (!c + (x.(k) * y.(0))) in
    for j = 0 to k - 1 do
      s :=
        !s
        + (Array.unsafe_get x j * Array.unsafe_get y (k - j))
        + (Array.unsafe_get q j * Array.unsafe_get m (k - j))
    done;
    let qk = !s * neg_inv land mask in
    q.(k) <- qk;
    c := (!s + (qk * m.(0))) lsr width
  done;
  for k = n to (2 * n) - 2 do
    let s = ref !c in
    for j = k - n + 1 to n - 1 do
      s :=
        !s
        + (Array.unsafe_get x j * Array.unsafe_get y (k - j))
        + (Array.unsafe_get q j * Array.unsafe_get m (k - j))
    done;
    dst.(k - n) <- !s land mask;
    c := !s lsr width
  done;
  mont_finish ~width m dst !c

(* dst <- x^2 / R mod m: [mont_mul] with y = x, each symmetric pair of a
   column summed once. Column k sums the pairs (i, k-i), i < k-i, in two
   accumulators: x_i*x_(k-i) in [a], added twice, and
   q_i*m_(k-i) + q_(k-i)*m_i in [s]; an even column adds
   x_(k/2)^2 + q_(k/2)*m_(k/2) once. In columns 0..n-1 the pair (0, k)
   leaves out q_k*m_0, which is added once q_k is fixed, as in
   [mont_mul]. dst may alias x: column n+k writes limb k, and later
   columns read only limbs above k (x_0 and m_0 are read once, before
   column n). With the widths checked once, no access past them needs
   a bounds check. *)
let mont_sqr ~width ~neg_inv m q x dst =
  let n = Array.length m in
  if Array.length x <> n || Array.length dst <> n || Array.length q <> n then
    invalid_arg "Nat.mod_pow: Montgomery operand width";
  let mask = (1 lsl width) - 1 in
  let x0 = x.(0) and m0 = m.(0) in
  let s0 = x0 * x0 in
  let q0 = s0 * neg_inv land mask in
  q.(0) <- q0;
  let c = ref ((s0 + (q0 * m0)) lsr width) in
  for k = 1 to n - 1 do
    let a = ref (x0 * Array.unsafe_get x k) in
    let s = ref (!c + (q0 * Array.unsafe_get m k)) in
    for i = 1 to (k - 1) lsr 1 do
      a := !a + (Array.unsafe_get x i * Array.unsafe_get x (k - i));
      s :=
        !s
        + (Array.unsafe_get q i * Array.unsafe_get m (k - i))
        + (Array.unsafe_get q (k - i) * Array.unsafe_get m i)
    done;
    let s = !s + (!a lsl 1) in
    let s =
      if k land 1 = 0 then
        let h = k lsr 1 in
        s
        + (Array.unsafe_get x h * Array.unsafe_get x h)
        + (Array.unsafe_get q h * Array.unsafe_get m h)
      else s
    in
    let qk = s * neg_inv land mask in
    Array.unsafe_set q k qk;
    c := (s + (qk * m0)) lsr width
  done;
  for k = n to (2 * n) - 2 do
    let a = ref 0 and s = ref !c in
    for i = k - n + 1 to (k - 1) lsr 1 do
      a := !a + (Array.unsafe_get x i * Array.unsafe_get x (k - i));
      s :=
        !s
        + (Array.unsafe_get q i * Array.unsafe_get m (k - i))
        + (Array.unsafe_get q (k - i) * Array.unsafe_get m i)
    done;
    let s = !s + (!a lsl 1) in
    let s =
      if k land 1 = 0 then
        let h = k lsr 1 in
        s
        + (Array.unsafe_get x h * Array.unsafe_get x h)
        + (Array.unsafe_get q h * Array.unsafe_get m h)
      else s
    in
    Array.unsafe_set dst (k - n) (s land mask);
    c := s lsr width
  done;
  mont_finish ~width m dst !c

(* The kernel a modulus's products take: the column loops, or [Mont9] or
   [Mont19], whose products stay below 2m. *)
type kernel = Loops | Fixed9 | Fixed19

type mont = {
  modulus : t;
  width : int;
  limbs : int array;  (* the modulus in limbs of [width] bits *)
  neg_inv : int;  (* -m^{-1} mod 2^width *)
  r2 : int array;  (* R^2 mod m in the same limbs, R = 2^(width * n) *)
  kernel : kernel;
}

(* -m^{-1} mod 2^w by Newton lifting: for odd m0, x = m0 is an inverse
   mod 8, and each step doubles the number of correct low bits. *)
let mont_neg_inv ~width m0 =
  let mask = (1 lsl width) - 1 in
  let x = ref m0 in
  for _ = 1 to 4 do
    x := !x * ((2 - (m0 * !x)) land mask) land mask
  done;
  (mask + 1 - !x) land mask

(* A fixed kernel takes a modulus of its own limbs when its lazy
   reduction holds, R > 4m, that is bits(m) <= w n - 2: 233 to 259 bits
   for [Mont9], 505 to 530 for [Mont19]. *)
let kernel_for ~bits ~width n =
  if bits > (width * n) - 2 then Loops
  else if width = Mont9.width && n = Mont9.limbs then Fixed9
  else if width = Mont19.width && n = Mont19.limbs then Fixed19
  else Loops

let mont m =
  let bits = bit_length m in
  match mont_width bits with
  | Some width when is_odd m && bits > 1 ->
      let n = (bits + width - 1) / width in
      let limbs = repack ~from:limb_bits ~into:width n m in
      Some
        {
          modulus = m;
          width;
          limbs;
          neg_inv = mont_neg_inv ~width limbs.(0);
          r2 = repack ~from:limb_bits ~into:width n (rem (shift_left one (2 * width * n)) m);
          kernel = kernel_for ~bits ~width n;
        }
  | _ -> None

(* The products of [mont_pow], through the kernel [mont] picked; only
   the loops read the quotient limbs [q]. *)
let mmul c q x y dst =
  match c.kernel with
  | Fixed9 -> Mont9.mul ~neg_inv:c.neg_inv c.limbs x y dst
  | Fixed19 -> Mont19.mul ~neg_inv:c.neg_inv c.limbs x y dst
  | Loops -> mont_mul ~width:c.width ~neg_inv:c.neg_inv c.limbs q x y dst

let msqr c q x dst =
  match c.kernel with
  | Fixed9 -> Mont9.sqr ~neg_inv:c.neg_inv c.limbs x dst
  | Fixed19 -> Mont19.sqr ~neg_inv:c.neg_inv c.limbs x dst
  | Loops -> mont_sqr ~width:c.width ~neg_inv:c.neg_inv c.limbs q x dst

let mont_pow c b e =
  if is_zero e then one
  else
    let b = rem b c.modulus in
    if is_zero b then zero
    else begin
      let { width; limbs = m; r2; _ } = c in
      let n = Array.length m in
      let q = if c.kernel = Loops then Array.make n 0 else [||] in
      let nbits = bit_length e in
      (* Sliding window: precompute the odd powers b^1, b^3, ...,
         b^(2^win - 1) in Montgomery form; larger exponents amortize
         bigger tables, and a public exponent such as 65537 needs b
         alone. *)
      let win =
        if nbits <= 20 then 1 else if nbits <= 64 then 2 else if nbits <= 256 then 4 else 5
      in
      let tbl = Array.init (1 lsl (win - 1)) (fun _ -> Array.make n 0) in
      mmul c q (repack ~from:limb_bits ~into:width n b) r2 tbl.(0);
      if win > 1 then begin
        let b2 = Array.make n 0 in
        msqr c q tbl.(0) b2;
        for i = 1 to Array.length tbl - 1 do
          mmul c q tbl.(i - 1) b2 tbl.(i)
        done
      end;
      let acc = Array.make n 0 in
      let i = ref (nbits - 1) and first = ref true in
      while !i >= 0 do
        if not (bit e !i) then begin
          msqr c q acc acc;
          decr i
        end
        else begin
          (* Take the longest window ending in a set bit: bits i..l, l >= 0. *)
          let l = ref (max (!i - win + 1) 0) in
          while not (bit e !l) do
            incr l
          done;
          let v = ref 0 in
          for k = !i downto !l do
            v := (!v lsl 1) lor (if bit e k then 1 else 0)
          done;
          let power = tbl.((!v - 1) / 2) in
          (* The top window sets the accumulator to its power. *)
          if !first then Array.blit power 0 acc 0 n
          else begin
            for _ = !l to !i do
              msqr c q acc acc
            done;
            mmul c q acc power acc
          end;
          first := false;
          i := !l - 1
        end
      done;
      let onep = Array.make n 0 in
      onep.(0) <- 1;
      (* Back out of the Montgomery domain: below m + 1 from an
         accumulator below 2m, and m itself only when the result is 0,
         which the fixed kernels leave unreduced. *)
      mmul c q acc onep acc;
      sub_if_ge ~width ~over:false m acc;
      of_width ~width acc
    end

let mod_pow b e m =
  if is_zero m then raise Division_by_zero;
  match mont m with Some c -> mont_pow c b e | None -> mod_pow_naive b e m

let rec gcd a b = if is_zero b then a else gcd b (rem a b)

let mod_inv a m =
  (* Iterative extended Euclid on coefficient magnitudes. The coefficients
     of a, x_(i+1) = x_(i-1) - q_i x_i from x_0 = 0 and x_1 = 1, alternate
     in sign from x_1 on, so |x_(i+1)| = |x_(i-1)| + q_i |x_i| and the
     step count's parity gives the sign at the end. Since
     |x_i| r_(i-1) + |x_(i-1)| r_i = m, the coefficient returned, x_k with
     r_(k-1) >= 2, is at most m / 2, so a negative one is m less it. *)
  if is_zero m then None
  else begin
    let a = rem a m in
    if is_zero a then (if equal m one then Some zero else None)
    else begin
      let r0 = ref m and r1 = ref a in
      let x0 = ref zero and x1 = ref one and positive = ref false in
      while not (is_zero !r1) do
        let q, r = divmod !r0 !r1 in
        r0 := !r1;
        r1 := r;
        let x_new = add !x0 (mul q !x1) in
        x0 := !x1;
        x1 := x_new;
        positive := not !positive
      done;
      if not (equal !r0 one) then None else if !positive then Some !x0 else Some (sub m !x0)
    end
  end

(* Bytes and limbs convert in one pass through an accumulator that holds
   fewer than limb_bits + 8 bits. *)
let of_bytes_be s =
  let n = String.length s in
  let r = Array.make (((8 * n) + limb_bits - 1) / limb_bits) 0 in
  let acc = ref 0 and bits = ref 0 and j = ref 0 in
  for i = n - 1 downto 0 do
    acc := !acc lor (Char.code s.[i] lsl !bits);
    bits := !bits + 8;
    if !bits >= limb_bits then begin
      r.(!j) <- !acc land limb_mask;
      acc := !acc lsr limb_bits;
      bits := !bits - limb_bits;
      incr j
    end
  done;
  if !bits > 0 then r.(!j) <- !acc;
  normalize r

let to_bytes_be a =
  let nbytes = (bit_length a + 7) / 8 in
  let b = Bytes.create nbytes in
  let acc = ref 0 and bits = ref 0 and j = ref 0 in
  for i = nbytes - 1 downto 0 do
    if !bits < 8 then begin
      if !j < Array.length a then acc := !acc lor (a.(!j) lsl !bits);
      bits := !bits + limb_bits;
      incr j
    end;
    Bytes.set b i (Char.chr (!acc land 0xff));
    acc := !acc lsr 8;
    bits := !bits - 8
  done;
  Bytes.unsafe_to_string b

let to_bytes_be_padded len a =
  let s = to_bytes_be a in
  let n = String.length s in
  if n > len then invalid_arg "Nat.to_bytes_be_padded: does not fit";
  String.make (len - n) '\000' ^ s

let ten_pow7 = of_int 10_000_000

let of_string s =
  if s = "" then invalid_arg "Nat.of_string: empty";
  let r = ref zero in
  String.iter
    (fun c ->
      if c < '0' || c > '9' then invalid_arg "Nat.of_string: not a digit";
      r := add (mul !r (of_int 10)) (of_int (Char.code c - Char.code '0')))
    s;
  !r

let to_string a =
  if is_zero a then "0"
  else begin
    let chunks = ref [] in
    let cur = ref a in
    while not (is_zero !cur) do
      let q, r = divmod !cur ten_pow7 in
      let r = match to_int_opt r with Some i -> i | None -> assert false in
      chunks := r :: !chunks;
      cur := q
    done;
    match !chunks with
    | [] -> "0"
    | first :: rest ->
        let buf = Buffer.create 32 in
        Buffer.add_string buf (string_of_int first);
        List.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%07d" c)) rest;
        Buffer.contents buf
  end

let pp fmt a = Format.pp_print_string fmt (to_string a)
