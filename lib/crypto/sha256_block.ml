(* SHA-256 (FIPS 180-4): the compression function, and a whole message
   hashed on from given chaining words, on which {!Sha256} and {!Hmac}
   build. Chaining words are 32-bit values in the first eight cells of a
   native-int array. A compression copies them into eight Int32 locals
   and runs the 64 rounds over those, unboxed as in {!Chacha20}; the
   message schedule is the domain's in {!Kernel}, held in native ints.
   Nothing here allocates, and every compression counts in {!Cost}. *)

let k =
  [| 0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b; 0x59f111f1; 0x923f82a4;
     0xab1c5ed5; 0xd807aa98; 0x12835b01; 0x243185be; 0x550c7dc3; 0x72be5d74; 0x80deb1fe;
     0x9bdc06a7; 0xc19bf174; 0xe49b69c1; 0xefbe4786; 0x0fc19dc6; 0x240ca1cc; 0x2de92c6f;
     0x4a7484aa; 0x5cb0a9dc; 0x76f988da; 0x983e5152; 0xa831c66d; 0xb00327c8; 0xbf597fc7;
     0xc6e00bf3; 0xd5a79147; 0x06ca6351; 0x14292967; 0x27b70a85; 0x2e1b2138; 0x4d2c6dfc;
     0x53380d13; 0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85; 0xa2bfe8a1; 0xa81a664b;
     0xc24b8b70; 0xc76c51a3; 0xd192e819; 0xd6990624; 0xf40e3585; 0x106aa070; 0x19a4c116;
     0x1e376c08; 0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a; 0x5b9cca4f; 0x682e6ff3;
     0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208; 0x90befffa; 0xa4506ceb; 0xbef9a3f7;
     0xc67178f2 |]

(* The chaining words before the first block. *)
let iv =
  [| 0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f; 0x9b05688c; 0x1f83d9ab;
     0x5be0cd19 |]

let mask = 0xffffffff

external ( +% ) : int32 -> int32 -> int32 = "%int32_add"
external ( ^% ) : int32 -> int32 -> int32 = "%int32_xor"
external ( &% ) : int32 -> int32 -> int32 = "%int32_and"
external ( |% ) : int32 -> int32 -> int32 = "%int32_or"

let[@inline] rotr x n = Int32.logor (Int32.shift_right_logical x n) (Int32.shift_left x (32 - n))
let[@inline] sigma0 a = rotr a 2 ^% rotr a 13 ^% rotr a 22
let[@inline] sigma1 e = rotr e 6 ^% rotr e 11 ^% rotr e 25
let[@inline] ch e f g = g ^% (e &% (f ^% g))
let[@inline] maj a b c = (a &% b) |% (c &% (a |% b))

(* Round constant [i] plus schedule word [i]; only the low 32 bits count. *)
let[@inline] kw w i = Int32.of_int (Array.unsafe_get k i + Array.unsafe_get w i)

(* [x lor (x lsl 32)] puts a second copy of the word above the first, so a
   right shift by n < 32 followed by the mask is a right rotation. The copy
   loses the word's top bit past bit 62, which no rotation here reads. *)
let[@inline] dup x = x lor (x lsl 32)

(* Compress the 64-byte block at [off] in [block] into the chaining words
   [h], using the domain's schedule in [kern]. The schedule and the table
   [k] both hold 64 words, so the loops index them unchecked. A round adds
   its two sums into the locals that hold the new e and the new a; the
   next round reads every role one local further on, so a loop turn is
   eight rounds and no word moves between locals. *)
let compress kern h block off =
  kern.Kernel.compressions <- kern.Kernel.compressions + 1;
  let w = kern.Kernel.schedule in
  for i = 0 to 15 do
    Array.unsafe_set w i (Int32.to_int (Bytes.get_int32_be block (off + (4 * i))) land mask)
  done;
  for i = 16 to 63 do
    let x = Array.unsafe_get w (i - 15) and y = Array.unsafe_get w (i - 2) in
    let xx = dup x and yy = dup y in
    let s0 = ((xx lsr 7) lxor (xx lsr 18) lxor (x lsr 3)) land mask in
    let s1 = ((yy lsr 17) lxor (yy lsr 19) lxor (y lsr 10)) land mask in
    Array.unsafe_set w i
      ((Array.unsafe_get w (i - 16) + s0 + Array.unsafe_get w (i - 7) + s1) land mask)
  done;
  let a = ref (Int32.of_int h.(0)) and b = ref (Int32.of_int h.(1)) in
  let c = ref (Int32.of_int h.(2)) and d = ref (Int32.of_int h.(3)) in
  let e = ref (Int32.of_int h.(4)) and f = ref (Int32.of_int h.(5)) in
  let g = ref (Int32.of_int h.(6)) and hh = ref (Int32.of_int h.(7)) in
  for j = 0 to 7 do
    let i = 8 * j in
    let t = !hh +% sigma1 !e +% ch !e !f !g +% kw w i in
    d := !d +% t;
    hh := t +% sigma0 !a +% maj !a !b !c;
    let t = !g +% sigma1 !d +% ch !d !e !f +% kw w (i + 1) in
    c := !c +% t;
    g := t +% sigma0 !hh +% maj !hh !a !b;
    let t = !f +% sigma1 !c +% ch !c !d !e +% kw w (i + 2) in
    b := !b +% t;
    f := t +% sigma0 !g +% maj !g !hh !a;
    let t = !e +% sigma1 !b +% ch !b !c !d +% kw w (i + 3) in
    a := !a +% t;
    e := t +% sigma0 !f +% maj !f !g !hh;
    let t = !d +% sigma1 !a +% ch !a !b !c +% kw w (i + 4) in
    hh := !hh +% t;
    d := t +% sigma0 !e +% maj !e !f !g;
    let t = !c +% sigma1 !hh +% ch !hh !a !b +% kw w (i + 5) in
    g := !g +% t;
    c := t +% sigma0 !d +% maj !d !e !f;
    let t = !b +% sigma1 !g +% ch !g !hh !a +% kw w (i + 6) in
    f := !f +% t;
    b := t +% sigma0 !c +% maj !c !d !e;
    let t = !a +% sigma1 !f +% ch !f !g !hh +% kw w (i + 7) in
    e := !e +% t;
    a := t +% sigma0 !b +% maj !b !c !d
  done;
  h.(0) <- (h.(0) + Int32.to_int !a) land mask;
  h.(1) <- (h.(1) + Int32.to_int !b) land mask;
  h.(2) <- (h.(2) + Int32.to_int !c) land mask;
  h.(3) <- (h.(3) + Int32.to_int !d) land mask;
  h.(4) <- (h.(4) + Int32.to_int !e) land mask;
  h.(5) <- (h.(5) + Int32.to_int !f) land mask;
  h.(6) <- (h.(6) + Int32.to_int !g) land mask;
  h.(7) <- (h.(7) + Int32.to_int !hh) land mask

(* [block] holds the last [len] < 64 bytes of a message of [total] bytes.
   Append 0x80, zeros and the 64-bit big-endian bit length, and compress:
   one block, or two when [len] > 55. *)
let finish kern h block len total =
  let n = len + 1 in
  Bytes.set block len '\x80';
  if n > 56 then begin
    Bytes.fill block n (64 - n) '\000';
    compress kern h block 0;
    Bytes.fill block 0 56 '\000'
  end
  else Bytes.fill block n (56 - n) '\000';
  Bytes.set_int64_be block 56 (Int64.shift_left (Int64.of_int total) 3);
  compress kern h block 0

(* Hash all of [s] into [h], which holds the chaining words after [before]
   bytes, a multiple of 64. Full blocks are compressed straight from [s]
   (a compression only reads its block); the rest is padded in the
   domain's block. A message of at most 55 bytes is one compression. *)
let hash kern h ~before s =
  let len = String.length s in
  let full = len land lnot 63 and block = kern.Kernel.block in
  let src = Bytes.unsafe_of_string s in
  for b = 0 to (len / 64) - 1 do
    compress kern h src (64 * b)
  done;
  Bytes.blit_string s full block 0 (len - full);
  finish kern h block (len - full) (before + len)

let put_words h dst off =
  for i = 0 to 7 do
    Bytes.set_int32_be dst (off + (4 * i)) (Int32.of_int h.(i))
  done

let to_string h =
  let out = Bytes.create 32 in
  put_words h out 0;
  Bytes.unsafe_to_string out
