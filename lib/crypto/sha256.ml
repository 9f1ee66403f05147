(* FIPS 180-4 SHA-256. Words are 32-bit values held in native ints: a
   63-bit int takes the sum of five words without overflow, so additions
   mask once at the end, and a compression allocates nothing. Full blocks
   are compressed straight from the input; only a partial block is
   buffered in [ctx.buf]. The 64-word message schedule is not part of a
   context: every compression on a domain uses that domain's one schedule
   in {!Kernel}, so [init] and [copy] allocate only the chaining words and
   the block buffer. *)

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

type ctx = {
  h : int array; (* 8 chaining words *)
  buf : Bytes.t; (* partial 64-byte block *)
  mutable buf_len : int;
  mutable total : int; (* bytes processed *)
}

let init () =
  {
    h =
      [| 0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f; 0x9b05688c; 0x1f83d9ab;
         0x5be0cd19 |];
    buf = Bytes.create 64;
    buf_len = 0;
    total = 0;
  }

let copy ctx = { ctx with h = Array.copy ctx.h; buf = Bytes.copy ctx.buf }

let mask = 0xffffffff

(* [x lor (x lsl 32)] puts a second copy of the word above the first, so a
   right shift by n < 32 followed by the mask is a right rotation. The copy
   loses the word's top bit past bit 62, which no rotation here reads. *)
let[@inline] dup x = x lor (x lsl 32)

(* Compress the 64-byte block at [off] in [block] into [ctx.h], using the
   domain's schedule in [kern] (see {!Kernel} for why sharing it is safe).
   The schedule and the table [k] both hold 64 words, so the loops index
   them unchecked. *)
let compress kern ctx block off =
  kern.Kernel.compressions <- kern.Kernel.compressions + 1;
  let h = ctx.h and w = kern.Kernel.schedule in
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
  let a = ref h.(0) and b = ref h.(1) and c = ref h.(2) and d = ref h.(3) in
  let e = ref h.(4) and f = ref h.(5) and g = ref h.(6) and hh = ref h.(7) in
  for i = 0 to 63 do
    let ee = dup !e and aa = dup !a in
    let s1 = ((ee lsr 6) lxor (ee lsr 11) lxor (ee lsr 25)) land mask in
    let ch = !g lxor (!e land (!f lxor !g)) in
    let t1 = !hh + s1 + ch + Array.unsafe_get k i + Array.unsafe_get w i in
    let s0 = ((aa lsr 2) lxor (aa lsr 13) lxor (aa lsr 22)) land mask in
    let maj = (!a land !b) lor (!c land (!a lor !b)) in
    hh := !g;
    g := !f;
    f := !e;
    e := (!d + t1) land mask;
    d := !c;
    c := !b;
    b := !a;
    a := (t1 + s0 + maj) land mask
  done;
  h.(0) <- (h.(0) + !a) land mask;
  h.(1) <- (h.(1) + !b) land mask;
  h.(2) <- (h.(2) + !c) land mask;
  h.(3) <- (h.(3) + !d) land mask;
  h.(4) <- (h.(4) + !e) land mask;
  h.(5) <- (h.(5) + !f) land mask;
  h.(6) <- (h.(6) + !g) land mask;
  h.(7) <- (h.(7) + !hh) land mask

let update ctx s =
  let len = String.length s in
  let kern = Kernel.get () in
  ctx.total <- ctx.total + len;
  let pos = ref 0 in
  (* Fill a partial buffer first. *)
  if ctx.buf_len > 0 then begin
    let need = 64 - ctx.buf_len in
    let take = min need len in
    Bytes.blit_string s 0 ctx.buf ctx.buf_len take;
    ctx.buf_len <- ctx.buf_len + take;
    pos := take;
    if ctx.buf_len = 64 then begin
      compress kern ctx ctx.buf 0;
      ctx.buf_len <- 0
    end
  end;
  (* [compress] only reads the block, so the input needs no copy. *)
  let src = Bytes.unsafe_of_string s in
  while len - !pos >= 64 do
    compress kern ctx src !pos;
    pos := !pos + 64
  done;
  if !pos < len then begin
    Bytes.blit_string s !pos ctx.buf ctx.buf_len (len - !pos);
    ctx.buf_len <- ctx.buf_len + (len - !pos)
  end

let finalize ctx =
  (* Append 0x80, zero padding, then the 64-bit big-endian bit length. *)
  let buf = ctx.buf and n = ctx.buf_len + 1 and kern = Kernel.get () in
  Bytes.set buf ctx.buf_len '\x80';
  if n > 56 then begin
    Bytes.fill buf n (64 - n) '\000';
    compress kern ctx buf 0;
    Bytes.fill buf 0 56 '\000'
  end
  else Bytes.fill buf n (56 - n) '\000';
  Bytes.set_int64_be buf 56 (Int64.shift_left (Int64.of_int ctx.total) 3);
  compress kern ctx buf 0;
  let out = Bytes.create 32 in
  for i = 0 to 7 do
    Bytes.set_int32_be out (4 * i) (Int32.of_int ctx.h.(i))
  done;
  Bytes.unsafe_to_string out

let digest s =
  let ctx = init () in
  update ctx s;
  finalize ctx

let to_hex s =
  let buf = Buffer.create (2 * String.length s) in
  String.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%02x" (Char.code c))) s;
  Buffer.contents buf

let hex_digest s = to_hex (digest s)
