(* RFC 8439 §2.5 Poly1305. The accumulator h and the clamped key r are
   five 26-bit limbs in native ints. A limb of h is under 2^27 when a block
   is added in, r's limbs are under 2^26 and 5 * r's under 2^29, so each
   column of the product is a sum of five terms under 2^56: far inside a
   63-bit int, with no carry lost. A block allocates nothing and takes no
   branch on the data, and neither does the final reduction. The state
   belongs to one MAC, so domains running MACs at once share nothing. *)

let m26 = 0x3ffffff
let m32 = 0xffffffff

(* 2^128, the bit past a whole block, as it falls in limb 4. *)
let hibit = 1 lsl 24

type t = {
  r0 : int;
  r1 : int;
  r2 : int;
  r3 : int;
  r4 : int;
  (* 5 * r_i: a column's limb past 2^130 wraps to 5 times itself mod p *)
  s1 : int;
  s2 : int;
  s3 : int;
  s4 : int;
  key : string;  (** the second half is s, added at the end *)
  last : Bytes.t;  (** a partial last block, padded out to 16 bytes *)
  mutable h0 : int;
  mutable h1 : int;
  mutable h2 : int;
  mutable h3 : int;
  mutable h4 : int;
}

let[@inline] word s off = Int32.to_int (String.get_int32_le s off) land m32
let[@inline] bword b off = Int32.to_int (Bytes.get_int32_le b off) land m32

let start ~key =
  if String.length key <> 32 then invalid_arg "Poly1305: key must be 32 bytes";
  let w0 = word key 0 and w1 = word key 4 and w2 = word key 8 and w3 = word key 12 in
  (* r clamped: r &= 0x0ffffffc0ffffffc0ffffffc0fffffff, limb by limb *)
  let r0 = w0 land 0x3ffffff
  and r1 = ((w0 lsr 26) lor (w1 lsl 6)) land 0x3ffff03
  and r2 = ((w1 lsr 20) lor (w2 lsl 12)) land 0x3ffc0ff
  and r3 = ((w2 lsr 14) lor (w3 lsl 18)) land 0x3f03fff
  and r4 = (w3 lsr 8) land 0x00fffff in
  {
    r0; r1; r2; r3; r4;
    s1 = r1 * 5; s2 = r2 * 5; s3 = r3 * 5; s4 = r4 * 5;
    key;
    last = Bytes.create 16;
    h0 = 0; h1 = 0; h2 = 0; h3 = 0; h4 = 0;
  }

(* h = (h + block) * r mod p, partly reduced: the block is the 128-bit
   little-endian number of words [w0..w3] plus [top] (2^128 or 0). *)
let[@inline] block st w0 w1 w2 w3 top =
  let h0 = st.h0 + (w0 land m26)
  and h1 = st.h1 + (((w0 lsr 26) lor (w1 lsl 6)) land m26)
  and h2 = st.h2 + (((w1 lsr 20) lor (w2 lsl 12)) land m26)
  and h3 = st.h3 + (((w2 lsr 14) lor (w3 lsl 18)) land m26)
  and h4 = st.h4 + ((w3 lsr 8) lor top) in
  let r0 = st.r0 and r1 = st.r1 and r2 = st.r2 and r3 = st.r3 and r4 = st.r4 in
  let s1 = st.s1 and s2 = st.s2 and s3 = st.s3 and s4 = st.s4 in
  let d0 = (h0 * r0) + (h1 * s4) + (h2 * s3) + (h3 * s2) + (h4 * s1)
  and d1 = (h0 * r1) + (h1 * r0) + (h2 * s4) + (h3 * s3) + (h4 * s2)
  and d2 = (h0 * r2) + (h1 * r1) + (h2 * r0) + (h3 * s4) + (h4 * s3)
  and d3 = (h0 * r3) + (h1 * r2) + (h2 * r1) + (h3 * r0) + (h4 * s4)
  and d4 = (h0 * r4) + (h1 * r3) + (h2 * r2) + (h3 * r1) + (h4 * r0) in
  let d1 = d1 + (d0 lsr 26) in
  let d2 = d2 + (d1 lsr 26) in
  let d3 = d3 + (d2 lsr 26) in
  let d4 = d4 + (d3 lsr 26) in
  let h0 = (d0 land m26) + ((d4 lsr 26) * 5) in
  st.h0 <- h0 land m26;
  st.h1 <- (d1 land m26) + (h0 lsr 26);
  st.h2 <- d2 land m26;
  st.h3 <- d3 land m26;
  st.h4 <- d4 land m26

let count n =
  let kern = Kernel.get () in
  kern.Kernel.poly_blocks <- kern.Kernel.poly_blocks + n

(* Every whole block of [len] bytes of [s] from [off]; their number. *)
let whole st s off len =
  let n = len / 16 in
  for i = 0 to n - 1 do
    let o = off + (16 * i) in
    block st (word s o) (word s (o + 4)) (word s (o + 8)) (word s (o + 12)) hibit
  done;
  n

(* The last [len mod 16] of those bytes, zero-filled to a block: RFC
   8439's pad16 when [one] is false (counted as a whole block), the tail
   of a raw message when it is (a 1 byte after the data, no 2^128). *)
let tail st s off len ~one =
  let n = len land 15 in
  let b = st.last in
  Bytes.fill b 0 16 '\000';
  Bytes.blit_string s (off + len - n) b 0 n;
  if one then Bytes.set b n '\001';
  block st (bword b 0) (bword b 4) (bword b 8) (bword b 12) (if one then 0 else hibit)

let absorb st s off len ~one =
  if len < 0 || off < 0 || off > String.length s - len then
    invalid_arg "Poly1305: range outside its string";
  let n = whole st s off len in
  if len land 15 = 0 then count n
  else begin
    tail st s off len ~one;
    count (n + 1)
  end

let pad16 st s off len = absorb st s off len ~one:false

let lengths st a b =
  block st (a land m32) ((a lsr 32) land m32) (b land m32) ((b lsr 32) land m32) hibit;
  count 1

(* [h] where [keep] is all ones, [g] where it is zero, without a branch. *)
let[@inline] pick keep h g = (h land keep) lor (g land lnot keep)

let finish st dst at =
  (* Carry h fully: each limb under 2^26, except that h1 may reach 2^26. *)
  let h1 = st.h1 in
  let h2 = st.h2 + (h1 lsr 26) and h1 = h1 land m26 in
  let h3 = st.h3 + (h2 lsr 26) and h2 = h2 land m26 in
  let h4 = st.h4 + (h3 lsr 26) and h3 = h3 land m26 in
  let h0 = st.h0 + ((h4 lsr 26) * 5) and h4 = h4 land m26 in
  let h1 = h1 + (h0 lsr 26) and h0 = h0 land m26 in
  (* g = h + 5 - 2^130 = h - p; g4 < 0 iff h < p. *)
  let g0 = h0 + 5 in
  let g1 = h1 + (g0 lsr 26) and g0 = g0 land m26 in
  let g2 = h2 + (g1 lsr 26) and g1 = g1 land m26 in
  let g3 = h3 + (g2 lsr 26) and g2 = g2 land m26 in
  let g4 = h4 + (g3 lsr 26) - (1 lsl 26) and g3 = g3 land m26 in
  let keep = g4 asr (Sys.int_size - 1) in
  let h0 = pick keep h0 g0 and h1 = pick keep h1 g1 and h2 = pick keep h2 g2 in
  let h3 = pick keep h3 g3 and h4 = pick keep h4 g4 in
  (* tag = (h + s) mod 2^128, in 32-bit words with carries. *)
  let key = st.key in
  let f0 = h0 + (h1 lsl 26) + word key 16 in
  let f1 = (f0 lsr 32) + (h2 lsl 20) + word key 20 in
  let f2 = (f1 lsr 32) + (h3 lsl 14) + word key 24 in
  let f3 = (f2 lsr 32) + (h4 lsl 8) + word key 28 in
  Bytes.set_int32_le dst at (Int32.of_int (f0 land m32));
  Bytes.set_int32_le dst (at + 4) (Int32.of_int (f1 land m32));
  Bytes.set_int32_le dst (at + 8) (Int32.of_int (f2 land m32));
  Bytes.set_int32_le dst (at + 12) (Int32.of_int (f3 land m32))

let mac ~key msg =
  let st = start ~key in
  absorb st msg 0 (String.length msg) ~one:true;
  let tag = Bytes.create 16 in
  finish st tag 0;
  Bytes.unsafe_to_string tag
