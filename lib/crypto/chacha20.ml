(* RFC 8439 ChaCha20. Words are 32-bit values held in native ints, masked
   after each addition, so a block allocates nothing: the state is built
   once per message and each block's keystream lands in one reused
   64-byte buffer. *)

let mask = 0xffffffff
let[@inline] rotl x n = ((x lsl n) lor (x lsr (32 - n))) land mask

(* [x] is always a 16-word working state and the indices are constants
   below 16. *)
let[@inline] quarter x a b c d =
  Array.unsafe_set x a ((Array.unsafe_get x a + Array.unsafe_get x b) land mask);
  Array.unsafe_set x d (rotl (Array.unsafe_get x d lxor Array.unsafe_get x a) 16);
  Array.unsafe_set x c ((Array.unsafe_get x c + Array.unsafe_get x d) land mask);
  Array.unsafe_set x b (rotl (Array.unsafe_get x b lxor Array.unsafe_get x c) 12);
  Array.unsafe_set x a ((Array.unsafe_get x a + Array.unsafe_get x b) land mask);
  Array.unsafe_set x d (rotl (Array.unsafe_get x d lxor Array.unsafe_get x a) 8);
  Array.unsafe_set x c ((Array.unsafe_get x c + Array.unsafe_get x d) land mask);
  Array.unsafe_set x b (rotl (Array.unsafe_get x b lxor Array.unsafe_get x c) 7)

let word_le s off = Int32.to_int (String.get_int32_le s off) land mask

(* The 16-word input state; word 12 is the block counter. *)
let state ~key ~nonce ~counter =
  if String.length key <> 32 then invalid_arg "Chacha20.block: key must be 32 bytes";
  if String.length nonce <> 12 then invalid_arg "Chacha20.block: nonce must be 12 bytes";
  let st = Array.make 16 0 in
  st.(0) <- 0x61707865;
  st.(1) <- 0x3320646e;
  st.(2) <- 0x79622d32;
  st.(3) <- 0x6b206574;
  for i = 0 to 7 do
    st.(4 + i) <- word_le key (4 * i)
  done;
  st.(12) <- counter land mask;
  for i = 0 to 2 do
    st.(13 + i) <- word_le nonce (4 * i)
  done;
  st

(* Write the keystream block of [st] into [ks], using [x] (16 words) as the
   working state. *)
let keystream st x ks =
  Array.blit st 0 x 0 16;
  for _ = 1 to 10 do
    quarter x 0 4 8 12;
    quarter x 1 5 9 13;
    quarter x 2 6 10 14;
    quarter x 3 7 11 15;
    quarter x 0 5 10 15;
    quarter x 1 6 11 12;
    quarter x 2 7 8 13;
    quarter x 3 4 9 14
  done;
  for i = 0 to 15 do
    Bytes.set_int32_le ks (4 * i) (Int32.of_int (Array.unsafe_get x i + Array.unsafe_get st i))
  done

(* Each call adds its block count to the domain's {!Cost} tally. *)
let count_blocks n =
  let kern = Kernel.get () in
  kern.Kernel.blocks <- kern.Kernel.blocks + n

let block ~key ~nonce ~counter =
  count_blocks 1;
  let ks = Bytes.create 64 in
  keystream (state ~key ~nonce ~counter) (Array.make 16 0) ks;
  Bytes.unsafe_to_string ks

let encrypt ~key ~nonce ?(counter = 1) msg =
  let len = String.length msg in
  let out = Bytes.create len in
  if len > 0 then begin
    let st = state ~key ~nonce ~counter and x = Array.make 16 0 and ks = Bytes.create 64 in
    let blocks = (len + 63) / 64 in
    count_blocks blocks;
    for b = 0 to blocks - 1 do
      st.(12) <- (counter + b) land mask;
      keystream st x ks;
      let off = 64 * b in
      for i = 0 to min 64 (len - off) - 1 do
        Bytes.unsafe_set out (off + i)
          (Char.unsafe_chr (Char.code (String.unsafe_get msg (off + i)) lxor Char.code (Bytes.unsafe_get ks i)))
      done
    done
  end;
  Bytes.unsafe_to_string out
