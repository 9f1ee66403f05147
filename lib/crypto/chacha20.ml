(* RFC 8439 ChaCha20. The input state is 16 32-bit words in a native-int
   array, built once per message. A block copies it into 16 Int32 local
   refs, runs the 20 rounds over them, and XORs each finished word into
   the output four bytes at a time. ocamlopt keeps Int32 let-bindings and
   refs that never escape unboxed, in registers or stack slots, so a block
   allocates nothing. A word stored in an array, a record or a closure, or
   passed to a function that is not inlined, would be boxed: a block would
   allocate again. So the rounds are written out over the locals rather
   than through a quarter-round helper, and a word leaves them as a native
   int. *)

let mask = 0xffffffff

external ( +% ) : int32 -> int32 -> int32 = "%int32_add"
external ( ^% ) : int32 -> int32 -> int32 = "%int32_xor"

let[@inline] rotl x n = Int32.logor (Int32.shift_left x n) (Int32.shift_right_logical x (32 - n))

let word_le s off = Int32.to_int (String.get_int32_le s off) land mask

type t = int array

(* The 16-word input state; word 12, the block counter, is set by
   [xor_into] before each block. A wrong-length key or nonce raises
   [Invalid_argument] naming [fn]; [encrypt] builds the state first, so an
   empty message is checked too. *)
let state fn ~key ~nonce =
  if String.length key <> 32 then invalid_arg (fn ^ ": key must be 32 bytes");
  if String.length nonce <> 12 then invalid_arg (fn ^ ": nonce must be 12 bytes");
  let st = Array.make 16 0 in
  st.(0) <- 0x61707865;
  st.(1) <- 0x3320646e;
  st.(2) <- 0x79622d32;
  st.(3) <- 0x6b206574;
  for i = 0 to 7 do
    st.(4 + i) <- word_le key (4 * i)
  done;
  for i = 0 to 2 do
    st.(13 + i) <- word_le nonce (4 * i)
  done;
  st

let start ~key ~nonce = state "Chacha20.start" ~key ~nonce

(* XOR keystream word [w] (its low 32 bits) into the [n] bytes of [src]
   from [si], four at most and none when [n] <= 0, writing them to [dst]
   from [di]. *)
let[@inline] xor_word src si dst di n w =
  if n >= 4 then Bytes.set_int32_le dst di (String.get_int32_le src si ^% Int32.of_int w)
  else
    for i = 0 to n - 1 do
      Bytes.unsafe_set dst (di + i)
        (Char.unsafe_chr
           (Char.code (String.unsafe_get src (si + i)) lxor ((w lsr (8 * i)) land 0xff)))
    done

(* XOR the keystream block of [st] into the [n] bytes of [src] from [si],
   64 at most, writing them to [dst] from [di]. *)
let xor_block st src si dst di n =
  let x0 = ref (Int32.of_int (Array.unsafe_get st 0))
  and x1 = ref (Int32.of_int (Array.unsafe_get st 1))
  and x2 = ref (Int32.of_int (Array.unsafe_get st 2))
  and x3 = ref (Int32.of_int (Array.unsafe_get st 3))
  and x4 = ref (Int32.of_int (Array.unsafe_get st 4))
  and x5 = ref (Int32.of_int (Array.unsafe_get st 5))
  and x6 = ref (Int32.of_int (Array.unsafe_get st 6))
  and x7 = ref (Int32.of_int (Array.unsafe_get st 7))
  and x8 = ref (Int32.of_int (Array.unsafe_get st 8))
  and x9 = ref (Int32.of_int (Array.unsafe_get st 9))
  and x10 = ref (Int32.of_int (Array.unsafe_get st 10))
  and x11 = ref (Int32.of_int (Array.unsafe_get st 11))
  and x12 = ref (Int32.of_int (Array.unsafe_get st 12))
  and x13 = ref (Int32.of_int (Array.unsafe_get st 13))
  and x14 = ref (Int32.of_int (Array.unsafe_get st 14))
  and x15 = ref (Int32.of_int (Array.unsafe_get st 15)) in
  for _ = 1 to 10 do
    (* Columns: quarter rounds (0 4 8 12) (1 5 9 13) (2 6 10 14) (3 7 11 15). *)
    x0 := !x0 +% !x4; x12 := rotl (!x12 ^% !x0) 16;
    x8 := !x8 +% !x12; x4 := rotl (!x4 ^% !x8) 12;
    x0 := !x0 +% !x4; x12 := rotl (!x12 ^% !x0) 8;
    x8 := !x8 +% !x12; x4 := rotl (!x4 ^% !x8) 7;
    x1 := !x1 +% !x5; x13 := rotl (!x13 ^% !x1) 16;
    x9 := !x9 +% !x13; x5 := rotl (!x5 ^% !x9) 12;
    x1 := !x1 +% !x5; x13 := rotl (!x13 ^% !x1) 8;
    x9 := !x9 +% !x13; x5 := rotl (!x5 ^% !x9) 7;
    x2 := !x2 +% !x6; x14 := rotl (!x14 ^% !x2) 16;
    x10 := !x10 +% !x14; x6 := rotl (!x6 ^% !x10) 12;
    x2 := !x2 +% !x6; x14 := rotl (!x14 ^% !x2) 8;
    x10 := !x10 +% !x14; x6 := rotl (!x6 ^% !x10) 7;
    x3 := !x3 +% !x7; x15 := rotl (!x15 ^% !x3) 16;
    x11 := !x11 +% !x15; x7 := rotl (!x7 ^% !x11) 12;
    x3 := !x3 +% !x7; x15 := rotl (!x15 ^% !x3) 8;
    x11 := !x11 +% !x15; x7 := rotl (!x7 ^% !x11) 7;
    (* Diagonals: (0 5 10 15) (1 6 11 12) (2 7 8 13) (3 4 9 14). *)
    x0 := !x0 +% !x5; x15 := rotl (!x15 ^% !x0) 16;
    x10 := !x10 +% !x15; x5 := rotl (!x5 ^% !x10) 12;
    x0 := !x0 +% !x5; x15 := rotl (!x15 ^% !x0) 8;
    x10 := !x10 +% !x15; x5 := rotl (!x5 ^% !x10) 7;
    x1 := !x1 +% !x6; x12 := rotl (!x12 ^% !x1) 16;
    x11 := !x11 +% !x12; x6 := rotl (!x6 ^% !x11) 12;
    x1 := !x1 +% !x6; x12 := rotl (!x12 ^% !x1) 8;
    x11 := !x11 +% !x12; x6 := rotl (!x6 ^% !x11) 7;
    x2 := !x2 +% !x7; x13 := rotl (!x13 ^% !x2) 16;
    x8 := !x8 +% !x13; x7 := rotl (!x7 ^% !x8) 12;
    x2 := !x2 +% !x7; x13 := rotl (!x13 ^% !x2) 8;
    x8 := !x8 +% !x13; x7 := rotl (!x7 ^% !x8) 7;
    x3 := !x3 +% !x4; x14 := rotl (!x14 ^% !x3) 16;
    x9 := !x9 +% !x14; x4 := rotl (!x4 ^% !x9) 12;
    x3 := !x3 +% !x4; x14 := rotl (!x14 ^% !x3) 8;
    x9 := !x9 +% !x14; x4 := rotl (!x4 ^% !x9) 7
  done;
  (* A finished word is its local plus its input word; only the low 32
     bits of the native-int sum are written. *)
  xor_word src si dst di n (Int32.to_int !x0 + Array.unsafe_get st 0);
  xor_word src (si + 4) dst (di + 4) (n - 4) (Int32.to_int !x1 + Array.unsafe_get st 1);
  xor_word src (si + 8) dst (di + 8) (n - 8) (Int32.to_int !x2 + Array.unsafe_get st 2);
  xor_word src (si + 12) dst (di + 12) (n - 12) (Int32.to_int !x3 + Array.unsafe_get st 3);
  xor_word src (si + 16) dst (di + 16) (n - 16) (Int32.to_int !x4 + Array.unsafe_get st 4);
  xor_word src (si + 20) dst (di + 20) (n - 20) (Int32.to_int !x5 + Array.unsafe_get st 5);
  xor_word src (si + 24) dst (di + 24) (n - 24) (Int32.to_int !x6 + Array.unsafe_get st 6);
  xor_word src (si + 28) dst (di + 28) (n - 28) (Int32.to_int !x7 + Array.unsafe_get st 7);
  xor_word src (si + 32) dst (di + 32) (n - 32) (Int32.to_int !x8 + Array.unsafe_get st 8);
  xor_word src (si + 36) dst (di + 36) (n - 36) (Int32.to_int !x9 + Array.unsafe_get st 9);
  xor_word src (si + 40) dst (di + 40) (n - 40) (Int32.to_int !x10 + Array.unsafe_get st 10);
  xor_word src (si + 44) dst (di + 44) (n - 44) (Int32.to_int !x11 + Array.unsafe_get st 11);
  xor_word src (si + 48) dst (di + 48) (n - 48) (Int32.to_int !x12 + Array.unsafe_get st 12);
  xor_word src (si + 52) dst (di + 52) (n - 52) (Int32.to_int !x13 + Array.unsafe_get st 13);
  xor_word src (si + 56) dst (di + 56) (n - 56) (Int32.to_int !x14 + Array.unsafe_get st 14);
  xor_word src (si + 60) dst (di + 60) (n - 60) (Int32.to_int !x15 + Array.unsafe_get st 15)

(* Each call adds its block count to the domain's {!Cost} tally. *)
let count_blocks n =
  let kern = Kernel.get () in
  kern.Kernel.blocks <- kern.Kernel.blocks + n

let xor_into st ~counter src src_off dst dst_off len =
  if len < 0 || src_off < 0 || src_off > String.length src - len || dst_off < 0
     || dst_off > Bytes.length dst - len
  then invalid_arg "Chacha20.xor_into: range outside its buffer";
  let blocks = (len + 63) / 64 in
  count_blocks blocks;
  for b = 0 to blocks - 1 do
    st.(12) <- (counter + b) land mask;
    xor_block st src (src_off + (64 * b)) dst (dst_off + (64 * b)) (len - (64 * b))
  done

(* The keystream is the block XORed over 64 zero bytes, in place. *)
let block ~key ~nonce ~counter =
  let ks = Bytes.make 64 '\000' in
  xor_into (state "Chacha20.block" ~key ~nonce) ~counter (Bytes.unsafe_to_string ks) 0 ks 0 64;
  Bytes.unsafe_to_string ks

let encrypt ~key ~nonce ?(counter = 1) msg =
  let st = state "Chacha20.encrypt" ~key ~nonce and len = String.length msg in
  let out = Bytes.create len in
  xor_into st ~counter msg 0 out 0 len;
  Bytes.unsafe_to_string out
