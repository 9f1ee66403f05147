(* FIPS 180-4 SHA-256 over {!Sha256_block}'s compression. A context holds
   its chaining words in native ints, a partial block and the byte count;
   full blocks are compressed straight from the input, and only a partial
   block is buffered in [ctx.buf]. The 64-word message schedule is not
   part of a context: every compression on a domain uses that domain's
   one schedule in {!Kernel}, so [init] and [copy] allocate only the
   chaining words and the block buffer. [digest] builds no context: it
   hashes from the initial words in the domain's scratch words and block,
   so it allocates only its 32-byte result. *)

type ctx = {
  h : int array; (* 8 chaining words *)
  buf : Bytes.t; (* partial 64-byte block *)
  mutable buf_len : int;
  mutable total : int; (* bytes processed *)
}

let init () = { h = Array.copy Sha256_block.iv; buf = Bytes.create 64; buf_len = 0; total = 0 }
let copy ctx = { ctx with h = Array.copy ctx.h; buf = Bytes.copy ctx.buf }

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
      Sha256_block.compress kern ctx.h ctx.buf 0;
      ctx.buf_len <- 0
    end
  end;
  (* [compress] only reads the block, so the input needs no copy. *)
  let src = Bytes.unsafe_of_string s in
  while len - !pos >= 64 do
    Sha256_block.compress kern ctx.h src !pos;
    pos := !pos + 64
  done;
  if !pos < len then begin
    Bytes.blit_string s !pos ctx.buf ctx.buf_len (len - !pos);
    ctx.buf_len <- ctx.buf_len + (len - !pos)
  end

let finalize ctx =
  Sha256_block.finish (Kernel.get ()) ctx.h ctx.buf ctx.buf_len ctx.total;
  Sha256_block.to_string ctx.h

let digest s =
  let kern = Kernel.get () in
  let h = kern.Kernel.words in
  Array.blit Sha256_block.iv 0 h 0 8;
  Sha256_block.hash kern h ~before:0 s;
  Sha256_block.to_string h

let hex_digits = "0123456789abcdef"

let to_hex s =
  let n = String.length s in
  let b = Bytes.create (2 * n) in
  for i = 0 to n - 1 do
    let c = Char.code s.[i] in
    Bytes.unsafe_set b (2 * i) hex_digits.[c lsr 4];
    Bytes.unsafe_set b ((2 * i) + 1) hex_digits.[c land 15]
  done;
  Bytes.unsafe_to_string b

let hex_digest s = to_hex (digest s)
