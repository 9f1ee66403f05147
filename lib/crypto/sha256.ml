(* FIPS 180-4 SHA-256 over {!Sha256_block}'s compression. [digest]
   hashes from the initial words in the domain's scratch words and block
   ({!Kernel}), so it allocates only its 32-byte result. *)

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
