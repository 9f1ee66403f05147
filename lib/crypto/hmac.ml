let block_size = 64

(* Cells 0-7 are the chaining words after the block key ⊕ ipad, cells
   8-15 those after key ⊕ opad. *)
type key = int array

(* Compress key ⊕ [pad], the key zero-filled to a block of at most 64
   bytes, from the initial words, leaving the result in [k] from [at]. *)
let absorb_pad kern key pad k at =
  let block = kern.Kernel.block and h = kern.Kernel.words in
  Bytes.fill block 0 block_size (Char.chr pad);
  for i = 0 to String.length key - 1 do
    Bytes.unsafe_set block i (Char.unsafe_chr (Char.code (String.unsafe_get key i) lxor pad))
  done;
  Array.blit Sha256_block.iv 0 h 0 8;
  Sha256_block.compress kern h block 0;
  Array.blit h 0 k at 8

let prepare key =
  let key = if String.length key > block_size then Sha256.digest key else key in
  let kern = Kernel.get () and k = Array.make 16 0 in
  absorb_pad kern key 0x36 k 0;
  absorb_pad kern key 0x5c k 8;
  k

(* The inner hash runs on from the ipad words over the whole message; its
   digest is written into the domain's block and hashed on from the opad
   words. Neither builds a context or a digest string. *)
let mac_prepared k msg =
  let kern = Kernel.get () in
  let h = kern.Kernel.words and block = kern.Kernel.block in
  Array.blit k 0 h 0 8;
  Sha256_block.hash kern h ~before:block_size msg;
  Sha256_block.put_words h block 0;
  Array.blit k 8 h 0 8;
  Sha256_block.finish kern h block 32 (block_size + 32);
  Sha256_block.to_string h

let mac ~key msg = mac_prepared (prepare key) msg
let verify ~key ~msg ~tag = Ct.equal_string (mac ~key msg) tag
