(* Crypto substrate tests: published vectors for SHA-256 / HMAC / ChaCha20
   / Poly1305, committed ChaCha20-Poly1305 vectors for AEAD, behavioural and
   property tests for DRBG, AEAD, and RSA. *)

module Sha256 = Crypto.Sha256
module Hmac = Crypto.Hmac
module Chacha20 = Crypto.Chacha20
module Drbg = Crypto.Drbg
module Aead = Crypto.Aead
module Poly1305 = Crypto.Poly1305
module Rsa = Crypto.Rsa
module Ct = Crypto.Ct
module Cost = Crypto.Cost

let hex s =
  (* Parse "ab cd" or "abcd" hex into raw bytes. *)
  let buf = Buffer.create 32 in
  let pending = ref None in
  String.iter
    (fun c ->
      if c <> ' ' && c <> '\n' then
        let v =
          match c with
          | '0' .. '9' -> Char.code c - Char.code '0'
          | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
          | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
          | _ -> invalid_arg "hex"
        in
        match !pending with
        | None -> pending := Some v
        | Some hi ->
            Buffer.add_char buf (Char.chr ((hi lsl 4) lor v));
            pending := None)
    s;
  Buffer.contents buf

(* --- Reference implementations ---

   SHA-256 and ChaCha20 as they were on Int32 words in arrays, Poly1305
   on arbitrary-precision naturals mod 2^130 - 5, and HMAC and AEAD
   composed over them by concatenation, kept as the oracle for the
   kernels: every output byte must agree. *)

module Ref_sha256 = struct
  let k =
    [| 0x428a2f98l; 0x71374491l; 0xb5c0fbcfl; 0xe9b5dba5l; 0x3956c25bl;
       0x59f111f1l; 0x923f82a4l; 0xab1c5ed5l; 0xd807aa98l; 0x12835b01l;
       0x243185bel; 0x550c7dc3l; 0x72be5d74l; 0x80deb1fel; 0x9bdc06a7l;
       0xc19bf174l; 0xe49b69c1l; 0xefbe4786l; 0x0fc19dc6l; 0x240ca1ccl;
       0x2de92c6fl; 0x4a7484aal; 0x5cb0a9dcl; 0x76f988dal; 0x983e5152l;
       0xa831c66dl; 0xb00327c8l; 0xbf597fc7l; 0xc6e00bf3l; 0xd5a79147l;
       0x06ca6351l; 0x14292967l; 0x27b70a85l; 0x2e1b2138l; 0x4d2c6dfcl;
       0x53380d13l; 0x650a7354l; 0x766a0abbl; 0x81c2c92el; 0x92722c85l;
       0xa2bfe8a1l; 0xa81a664bl; 0xc24b8b70l; 0xc76c51a3l; 0xd192e819l;
       0xd6990624l; 0xf40e3585l; 0x106aa070l; 0x19a4c116l; 0x1e376c08l;
       0x2748774cl; 0x34b0bcb5l; 0x391c0cb3l; 0x4ed8aa4al; 0x5b9cca4fl;
       0x682e6ff3l; 0x748f82eel; 0x78a5636fl; 0x84c87814l; 0x8cc70208l;
       0x90befffal; 0xa4506cebl; 0xbef9a3f7l; 0xc67178f2l |]

  type ctx = {
    h : int32 array; (* 8 chaining words *)
    buf : Bytes.t; (* 64-byte block buffer *)
    mutable buf_len : int;
    mutable total : int64; (* bytes processed *)
  }

  let init () =
    {
      h =
        [| 0x6a09e667l; 0xbb67ae85l; 0x3c6ef372l; 0xa54ff53al; 0x510e527fl;
           0x9b05688cl; 0x1f83d9abl; 0x5be0cd19l |];
      buf = Bytes.create 64;
      buf_len = 0;
      total = 0L;
    }

  let ( +% ) = Int32.add
  let rotr x n = Int32.logor (Int32.shift_right_logical x n) (Int32.shift_left x (32 - n))

  let compress h block off =
    let w = Array.make 64 0l in
    for i = 0 to 15 do
      w.(i) <-
        Int32.logor
          (Int32.shift_left (Int32.of_int (Char.code (Bytes.get block (off + (4 * i))))) 24)
          (Int32.logor
             (Int32.shift_left (Int32.of_int (Char.code (Bytes.get block (off + (4 * i) + 1)))) 16)
             (Int32.logor
                (Int32.shift_left (Int32.of_int (Char.code (Bytes.get block (off + (4 * i) + 2)))) 8)
                (Int32.of_int (Char.code (Bytes.get block (off + (4 * i) + 3))))))
    done;
    for i = 16 to 63 do
      let s0 =
        Int32.logxor (rotr w.(i - 15) 7) (Int32.logxor (rotr w.(i - 15) 18) (Int32.shift_right_logical w.(i - 15) 3))
      in
      let s1 =
        Int32.logxor (rotr w.(i - 2) 17) (Int32.logxor (rotr w.(i - 2) 19) (Int32.shift_right_logical w.(i - 2) 10))
      in
      w.(i) <- w.(i - 16) +% s0 +% w.(i - 7) +% s1
    done;
    let a = ref h.(0) and b = ref h.(1) and c = ref h.(2) and d = ref h.(3) in
    let e = ref h.(4) and f = ref h.(5) and g = ref h.(6) and hh = ref h.(7) in
    for i = 0 to 63 do
      let s1 = Int32.logxor (rotr !e 6) (Int32.logxor (rotr !e 11) (rotr !e 25)) in
      let ch = Int32.logxor (Int32.logand !e !f) (Int32.logand (Int32.lognot !e) !g) in
      let t1 = !hh +% s1 +% ch +% k.(i) +% w.(i) in
      let s0 = Int32.logxor (rotr !a 2) (Int32.logxor (rotr !a 13) (rotr !a 22)) in
      let maj = Int32.logxor (Int32.logand !a !b) (Int32.logxor (Int32.logand !a !c) (Int32.logand !b !c)) in
      let t2 = s0 +% maj in
      hh := !g;
      g := !f;
      f := !e;
      e := !d +% t1;
      d := !c;
      c := !b;
      b := !a;
      a := t1 +% t2
    done;
    h.(0) <- h.(0) +% !a;
    h.(1) <- h.(1) +% !b;
    h.(2) <- h.(2) +% !c;
    h.(3) <- h.(3) +% !d;
    h.(4) <- h.(4) +% !e;
    h.(5) <- h.(5) +% !f;
    h.(6) <- h.(6) +% !g;
    h.(7) <- h.(7) +% !hh

  let update ctx s =
    let len = String.length s in
    ctx.total <- Int64.add ctx.total (Int64.of_int len);
    let pos = ref 0 in
    (* Fill a partial buffer first. *)
    if ctx.buf_len > 0 then begin
      let need = 64 - ctx.buf_len in
      let take = min need len in
      Bytes.blit_string s 0 ctx.buf ctx.buf_len take;
      ctx.buf_len <- ctx.buf_len + take;
      pos := take;
      if ctx.buf_len = 64 then begin
        compress ctx.h ctx.buf 0;
        ctx.buf_len <- 0
      end
    end;
    while len - !pos >= 64 do
      Bytes.blit_string s !pos ctx.buf 0 64;
      compress ctx.h ctx.buf 0;
      pos := !pos + 64
    done;
    if !pos < len then begin
      Bytes.blit_string s !pos ctx.buf ctx.buf_len (len - !pos);
      ctx.buf_len <- ctx.buf_len + (len - !pos)
    end

  let finalize ctx =
    let bitlen = Int64.mul ctx.total 8L in
    (* Append 0x80, zero padding, then the 64-bit big-endian length. *)
    let pad_len =
      let rem = (ctx.buf_len + 1 + 8) mod 64 in
      if rem = 0 then 0 else 64 - rem
    in
    let tail = Bytes.make (1 + pad_len + 8) '\000' in
    Bytes.set tail 0 '\x80';
    for i = 0 to 7 do
      Bytes.set tail
        (1 + pad_len + i)
        (Char.chr (Int64.to_int (Int64.logand (Int64.shift_right_logical bitlen (8 * (7 - i))) 0xffL)))
    done;
    (* Bypass the total-length bookkeeping: we are appending padding. *)
    let save_total = ctx.total in
    update ctx (Bytes.to_string tail);
    ctx.total <- save_total;
    assert (ctx.buf_len = 0);
    let out = Bytes.create 32 in
    for i = 0 to 7 do
      let w = ctx.h.(i) in
      Bytes.set out (4 * i) (Char.chr (Int32.to_int (Int32.shift_right_logical w 24) land 0xff));
      Bytes.set out ((4 * i) + 1) (Char.chr (Int32.to_int (Int32.shift_right_logical w 16) land 0xff));
      Bytes.set out ((4 * i) + 2) (Char.chr (Int32.to_int (Int32.shift_right_logical w 8) land 0xff));
      Bytes.set out ((4 * i) + 3) (Char.chr (Int32.to_int w land 0xff))
    done;
    Bytes.to_string out

  let digest s =
    let ctx = init () in
    update ctx s;
    finalize ctx
end

module Ref_chacha20 = struct
  let ( +% ) = Int32.add
  let ( ^% ) = Int32.logxor
  let rotl x n = Int32.logor (Int32.shift_left x n) (Int32.shift_right_logical x (32 - n))

  let quarter st a b c d =
    st.(a) <- st.(a) +% st.(b);
    st.(d) <- rotl (st.(d) ^% st.(a)) 16;
    st.(c) <- st.(c) +% st.(d);
    st.(b) <- rotl (st.(b) ^% st.(c)) 12;
    st.(a) <- st.(a) +% st.(b);
    st.(d) <- rotl (st.(d) ^% st.(a)) 8;
    st.(c) <- st.(c) +% st.(d);
    st.(b) <- rotl (st.(b) ^% st.(c)) 7

  let word_le s off =
    Int32.logor
      (Int32.of_int (Char.code s.[off]))
      (Int32.logor
         (Int32.shift_left (Int32.of_int (Char.code s.[off + 1])) 8)
         (Int32.logor
            (Int32.shift_left (Int32.of_int (Char.code s.[off + 2])) 16)
            (Int32.shift_left (Int32.of_int (Char.code s.[off + 3])) 24)))

  let block ~key ~nonce ~counter =
    if String.length key <> 32 then invalid_arg "Chacha20.block: key must be 32 bytes";
    if String.length nonce <> 12 then invalid_arg "Chacha20.block: nonce must be 12 bytes";
    let st = Array.make 16 0l in
    st.(0) <- 0x61707865l;
    st.(1) <- 0x3320646el;
    st.(2) <- 0x79622d32l;
    st.(3) <- 0x6b206574l;
    for i = 0 to 7 do
      st.(4 + i) <- word_le key (4 * i)
    done;
    st.(12) <- Int32.of_int counter;
    for i = 0 to 2 do
      st.(13 + i) <- word_le nonce (4 * i)
    done;
    let working = Array.copy st in
    for _ = 1 to 10 do
      quarter working 0 4 8 12;
      quarter working 1 5 9 13;
      quarter working 2 6 10 14;
      quarter working 3 7 11 15;
      quarter working 0 5 10 15;
      quarter working 1 6 11 12;
      quarter working 2 7 8 13;
      quarter working 3 4 9 14
    done;
    let out = Bytes.create 64 in
    for i = 0 to 15 do
      let w = working.(i) +% st.(i) in
      Bytes.set out (4 * i) (Char.chr (Int32.to_int w land 0xff));
      Bytes.set out ((4 * i) + 1) (Char.chr (Int32.to_int (Int32.shift_right_logical w 8) land 0xff));
      Bytes.set out ((4 * i) + 2) (Char.chr (Int32.to_int (Int32.shift_right_logical w 16) land 0xff));
      Bytes.set out ((4 * i) + 3) (Char.chr (Int32.to_int (Int32.shift_right_logical w 24) land 0xff))
    done;
    Bytes.to_string out

  let encrypt ~key ~nonce ?(counter = 1) msg =
    let len = String.length msg in
    let out = Bytes.create len in
    let nblocks = (len + 63) / 64 in
    for b = 0 to nblocks - 1 do
      let ks = block ~key ~nonce ~counter:(counter + b) in
      let off = 64 * b in
      let n = min 64 (len - off) in
      for i = 0 to n - 1 do
        Bytes.set out (off + i) (Char.chr (Char.code msg.[off + i] lxor Char.code ks.[i]))
      done
    done;
    Bytes.to_string out
end

module Ref_hmac = struct
  module Sha256 = Ref_sha256

  let block_size = 64

  let mac ~key msg =
    let key = if String.length key > block_size then Sha256.digest key else key in
    let pad c =
      String.init block_size (fun i ->
          let k = if i < String.length key then Char.code key.[i] else 0 in
          Char.chr (k lxor c))
    in
    let inner = Sha256.digest (pad 0x36 ^ msg) in
    Sha256.digest (pad 0x5c ^ inner)
end

(* RFC 8439 §2.5.1 word for word: each 16-byte chunk, with a 1 byte
   after it, is a little-endian number added to the accumulator, which is
   then multiplied by the clamped r mod p; s is added mod 2^128. *)
module Ref_poly1305 = struct
  module N = Bignum.Nat

  let rev s = String.init (String.length s) (fun i -> s.[String.length s - 1 - i])
  let le s = N.of_bytes_be (rev s)
  let p = N.sub (N.shift_left N.one 130) (N.of_int 5)

  let mac ~key msg =
    let r = Bytes.of_string (String.sub key 0 16) in
    let mask m i = Bytes.set r i (Char.chr (Char.code (Bytes.get r i) land m)) in
    List.iter (mask 15) [ 3; 7; 11; 15 ];
    List.iter (mask 252) [ 4; 8; 12 ];
    let r = le (Bytes.to_string r) and s = le (String.sub key 16 16) in
    let acc = ref N.zero in
    let len = String.length msg in
    let i = ref 0 in
    while !i < len do
      let chunk = String.sub msg !i (min 16 (len - !i)) in
      acc := N.rem (N.mul (N.add !acc (le (chunk ^ "\001"))) r) p;
      i := !i + 16
    done;
    rev (N.to_bytes_be_padded 16 (N.rem (N.add !acc s) (N.shift_left N.one 128)))
end

(* RFC 8439 §2.8 under the subkey HMAC(key, "aead-encrypt"), its MAC input
   concatenated: ad and ciphertext each zero-padded to 16 bytes, then
   both lengths as 64-bit little-endian. A box is nonce ‖ tag ‖
   ciphertext, built by concatenation and split by copies. *)
module Ref_aead = struct
  module Hmac = Ref_hmac
  module Chacha20 = Ref_chacha20

  let enc_key key = Hmac.mac ~key "aead-encrypt"

  let tag ~enc ~nonce ~ad ciphertext =
    let pad16 s = s ^ String.make ((16 - (String.length s mod 16)) mod 16) '\000' in
    let le64 n = String.init 8 (fun i -> Char.chr ((n lsr (8 * i)) land 0xff)) in
    let otk = String.sub (Chacha20.block ~key:enc ~nonce ~counter:0) 0 32 in
    Ref_poly1305.mac ~key:otk
      (String.concat ""
         [ pad16 ad; pad16 ciphertext; le64 (String.length ad); le64 (String.length ciphertext) ])

  let seal ~key ?(ad = "") ~nonce plaintext =
    if String.length key <> 32 then invalid_arg "Aead.seal: key must be 32 bytes";
    if String.length nonce <> 12 then invalid_arg "Aead.seal: nonce must be 12 bytes";
    let enc = enc_key key in
    let ciphertext = Chacha20.encrypt ~key:enc ~nonce plaintext in
    nonce ^ tag ~enc ~nonce ~ad ciphertext ^ ciphertext

  let open_ ~key ?(ad = "") box =
    if String.length box < 28 then Error `Malformed
    else if String.length key <> 32 then Error `Bad_tag
    else begin
      let enc = enc_key key and nonce = String.sub box 0 12 in
      let ciphertext = String.sub box 28 (String.length box - 28) in
      if Ct.equal_string (tag ~enc ~nonce ~ad ciphertext) (String.sub box 12 16) then
        Ok (Chacha20.encrypt ~key:enc ~nonce ciphertext)
      else Error `Bad_tag
    end
end

(* HMAC-DRBG as it was before [generate] prepared its key: every MAC a
   fresh [Hmac.mac] over concatenated input. *)
module Ref_drbg = struct
  type t = { mutable key : string; mutable v : string }

  let update t provided =
    t.key <- Hmac.mac ~key:t.key (t.v ^ "\x00" ^ provided);
    t.v <- Hmac.mac ~key:t.key t.v;
    if provided <> "" then begin
      t.key <- Hmac.mac ~key:t.key (t.v ^ "\x01" ^ provided);
      t.v <- Hmac.mac ~key:t.key t.v
    end

  let create ~seed =
    let t = { key = String.make 32 '\x00'; v = String.make 32 '\x01' } in
    update t seed;
    t

  let reseed t entropy = update t entropy

  let generate t n =
    let buf = Buffer.create n in
    while Buffer.length buf < n do
      t.v <- Hmac.mac ~key:t.key t.v;
      Buffer.add_string buf t.v
    done;
    update t "";
    String.sub (Buffer.contents buf) 0 n
end

(* --- SHA-256: FIPS 180-4 / NIST CAVS vectors --- *)

let test_sha256_vectors () =
  let cases =
    [ ("", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
      ("abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
      ( "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
        "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1" );
      ( String.make 1_000_000 'a',
        "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0" ) ]
  in
  List.iter
    (fun (msg, want) -> Alcotest.(check string) "sha256" want (Sha256.hex_digest msg))
    cases

(* --- HMAC-SHA256: RFC 4231 vectors --- *)

let test_hmac_vectors () =
  let cases =
    [ ( String.make 20 '\x0b',
        "Hi There",
        "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7" );
      ( "Jefe",
        "what do ya want for nothing?",
        "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843" );
      ( String.make 20 '\xaa',
        String.make 50 '\xdd',
        "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe" );
      ( String.make 131 '\xaa',
        "Test Using Larger Than Block-Size Key - Hash Key First",
        "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54" );
      ( String.make 131 '\xaa',
        "This is a test using a larger than block-size key and a larger than block-size data. \
         The key needs to be hashed before being used by the HMAC algorithm.",
        "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2" ) ]
  in
  List.iter
    (fun (key, msg, want) ->
      Alcotest.(check string) "hmac" want (Sha256.to_hex (Hmac.mac ~key msg)))
    cases

let test_hmac_verify () =
  let key = "secret-key" and msg = "the message" in
  let tag = Hmac.mac ~key msg in
  Alcotest.(check bool) "accepts" true (Hmac.verify ~key ~msg ~tag);
  Alcotest.(check bool) "rejects bad tag" false
    (Hmac.verify ~key ~msg ~tag:(String.make 32 '\x00'));
  Alcotest.(check bool) "rejects bad key" false (Hmac.verify ~key:"other" ~msg ~tag);
  Alcotest.(check bool) "rejects truncated" false
    (Hmac.verify ~key ~msg ~tag:(String.sub tag 0 16))

(* --- ChaCha20: RFC 8439 section 2.3.2 and 2.4.2 vectors --- *)

let test_chacha20_vector () =
  let key = hex "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f" in
  Alcotest.(check string) "rfc8439 block"
    "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e\
     d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e"
    (Sha256.to_hex (Chacha20.block ~key ~nonce:(hex "000000090000004a00000000") ~counter:1));
  let nonce = hex "000000000000004a00000000" in
  let plaintext =
    "Ladies and Gentlemen of the class of '99: If I could offer you only one tip for the future, sunscreen would be it."
  in
  let want =
    hex
      "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b\
       f91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d8\
       07ca0dbf500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab7793736\
       5af90bbf74a35be6b40b8eedf2785e42874d"
  in
  Alcotest.(check string) "rfc8439 ciphertext" (Sha256.to_hex want)
    (Sha256.to_hex (Chacha20.encrypt ~key ~nonce ~counter:1 plaintext));
  Alcotest.(check string) "decrypt inverts" plaintext
    (Chacha20.encrypt ~key ~nonce ~counter:1 (Chacha20.encrypt ~key ~nonce ~counter:1 plaintext))

let test_chacha20_args () =
  Alcotest.(check_raises "bad key" (Invalid_argument "Chacha20.block: key must be 32 bytes")
      (fun () -> ignore (Chacha20.block ~key:"short" ~nonce:(String.make 12 '\x00') ~counter:0)));
  Alcotest.(check_raises "bad nonce" (Invalid_argument "Chacha20.block: nonce must be 12 bytes")
      (fun () -> ignore (Chacha20.block ~key:(String.make 32 '\x00') ~nonce:"x" ~counter:0)));
  let key = String.make 32 '\x00' and nonce = String.make 12 '\x00' in
  (* [encrypt] checks both lengths before it looks at the message, so an
     empty message under a short key or nonce raises too. *)
  List.iter
    (fun msg ->
      Alcotest.(check_raises "encrypt, bad key"
          (Invalid_argument "Chacha20.encrypt: key must be 32 bytes")
          (fun () -> ignore (Chacha20.encrypt ~key:"short" ~nonce msg)));
      Alcotest.(check_raises "encrypt, bad nonce"
          (Invalid_argument "Chacha20.encrypt: nonce must be 12 bytes")
          (fun () -> ignore (Chacha20.encrypt ~key ~nonce:"x" msg))))
    [ ""; "m" ];
  Alcotest.(check string) "empty message" "" (Chacha20.encrypt ~key ~nonce "");
  Alcotest.(check_raises "start, bad key" (Invalid_argument "Chacha20.start: key must be 32 bytes")
      (fun () -> ignore (Chacha20.start ~key:"short" ~nonce)));
  Alcotest.(check_raises "xor_into, range outside"
      (Invalid_argument "Chacha20.xor_into: range outside its buffer")
      (fun () -> Chacha20.xor_into (Chacha20.start ~key ~nonce) ~counter:0 "abc" 1 (Bytes.create 3) 0 3))

(* Every length from 0 to 200 bytes: each residue mod 4 (the byte tail
   after the last whole word), zero to four blocks, every partial block,
   at counter 1 and at 0xfffffffe, where a message past 128 bytes wraps
   to block 0. Then single blocks at the edge counters. *)
let test_chacha20_vs_ref () =
  let key = Sha256.digest "chacha20 lengths" in
  let nonce = String.sub (Sha256.digest key) 0 12 in
  let msg = String.init 200 (fun i -> Char.chr (((i * 151) + 7) land 0xff)) in
  for len = 0 to 200 do
    let m = String.sub msg 0 len in
    List.iter
      (fun counter ->
        Alcotest.(check string)
          (Printf.sprintf "encrypt %d B at counter %#x" len counter)
          (Sha256.to_hex (Ref_chacha20.encrypt ~key ~nonce ~counter m))
          (Sha256.to_hex (Chacha20.encrypt ~key ~nonce ~counter m)))
      [ 1; 0xfffffffe ]
  done;
  List.iter
    (fun counter ->
      Alcotest.(check string)
        (Printf.sprintf "block at counter %#x" counter)
        (Sha256.to_hex (Ref_chacha20.block ~key ~nonce ~counter))
        (Sha256.to_hex (Chacha20.block ~key ~nonce ~counter)))
    [ 0; 1; 0xfffffffe; 0xffffffff ];
  (* One state, used as an AEAD seal uses it: the message from block 1,
     then the first half of block 0. *)
  let st = Chacha20.start ~key ~nonce and out = Bytes.create 200 and otk = Bytes.create 32 in
  Chacha20.xor_into st ~counter:1 msg 0 out 0 200;
  Chacha20.xor_into st ~counter:0 (String.make 32 '\000') 0 otk 0 32;
  Alcotest.(check string) "one state: message from block 1"
    (Sha256.to_hex (Ref_chacha20.encrypt ~key ~nonce ~counter:1 msg))
    (Sha256.to_hex (Bytes.to_string out));
  Alcotest.(check string) "one state: then block 0"
    (Sha256.to_hex (String.sub (Ref_chacha20.block ~key ~nonce ~counter:0) 0 32))
    (Sha256.to_hex (Bytes.to_string otk))

(* --- Poly1305: RFC 8439 section 2.5.2 vector --- *)

let test_poly1305_vector () =
  let key = hex "85d6be7857556d337f4452fe42d506a80103808afb0db2fd4abff6af4149f51b" in
  Alcotest.(check string) "rfc8439 tag" "a8061dc1305136c6c22b8baf0c0127a9"
    (Sha256.to_hex (Poly1305.mac ~key "Cryptographic Forum Research Group"))

(* Inputs that drive the accumulator to p and past it, where the final
   reduction must subtract p (r = 2 and 1, s = 0 or all ones), and
   lengths at the block edges: each tag agrees with the reference. *)
let test_poly1305_edges () =
  let key r s = String.make 1 (Char.chr r) ^ String.make 15 '\000' ^ String.make 16 s in
  let cases =
    [ (key 2 '\000', String.make 16 '\xff'); (key 2 '\xff', "\x02" ^ String.make 15 '\000');
      ( key 1 '\000',
        String.make 16 '\xff' ^ "\xf0" ^ String.make 15 '\xff' ^ "\x11" ^ String.make 15 '\000' );
      ( key 1 '\000',
        String.make 16 '\xff' ^ "\xfb" ^ String.make 15 '\xfe' ^ String.make 16 '\x01' );
      (key 2 '\000', "\xfd" ^ String.make 15 '\xff');
      (String.make 32 '\xff', String.make 64 '\xff') ]
    @ List.map (fun n -> (Sha256.digest "edge", String.make n 'e')) [ 0; 1; 15; 16; 17; 31; 32; 33 ]
  in
  List.iteri
    (fun i (key, msg) ->
      Alcotest.(check string) (Printf.sprintf "case %d" i)
        (Sha256.to_hex (Ref_poly1305.mac ~key msg)) (Sha256.to_hex (Poly1305.mac ~key msg)))
    cases

(* --- Constant-time compare --- *)

let test_ct () =
  Alcotest.(check bool) "equal" true (Ct.equal_string "abc" "abc");
  Alcotest.(check bool) "differs" false (Ct.equal_string "abc" "abd");
  Alcotest.(check bool) "length differs" false (Ct.equal_string "abc" "abcd");
  Alcotest.(check bool) "empty" true (Ct.equal_string "" "")

(* --- DRBG --- *)

let test_drbg_deterministic () =
  let a = Drbg.create ~seed:"seed-1" and b = Drbg.create ~seed:"seed-1" in
  Alcotest.(check string) "same seed, same stream" (Drbg.generate a 64) (Drbg.generate b 64);
  let c = Drbg.create ~seed:"seed-2" in
  Alcotest.(check bool) "different seed differs" true
    (Drbg.generate (Drbg.create ~seed:"seed-1") 64 <> Drbg.generate c 64)

let test_drbg_reseed () =
  let a = Drbg.create ~seed:"s" and b = Drbg.create ~seed:"s" in
  ignore (Drbg.generate a 16);
  ignore (Drbg.generate b 16);
  Drbg.reseed a "extra entropy";
  Alcotest.(check bool) "reseed changes stream" true (Drbg.generate a 32 <> Drbg.generate b 32)

(* test/drbg_vectors.py writes these lines with Python's own HMAC: a seed
   starts a fresh generator, a draw must return the bytes given, and a
   reseed feeds its entropy. *)
let test_drbg_vectors () =
  let field f = if f = "-" then "" else hex f in
  let lines =
    In_channel.with_open_text "drbg_vectors.txt" In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "" && l.[0] <> '#')
  in
  Alcotest.(check bool) "vectors committed" true (List.length lines >= 30);
  List.fold_left
    (fun d line ->
      match (String.split_on_char ' ' line, d) with
      | [ "seed"; seed ], _ -> Some (Drbg.create ~seed:(field seed))
      | [ "draw"; n; want ], Some d ->
          Alcotest.(check string) line (Sha256.to_hex (field want))
            (Sha256.to_hex (Drbg.generate d (int_of_string n)));
          Some d
      | [ "reseed"; entropy ], Some d ->
          Drbg.reseed d (field entropy);
          Some d
      | _ -> Alcotest.failf "malformed vector line %S" line)
    None lines
  |> ignore

let test_drbg_uniform () =
  let d = Drbg.create ~seed:"uniform" in
  for _ = 1 to 200 do
    let x = Drbg.uniform_int d 7 in
    Alcotest.(check bool) "in range" true (x >= 0 && x < 7)
  done;
  Alcotest.(check_raises "zero bound" (Invalid_argument "Drbg.uniform_int: bound must be positive")
      (fun () -> ignore (Drbg.uniform_int d 0)))

(* --- AEAD --- *)

let aead_key = Sha256.digest "test key material"

let opened =
  let refusal f r =
    Format.pp_print_string f (match r with `Malformed -> "malformed" | `Bad_tag -> "bad tag")
  in
  Alcotest.(result string (testable refusal ( = )))

let test_aead_roundtrip () =
  let nonce = String.make 12 '\x07' in
  let box = Aead.seal ~key:aead_key ~ad:"header" ~nonce "attack at dawn" in
  Alcotest.check opened "roundtrip" (Ok "attack at dawn")
    (Aead.open_ ~key:aead_key ~ad:"header" box);
  Alcotest.check opened "wrong ad fails" (Error `Bad_tag)
    (Aead.open_ ~key:aead_key ~ad:"other" box);
  Alcotest.check opened "wrong key fails" (Error `Bad_tag)
    (Aead.open_ ~key:(Sha256.digest "wrong") ~ad:"header" box)

(* A box is its own wire form: the nonce, the tag, then the ciphertext,
   which is the plaintext under ChaCha20 from block 1. *)
let test_aead_encode () =
  let nonce = String.make 12 '\x02' in
  let box = Aead.seal ~key:aead_key ~nonce "wire me" in
  Alcotest.(check string) "nonce" nonce (String.sub box 0 12);
  Alcotest.(check string) "tag" (String.sub box 12 16) (Aead.tag ~prefix:"" box);
  Alcotest.(check string) "ciphertext"
    (Chacha20.encrypt ~key:(Hmac.mac ~key:aead_key "aead-encrypt") ~nonce "wire me")
    (String.sub box 28 7);
  Alcotest.check opened "opens" (Ok "wire me") (Aead.open_ ~key:aead_key box);
  Alcotest.check opened "a short box is malformed" (Error `Malformed)
    (Aead.open_ ~key:aead_key "short")

(* Vectors written by test/aead_vectors.py with Python's [cryptography]
   (ChaCha20Poly1305 under HMAC(key, "aead-encrypt")): every box opens to
   its plaintext, and sealing the plaintext gives the box byte for byte. *)
let test_aead_vectors () =
  let field f = if f = "-" then "" else hex f in
  let lines =
    In_channel.with_open_text "aead_vectors.txt" In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "" && l.[0] <> '#')
  in
  Alcotest.(check bool) "vectors committed" true (List.length lines >= 10);
  List.iteri
    (fun i line ->
      match List.map field (String.split_on_char ' ' line) with
      | [ key; nonce; ad; pt; wire ] ->
          let name =
            Printf.sprintf "vector %d (ad %d B, plaintext %d B)" i (String.length ad)
              (String.length pt)
          in
          Alcotest.(check string) (name ^ ": seal") (Sha256.to_hex wire)
            (Sha256.to_hex (Aead.seal ~key ~ad ~nonce pt));
          Alcotest.check opened (name ^ ": open") (Ok pt) (Aead.open_ ~key ~ad wire)
      | _ -> Alcotest.failf "malformed vector line %d" i)
    lines

(* One bit flipped anywhere in the box (its nonce, its tag or its
   ciphertext) or in the associated data, and the box no longer opens. A
   string under 28 bytes is no box. *)
let test_aead_tamper () =
  let key = aead_key and nonce = String.init 12 (fun i -> Char.chr (i + 1)) in
  let ad = "associated" and pt = String.init 70 (fun i -> Char.chr (i * 7 land 0xff)) in
  let box = Aead.seal ~key ~ad ~nonce pt in
  let flip s bit =
    let b = Bytes.of_string s in
    Bytes.set b (bit / 8) (Char.chr (Char.code (Bytes.get b (bit / 8)) lxor (1 lsl (bit mod 8))));
    Bytes.to_string b
  in
  let each_bit s ~from ~len f =
    for bit = 8 * from to (8 * (from + len)) - 1 do
      f bit (flip s bit)
    done
  in
  let refused what bit r =
    if r <> Error `Bad_tag then Alcotest.failf "%s bit %d flipped: not refused" what bit
  in
  Alcotest.check opened "untouched opens" (Ok pt) (Aead.open_ ~key ~ad box);
  Alcotest.(check int) "box is 28 bytes over the plaintext" (String.length pt + 28)
    (String.length box);
  List.iter
    (fun (what, from, len) ->
      each_bit box ~from ~len (fun bit box -> refused what bit (Aead.open_ ~key ~ad box)))
    [ ("nonce", 0, 12); ("tag", 12, 16); ("ciphertext", 28, String.length pt) ];
  each_bit ad ~from:0 ~len:(String.length ad) (fun bit ad ->
      refused "ad" bit (Aead.open_ ~key ~ad box));
  Alcotest.check opened "27 bytes are malformed" (Error `Malformed)
    (Aead.open_ ~key ~ad (String.sub box 0 27));
  Alcotest.check opened "28 bytes: the empty plaintext" (Ok "")
    (Aead.open_ ~key (Aead.seal ~key ~nonce ""))

(* Boxes sealed by the construction before this one (ChaCha20 under the
   same subkey, HMAC-SHA256 tags of 32 bytes under a second subkey),
   recorded from it: none of them opens. *)
let test_aead_refuses_old_format () =
  let key = String.init 32 (fun i -> Char.chr (0x80 + i)) in
  List.iter
    (fun (ad, wire) ->
      let wire = hex wire in
      Alcotest.check opened (Printf.sprintf "%d-byte box" (String.length wire)) (Error `Bad_tag)
        (Aead.open_ ~key ~ad wire))
    [ ( "",
        "0000000000000000000000000c2b947ebfea1f5edb98921b209800a8c68f0a786b74f5d477293e8c2f2870a1" );
      ( "header",
        "070000004041424344454647032eb2f788b9b9bc1196a9da3615e9b45acd2e524acbf229bf89fedd8be60109\
         a1154a7bf2dd6408cba48b8c24da" );
      ( "ad",
        "00112233445566778899aabbeeba84262f875536b3b2dc68510907907953f4fda918b922846fc2046a4a695d\
         bd038e813c6641a258899a601bb0b9fc356c26109dced7e8e482f55c111e14ca5e4f372da48849e5cc93465f\
         1ed01889c19a049d3fac6ff4caf05d5d94cd1d04429e06841fdf6738a9e1d8c42a75a0f3a30f13d3071da961\
         5e045709552a444584d87b6f" ) ]

(* A prepared key is read-only: sealing and opening under it never change
   it, so reusing it over several messages gives the bytes a fresh
   preparation gives each time. *)
let test_aead_prepared_reuse () =
  let k = Aead.prepare aead_key in
  let messages =
    [ (String.make 12 '\x03', "header", "first message");
      (String.make 12 '\x04', "", String.init 200 (fun i -> Char.chr i)) ]
  in
  let fresh (nonce, ad, pt) = Aead.seal_prepared (Aead.prepare aead_key) ~ad ~nonce pt in
  for round = 1 to 2 do
    List.iter
      (fun ((nonce, ad, pt) as m) ->
        let box = fresh m in
        let name = Printf.sprintf "round %d, %d bytes" round (String.length pt) in
        Alcotest.(check string) (name ^ ": seal") box (Aead.seal_prepared k ~ad ~nonce pt);
        Alcotest.check opened (name ^ ": open") (Ok pt) (Aead.open_prepared k ~ad box))
      messages
  done

(* Preparing never raises. Under a key prepared from any length but 32
   bytes nothing opens and sealing raises, exactly as the raw-key calls
   behave with that key. *)
let test_aead_wrong_length () =
  let nonce = String.make 12 '\x05' in
  let box = Aead.seal ~key:aead_key ~nonce "payload" in
  let refused = Invalid_argument "Aead.seal: key must be 32 bytes" in
  List.iter
    (fun raw ->
      let name = Printf.sprintf "%d-byte key" (String.length raw) in
      let k = Aead.prepare raw in
      Alcotest.check opened (name ^ ": open_prepared") (Error `Bad_tag) (Aead.open_prepared k box);
      Alcotest.check opened (name ^ ": open_") (Error `Bad_tag) (Aead.open_ ~key:raw box);
      Alcotest.check_raises (name ^ ": seal_prepared") refused (fun () ->
          ignore (Aead.seal_prepared k ~nonce "payload"));
      Alcotest.check_raises (name ^ ": seal") refused (fun () ->
          ignore (Aead.seal ~key:raw ~nonce "payload")))
    [ ""; "k"; String.sub aead_key 0 31; aead_key ^ "x" ]

(* --- RSA --- *)

let drbg = Drbg.create ~seed:"rsa tests"
let key = Rsa.generate drbg ~bits:512

let test_rsa_sign_verify () =
  let signature = Rsa.sign key "a proxy certificate body" in
  Alcotest.(check bool) "verifies" true
    (Rsa.verify key.Rsa.pub ~msg:"a proxy certificate body" ~signature);
  Alcotest.(check bool) "other message fails" false
    (Rsa.verify key.Rsa.pub ~msg:"another body" ~signature);
  let bad = Bytes.of_string signature in
  Bytes.set bad 10 (Char.chr (Char.code (Bytes.get bad 10) lxor 0x40));
  Alcotest.(check bool) "bitflip fails" false
    (Rsa.verify key.Rsa.pub ~msg:"a proxy certificate body" ~signature:(Bytes.to_string bad));
  Alcotest.(check bool) "wrong length fails" false
    (Rsa.verify key.Rsa.pub ~msg:"a proxy certificate body" ~signature:(signature ^ "x"))

let test_rsa_cross_key () =
  let key2 = Rsa.generate drbg ~bits:512 in
  let signature = Rsa.sign key "msg" in
  Alcotest.(check bool) "other key rejects" false
    (Rsa.verify key2.Rsa.pub ~msg:"msg" ~signature)

let test_rsa_encrypt () =
  let secret = "proxy key: 32 bytes of material!" in
  match Rsa.encrypt drbg key.Rsa.pub secret with
  | None -> Alcotest.fail "encrypt"
  | Some ct -> (
      (match Rsa.decrypt key ct with
      | Some pt -> Alcotest.(check string) "decrypt" secret pt
      | None -> Alcotest.fail "decrypt");
      let too_long = String.make 100 'x' in
      Alcotest.(check bool) "too long rejected" true (Rsa.encrypt drbg key.Rsa.pub too_long = None);
      let garbage = String.make (Rsa.modulus_bytes key.Rsa.pub) '\x7f' in
      Alcotest.(check bool) "garbage decrypt fails" true (Rsa.decrypt key garbage = None))

let test_rsa_pub_encoding () =
  match Rsa.public_of_bytes (Rsa.public_to_bytes key.Rsa.pub) with
  | None -> Alcotest.fail "decode public"
  | Some pub ->
      let signature = Rsa.sign key "check encoding" in
      Alcotest.(check bool) "decoded key verifies" true
        (Rsa.verify pub ~msg:"check encoding" ~signature);
      Alcotest.(check bool) "truncated fails" true (Rsa.public_of_bytes "\x00\x00" = None)

(* Key bytes take one shape: a decoded key keeps the bytes it arrived as,
   and a signature covers them, so any other spelling of the same numbers
   must be refused rather than read as the same key. *)
let test_rsa_pub_encoding_exact () =
  let be32 k = String.init 4 (fun i -> Char.chr ((k lsr (8 * (3 - i))) land 0xff)) in
  let encode n e = String.concat "" [ be32 (String.length n); n; be32 (String.length e); e ] in
  let n = Bignum.Nat.to_bytes_be key.Rsa.pub.Rsa.n and e = "\x01\x00\x01" in
  let wire = encode n e in
  Alcotest.(check string) "the key's bytes are its canonical encoding" wire
    (Rsa.public_to_bytes key.Rsa.pub);
  Alcotest.(check (option string)) "canonical bytes round-trip" (Some wire)
    (Option.map Rsa.public_to_bytes (Rsa.public_of_bytes wire));
  List.iter
    (fun (what, bytes) ->
      Alcotest.(check bool) (what ^ " refused") true (Rsa.public_of_bytes bytes = None))
    [ ("a trailing byte", wire ^ "\x00");
      ("a leading zero in n", encode ("\x00" ^ n) e);
      ("a leading zero in e", encode n ("\x00" ^ e));
      ("an empty n", encode "" e);
      ("an empty e", encode n "");
      ("an n length past the end",
       be32 (String.length wire) ^ String.sub wire 4 (String.length wire - 4));
      ("a truncated e", String.sub wire 0 (String.length wire - 1));
      ("the empty string", "") ]

let test_rsa_pub_encoding_linear () =
  (* Key bytes arrive from the wire before any signature is checked, so
     decoding and re-encoding them must allocate in proportion to their
     length. *)
  let n = 32 * 1024 in
  let be32 k = String.init 4 (fun i -> Char.chr ((k lsr (8 * (3 - i))) land 0xff)) in
  let modulus = "\x80" ^ String.init (n - 1) (fun i -> Char.chr ((i * 131) land 0xff)) in
  let wire = String.concat "" [ be32 n; modulus; be32 3; "\x01\x00\x01" ] in
  let before = Gc.allocated_bytes () in
  let back = Option.map Rsa.public_to_bytes (Rsa.public_of_bytes wire) in
  let used = Gc.allocated_bytes () -. before in
  Alcotest.(check bool) "roundtrip" true (back = Some wire);
  Alcotest.(check bool)
    (Printf.sprintf "%.0f bytes allocated for a %d-byte modulus" used n)
    true
    (used < 32. *. float n)

(* A key reaches a verifier inside the certificate that names it, before
   any signature vouches for it, so [verify] refuses a key outside
   BoringSSL's bounds (an odd n of at most 4,096 bits, an odd e with
   3 <= e < 2^33) before any exponentiation, and counts no verify. The
   64 KB exponent cost about 0.4 s a verify before the bounds. Keys inside
   them, from e = 3 up to a 4,096-bit modulus with a 33-bit exponent,
   count one verify each. *)
let test_rsa_verify_bounds () =
  let be32 k = String.init 4 (fun i -> Char.chr ((k lsr (8 * (3 - i))) land 0xff)) in
  let encode n e = String.concat "" [ be32 (String.length n); n; be32 (String.length e); e ] in
  let n = Bignum.Nat.to_bytes_be key.Rsa.pub.Rsa.n and e65537 = "\x01\x00\x01" in
  let msg = "bounded keys" in
  let verifies what nb eb =
    let pub = Option.get (Rsa.public_of_bytes (encode nb eb)) in
    let signature = String.make (Rsa.modulus_bytes pub - 1) '\x00' ^ "\x02" in
    let before = Cost.read () in
    let ok = Rsa.verify pub ~msg ~signature in
    Alcotest.(check bool) (what ^ ": no signature verifies") false ok;
    (Cost.diff ~before ~after:(Cost.read ())).Cost.rsa_verify
  in
  let last_byte_xor s x =
    String.mapi (fun i c -> if i = String.length s - 1 then Char.chr (Char.code c lxor x) else c) s
  in
  let wide bytes = "\x80" ^ String.make (bytes - 2) '\x5a' ^ "\x01" in
  List.iter
    (fun (what, nb, eb) ->
      Alcotest.(check int) (what ^ ": refused, no verify counted") 0 (verifies what nb eb))
    [ ("a 64 KB exponent", n, String.make 65536 '\xff');
      ("an even exponent", n, "\x01\x00\x00");
      ("a 34-bit exponent", n, "\x02\x00\x00\x00\x01");
      ("an even modulus", last_byte_xor n 1, e65537);
      ("a 4,104-bit modulus", wide 513, e65537);
      ("e = 1", n, "\x01") ];
  (* One-byte exponents decode: e = 3 and e = 17 are inside the bounds,
     and their keys keep the bytes they arrived as. *)
  List.iter
    (fun eb ->
      Alcotest.(check (option string))
        (Printf.sprintf "e = %d: decoded and re-encoded" (Char.code eb.[0]))
        (Some (encode n eb))
        (Option.map Rsa.public_to_bytes (Rsa.public_of_bytes (encode n eb))))
    [ "\x03"; "\x11" ];
  List.iter
    (fun (what, nb, eb) ->
      Alcotest.(check int) (what ^ ": one verify counted") 1 (verifies what nb eb))
    [ ("e = 3", n, "\x03");
      ("e = 17", n, "\x11");
      ("e = 257", n, "\x01\x01");
      ("a 33-bit exponent", n, "\x01\xff\xff\xff\xff");
      ("a 4,096-bit modulus", wide 512, "\x01\xff\xff\xff\xff") ]

(* --- RSA-CRT compatibility ---

   The CRT fast path must be a pure optimisation: for any key the signature
   bytes must equal those of the retained reference path (plain d
   exponentiation), the fault-attack guard must mask a corrupted CRT half by
   falling back to the reference path, and an *unguarded* faulty CRT
   recombination must produce a signature that verification rejects. *)

module N = Bignum.Nat

let test_rsa_crt_byte_identical () =
  List.iter
    (fun (seed, bits) ->
      let d = Drbg.create ~seed in
      let key = Rsa.generate d ~bits in
      Alcotest.(check bool)
        (Printf.sprintf "%d-bit key has CRT params" bits)
        true (key.Rsa.crt <> None);
      let no_crt = { key with Rsa.crt = None } in
      if bits >= 512 then begin
        (* A 256-bit modulus is too small for a SHA-256 PKCS#1 signature. *)
        let msg = Printf.sprintf "crt compat %s/%d" seed bits in
        Alcotest.(check string)
          (Printf.sprintf "%d-bit CRT signature = reference" bits)
          (Rsa.sign_reference key msg) (Rsa.sign key msg);
        Alcotest.(check string)
          (Printf.sprintf "%d-bit CRT signature = plain-d" bits)
          (Rsa.sign no_crt msg) (Rsa.sign key msg)
      end;
      (* The CRT private op must also decrypt exactly like the plain path. *)
      let secret = String.sub (Sha256.digest seed) 0 16 in
      match Rsa.encrypt d key.Rsa.pub secret with
      | None -> Alcotest.fail "encrypt"
      | Some ct ->
          Alcotest.(check (option string))
            (Printf.sprintf "%d-bit CRT decrypt = plain-d decrypt" bits)
            (Rsa.decrypt no_crt ct) (Rsa.decrypt key ct);
          Alcotest.(check (option string))
            (Printf.sprintf "%d-bit CRT decrypt roundtrips" bits)
            (Some secret) (Rsa.decrypt key ct))
    [ ("crt-a", 256); ("crt-b", 256); ("crt-a", 512); ("crt-b", 512); ("crt-a", 1024) ]

let test_rsa_crt_fault_guard () =
  let d = Drbg.create ~seed:"crt-fault" in
  let key = Rsa.generate d ~bits:512 in
  let crt = Option.get key.Rsa.crt in
  (* Corrupt one CRT exponent: the consistency check must catch the bad
     recombination and fall back to the reference path, so the emitted
     signature is still correct and byte-identical. *)
  let bad_key = { key with Rsa.crt = Some { crt with Rsa.dq = N.add crt.Rsa.dq N.one } } in
  let msg = "signed under a faulted key" in
  let signature = Rsa.sign bad_key msg in
  Alcotest.(check string) "guard falls back to reference" (Rsa.sign_reference key msg) signature;
  Alcotest.(check bool) "guarded signature verifies" true
    (Rsa.verify key.Rsa.pub ~msg ~signature)

let test_rsa_crt_unguarded_fault_rejected () =
  let d = Drbg.create ~seed:"crt-bdl" in
  let key = Rsa.generate d ~bits:512 in
  let crt = Option.get key.Rsa.crt in
  let p = crt.Rsa.p and q = crt.Rsa.q and qinv = crt.Rsa.qinv in
  let msg = "Boneh-DeMillo-Lipton" in
  let good = Rsa.sign key msg in
  (* Simulate a fault in the mod-q half: recombine s mod p with (s+1) mod q.
     The result is still correct mod p but wrong mod q — exactly the shape a
     glitched CRT exponentiation produces. Verification must reject it. *)
  let s = N.of_bytes_be good in
  let m1 = N.rem s p and m2 = N.rem (N.add s N.one) q in
  let diff = N.rem (N.add m1 (N.sub p (N.rem m2 p))) p in
  let h = N.rem (N.mul qinv diff) p in
  let faulty = N.add m2 (N.mul h q) in
  let faulty_sig = N.to_bytes_be_padded (Rsa.modulus_bytes key.Rsa.pub) faulty in
  Alcotest.(check bool) "good signature verifies" true (Rsa.verify key.Rsa.pub ~msg ~signature:good);
  Alcotest.(check bool) "faulty CRT signature rejected" false
    (Rsa.verify key.Rsa.pub ~msg ~signature:faulty_sig)

(* --- Keygen known answers ---

   SHA-256 of the public key bytes, of d, of one signature and of the next
   32 DRBG bytes after a key is made from a fixed seed. The hex was
   computed before the product-scanning Montgomery kernel, the grouped
   trial division and the prepared DRBG key, none of which may move a
   byte: a shifted prime, a changed witness or an extra draw fails here.
   A performance change never regenerates these. *)

let test_rsa_keygen_kat () =
  List.iter
    (fun (bits, want) ->
      let d = Drbg.create ~seed:(Printf.sprintf "keygen kat %d" bits) in
      let key = Rsa.generate d ~bits in
      let got =
        List.map
          (fun s -> Sha256.to_hex (Sha256.digest s))
          [ Rsa.public_to_bytes key.Rsa.pub; N.to_bytes_be key.Rsa.d;
            Rsa.sign key "keygen known answer"; Drbg.generate d 32 ]
      in
      Alcotest.(check (list string)) (Printf.sprintf "%d-bit key" bits) want got)
    [ ( 512,
        [ "ce45a64d5f8b4e9e3a256674dbd5c3a71ac6789afad13ce79565d840cc690aee";
          "d669bbc3c84f8b65e3be8e167eaca43c15ce0a7f77c168d088f26b85e49234ea";
          "aec19e96b8ebc9ba57e272f02b3a2a77bd8f478ca00d2431c837f4537e6e8aaa";
          "d7b5361d8cb8f8e1c330a110e3502e3e82694522d5b66b8eabdfcb324958b801" ] );
      ( 768,
        [ "85909babbf430b2406ae68e1a1eb24886444fb4a710f9f3870794ccad72b5fb2";
          "7d04d2ff053b9e26b02732ca25e0f5abbe02d3eea6dd92603cfd3a73f3ffba38";
          "3d36b68c2370a5d34822edef1dd79479d9a3fde0c3b0b20d491654f5e641b0de";
          "aa7952a38e41193a7b6d7e2e2ef0779369133bd6165a926e11e9373e80d3047e" ] ) ]

(* --- Properties --- *)

let prop_sha_distinct =
  QCheck.Test.make ~name:"sha256 distinguishes distinct strings" ~count:300
    (QCheck.pair QCheck.string QCheck.string)
    (fun (a, b) -> a = b || Sha256.digest a <> Sha256.digest b)

let prop_aead_roundtrip =
  QCheck.Test.make ~name:"aead roundtrips arbitrary bytes" ~count:200
    (QCheck.pair QCheck.string QCheck.small_string)
    (fun (pt, ad) ->
      let d = Drbg.create ~seed:("nonce" ^ ad ^ pt) in
      let nonce = Drbg.generate d 12 in
      let box = Aead.seal ~key:aead_key ~ad ~nonce pt in
      Aead.open_ ~key:aead_key ~ad box = Ok pt)

let prop_chacha_involution =
  QCheck.Test.make ~name:"chacha encrypt is an involution" ~count:200 QCheck.string (fun pt ->
      let key = Sha256.digest "k" and nonce = String.make 12 'n' in
      Chacha20.encrypt ~key ~nonce (Chacha20.encrypt ~key ~nonce pt) = pt)

let prop_ct_equal_iff =
  QCheck.Test.make ~name:"ct equal iff structurally equal" ~count:500
    (QCheck.pair QCheck.small_string QCheck.small_string)
    (fun (a, b) -> Ct.equal_string a b = (a = b))

(* Against the reference implementations. Message lengths lean on the
   padding edges: at 55 bytes the length still fits the last block, at 56
   it does not; 63, 64, 119, 120 and 128 sit at block boundaries. *)

let msg_gen =
  QCheck.Gen.(
    frequency [ (1, oneofl [ 55; 56; 63; 64; 119; 120; 128 ]); (2, int_range 0 300) ] >>= fun n ->
    string_size ~gen:char (return n))

let arb_msg =
  QCheck.make ~print:(fun s -> Printf.sprintf "%d bytes %s" (String.length s) (Sha256.to_hex s)) msg_gen

let arb_key32 = QCheck.make ~print:Sha256.to_hex QCheck.Gen.(string_size ~gen:char (return 32))

let prop_sha_vs_ref =
  QCheck.Test.make ~name:"sha256 = int32 reference" ~count:500 arb_msg (fun m ->
      Sha256.digest m = Ref_sha256.digest m)

let prop_hmac_vs_ref =
  QCheck.Test.make ~name:"hmac = reference, keys 0-200 bytes" ~count:300
    (QCheck.pair
       (QCheck.make ~print:Sha256.to_hex
          QCheck.Gen.(
            string_size ~gen:char (frequency [ (1, oneofl [ 63; 64; 65 ]); (3, int_range 0 200) ])))
       arb_msg)
    (fun (key, m) ->
      let want = Ref_hmac.mac ~key m and k = Hmac.prepare key in
      Hmac.mac ~key m = want && Hmac.mac_prepared k m = want && Hmac.mac_prepared k m = want)

let prop_chacha_vs_ref =
  QCheck.Test.make ~name:"chacha20 = int32 reference, counters to 0xffffffff" ~count:300
    (QCheck.triple arb_key32
       (QCheck.make ~print:string_of_int
          QCheck.Gen.(
            frequency [ (1, oneofl [ 0; 1; 0xfffffffe; 0xffffffff ]); (2, int_bound 0xffffffff) ]))
       arb_msg)
    (fun (key, counter, m) ->
      let nonce = String.sub (Sha256.digest key) 0 12 in
      Chacha20.encrypt ~key ~nonce ~counter m = Ref_chacha20.encrypt ~key ~nonce ~counter m
      && Chacha20.block ~key ~nonce ~counter = Ref_chacha20.block ~key ~nonce ~counter)

let prop_poly1305_vs_ref =
  QCheck.Test.make ~name:"poly1305 = bignum reference" ~count:300
    (QCheck.pair arb_key32 arb_msg)
    (fun (key, m) -> Poly1305.mac ~key m = Ref_poly1305.mac ~key m)

let prop_aead_vs_ref =
  QCheck.Test.make ~name:"aead seal/open = reference" ~count:200
    (QCheck.quad arb_key32 QCheck.small_string arb_msg QCheck.(option small_nat))
    (fun (key, ad, pt, flip) ->
      let nonce = String.sub (Sha256.digest pt) 0 12 in
      let box = Aead.seal ~key ~ad ~nonce pt and k = Aead.prepare key in
      let received =
        match flip with
        | None -> box
        | Some i ->
            let b = Bytes.of_string box in
            let i = i mod Bytes.length b in
            Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x20));
            Bytes.to_string b
      in
      let want = Ref_aead.seal ~key ~ad ~nonce pt and opened = Ref_aead.open_ ~key ~ad received in
      box = want
      && Aead.seal_prepared k ~ad ~nonce pt = want
      && Aead.open_ ~key ~ad received = opened
      && Aead.open_prepared k ~ad received = opened)

(* Draw lengths 0-100, leaning on 32, 33 and 64 (one output block, one
   byte past it, two blocks), between reseeds that may be empty. *)
let drbg_op_gen =
  QCheck.Gen.(
    frequency
      [ (3, map (fun n -> `Draw n) (frequency [ (1, oneofl [ 0; 32; 33; 64 ]); (2, int_range 0 100) ]));
        (1, map (fun e -> `Reseed e) (string_size ~gen:char (int_range 0 40))) ])

let prop_drbg_vs_ref =
  QCheck.Test.make ~name:"drbg = per-MAC reference over draws and reseeds" ~count:200
    (QCheck.pair QCheck.small_string
       (QCheck.make
          ~print:(fun ops ->
            String.concat " "
              (List.map (function `Draw n -> string_of_int n | `Reseed e -> Printf.sprintf "%S" e) ops))
          QCheck.Gen.(list_size (int_range 0 12) drbg_op_gen)))
    (fun (seed, ops) ->
      let d = Drbg.create ~seed and r = Ref_drbg.create ~seed in
      List.for_all
        (function
          | `Draw n -> Drbg.generate d n = Ref_drbg.generate r n
          | `Reseed e ->
              Drbg.reseed d e;
              Ref_drbg.reseed r e;
              true)
        ops
      && Drbg.generate d 32 = Ref_drbg.generate r 32)

let props =
  List.map QCheck_alcotest.to_alcotest
    [ prop_sha_distinct; prop_aead_roundtrip; prop_chacha_involution; prop_ct_equal_iff;
      prop_sha_vs_ref; prop_hmac_vs_ref; prop_chacha_vs_ref; prop_poly1305_vs_ref;
      prop_aead_vs_ref; prop_drbg_vs_ref ]

(* --- Cost tally ---

   Exact kernel counts of single calls. Preparing an HMAC key and a MAC of
   at most 55 bytes under it are two compressions each (a 56-byte message
   pads into a second inner block, and so does each further 64 bytes):
   [Aead.prepare] is a preparation and one MAC; a DRBG draw of up to 32
   bytes is one output MAC under the key the generator keeps prepared and
   a trailing update of two MACs and a preparation. A seal of 1 KB with no associated data is 16 ChaCha20
   blocks of keystream and one for the MAC key, and 64 Poly1305 blocks of
   ciphertext and one of lengths. *)

let cost_of f =
  let before = Cost.read () in
  ignore (Sys.opaque_identity (f ()));
  Cost.diff ~before ~after:(Cost.read ())

let test_cost_pins () =
  let rsa_key = key in
  let key = String.make 32 'k' and nonce = String.make 12 'n' in
  let kb = String.make 1024 'x' in
  let c = cost_of (fun () -> Aead.prepare key) in
  Alcotest.(check int) "Aead.prepare: 4 compressions" 4 c.Cost.sha256_compressions;
  Alcotest.(check int) "Aead.prepare: no blocks" 0 c.Cost.chacha20_blocks;
  let prepared = Aead.prepare key in
  let c = cost_of (fun () -> Aead.seal_prepared prepared ~nonce kb) in
  Alcotest.(check (list int)) "Aead.seal_prepared 1 KB: compressions, blocks, poly1305 blocks"
    [ 0; 17; 65 ] [ c.Cost.sha256_compressions; c.Cost.chacha20_blocks; c.Cost.poly1305_blocks ];
  let c = cost_of (fun () -> Poly1305.mac ~key (String.sub kb 0 33)) in
  Alcotest.(check int) "Poly1305.mac 33 B: 3 blocks" 3 c.Cost.poly1305_blocks;
  let c = cost_of (fun () -> Hmac.prepare key) in
  Alcotest.(check int) "Hmac.prepare: 2 compressions" 2 c.Cost.sha256_compressions;
  let mac_key = Hmac.prepare key in
  List.iter
    (fun (n, want) ->
      let c = cost_of (fun () -> Hmac.mac_prepared mac_key (String.sub kb 0 n)) in
      Alcotest.(check int) (Printf.sprintf "Hmac.mac_prepared %d B: %d compressions" n want) want
        c.Cost.sha256_compressions)
    [ (0, 2); (33, 2); (55, 2); (56, 3); (119, 3); (120, 4) ];
  let d = Drbg.create ~seed:"cost" in
  List.iter
    (fun n ->
      let c = cost_of (fun () -> Drbg.generate d n) in
      Alcotest.(check int) (Printf.sprintf "generate %d: 8 compressions" n) 8
        c.Cost.sha256_compressions;
      Alcotest.(check int) (Printf.sprintf "generate %d: one draw" n) 1 c.Cost.drbg_draws)
    [ 1; 12; 32 ];
  let c = cost_of (fun () -> Chacha20.encrypt ~key ~nonce kb) in
  Alcotest.(check int) "Chacha20.encrypt 1 KB: 16 blocks" 16 c.Cost.chacha20_blocks;
  Alcotest.(check int) "Chacha20.encrypt: no compressions" 0 c.Cost.sha256_compressions;
  let c = cost_of (fun () -> Sha256.digest kb) in
  Alcotest.(check int) "Sha256.digest 1 KB: 17 compressions" 17 c.Cost.sha256_compressions;
  let c = cost_of (fun () -> Rsa.generate (Drbg.create ~seed:"cost rsa") ~bits:128) in
  Alcotest.(check (list int)) "Rsa.generate: sign, verify, keygen" [ 0; 0; 1 ]
    [ c.Cost.rsa_sign; c.Cost.rsa_verify; c.Cost.rsa_keygen ];
  let signature = Rsa.sign rsa_key "cost" in
  let c = cost_of (fun () -> Rsa.sign rsa_key "cost") in
  Alcotest.(check (list int)) "Rsa.sign: sign, verify, keygen" [ 1; 0; 0 ]
    [ c.Cost.rsa_sign; c.Cost.rsa_verify; c.Cost.rsa_keygen ];
  let c = cost_of (fun () -> Rsa.verify rsa_key.Rsa.pub ~msg:"cost" ~signature) in
  Alcotest.(check (list int)) "Rsa.verify: sign, verify, keygen" [ 0; 1; 0 ]
    [ c.Cost.rsa_sign; c.Cost.rsa_verify; c.Cost.rsa_keygen ]

(* Each domain keeps its own tally: work on another domain never shows in
   this one's reads. *)
let test_cost_domain_local () =
  let before = Cost.read () in
  let theirs =
    Domain.join
      (Domain.spawn (fun () ->
           let b = Cost.read () in
           ignore (Sha256.digest "other domain");
           Cost.diff ~before:b ~after:(Cost.read ())))
  in
  Alcotest.(check int) "spawned domain counted its compression" 1 theirs.Cost.sha256_compressions;
  Alcotest.(check int) "this domain counted none" 0
    (Cost.diff ~before ~after:(Cost.read ())).Cost.sha256_compressions

(* --- Allocation gate ---

   SHA-256 runs its rounds and ChaCha20 its 16 working words in unboxed
   Int32 locals, so a compression or a block allocates nothing, and a
   one-shot digest hashes in the domain's scratch and allocates only its
   48 B result. A 1 KB encryption allocates its 1040 B output and its 136 B
   input state, 1176 B; with the working words in an array and a keystream
   buffer it was 1392 B. One boxed word or one closure per block adds at
   least 24 B for each of the 16 blocks, past the 1536 B bound. The SHA-256
   and HMAC bounds sit several times above what the call allocates now and
   several times below what boxed Int32 words cost (38.7 KB and 10.3 KB
   per call). A 512-bit RSA signature under a generated key runs about
   660 Montgomery multiplications and allocates about 8.9 KB: each of its
   three exponentiations (two CRT halves and the fault check) converts
   its operand and allocates its workspace, under constants the key
   holds. A verify allocates about 1.8 KB. Rebuilding the constants per
   call, one division for R^2 mod m each, made them 17.1 KB and 5.9 KB,
   past the 12 KB and 3 KB bounds, and a multiply that boxed one 24 B
   column sum per column would add some 270 KB to a signature. A seal of
   1 KB under a prepared AEAD key allocates about 1,426 B: the 1,072 B
   box it encrypts and tags in place, one ChaCha20 input state, the
   32-byte one-time key written straight from block 0, and the Poly1305
   state. An open allocates
   about 1,570 B, the plaintext, the nonce, the tags and the same working
   state. A second ChaCha20 input state (136 B) fails the 1,536 B and
   1,664 B bounds, and so does drawing the one-time key as a 64-byte
   block and a 32-byte copy of it with a 16-byte buffer for the lengths
   (1,674 B and 1,818 B), or a second copy of the kilobyte, such as a
   ciphertext built apart and then joined to its nonce and tag. Deriving
   the subkey adds about 0.7 KB, which the cost pins catch (a prepared
   seal makes no compression). A MAC under a prepared HMAC key hashes on
   from the key's chaining words in the domain's scratch block and
   allocates only its 48 B tag, at 32 B as at 100 B; copying two SHA-256
   contexts per MAC, as it once did, allocated about 480 B, past the
   256 B bound, and contexts that carried their own 64-word schedules made
   that 1536 B, past the 1 KB bound. A 32-byte DRBG draw allocates 392 B:
   its output, four MAC results (the output block, the next key, the next
   V, and V ‖ 0x00 built to be MACed) and the next prepared key (136 B).
   Preparing the key afresh from contexts on every draw, and copying two
   contexts per MAC, allocated 2,792 B, past the 512 B bound. A Poly1305
   MAC allocates its state, one block buffer and its tag, 200 B whatever
   the length; a block that boxed its four word loads would allocate over
   6 KB at 64 blocks. A public key carries its encoding, so
   [Rsa.public_to_bytes] allocates nothing, and the probe, which
   subtracts its own boxes, reads 0 B; converting a 512-bit key's two
   numbers on each call allocated 386 B. A block over 256 words skips
   the minor heap, so the count includes the major heap's
   ({!Testkit.alloc_bytes_per_call}). Bytecode boxes regardless, so the
   gate runs on native code only. *)

let test_allocation_gate () =
  if Sys.backend_type = Sys.Native then begin
    let rsa_key = key in
    let rsa_sig = Rsa.sign rsa_key "allocation gate" in
    let kb = String.init 1024 (fun i -> Char.chr (i land 0xff)) in
    let key = String.make 32 'k' and nonce = String.make 12 'n' in
    let prepared = Aead.prepare key and mac_key = Hmac.prepare key in
    let box = Aead.seal_prepared prepared ~nonce kb in
    let msg32 = String.sub kb 0 32 and msg100 = String.sub kb 0 100 in
    let drbg = Drbg.create ~seed:"allocation gate" in
    List.iter
      (fun (name, bound, f) ->
        let used = Testkit.alloc_bytes_per_call f in
        Alcotest.(check bool) (Printf.sprintf "%s: %.0f B per call <= %d" name used bound) true
          (used <= float bound))
      [ ("Sha256.digest 1 KB", 4096, fun () -> Sha256.digest kb);
        ("Chacha20.encrypt 1 KB", 1536, fun () -> Chacha20.encrypt ~key ~nonce kb);
        ("Hmac.mac", 4096, fun () -> Hmac.mac ~key "aead-mac");
        ("Hmac.mac_prepared 32 B", 256, fun () -> Hmac.mac_prepared mac_key msg32);
        ("Hmac.mac_prepared 100 B", 1024, fun () -> Hmac.mac_prepared mac_key msg100);
        ("Drbg.generate 32", 512, fun () -> Drbg.generate drbg 32);
        ("Poly1305.mac 1 KB", 1024, fun () -> Poly1305.mac ~key kb);
        ("Aead.seal 1 KB", 4096, fun () -> Aead.seal ~key ~nonce kb);
        ("Aead.seal_prepared 1 KB", 1536, fun () -> Aead.seal_prepared prepared ~nonce kb);
        ("Aead.open_prepared 1 KB", 1664,
         fun () -> Result.get_ok (Aead.open_prepared prepared box));
        ("Rsa.sign 512-bit", 12288, fun () -> Rsa.sign rsa_key "allocation gate");
        ("Rsa.verify 512-bit", 3072,
         fun () ->
           Bool.to_string (Rsa.verify rsa_key.Rsa.pub ~msg:"allocation gate" ~signature:rsa_sig)) ];
    Alcotest.(check (float 0.)) "Rsa.public_to_bytes: B per call" 0.
      (Testkit.alloc_bytes_per_call (fun () -> Rsa.public_to_bytes rsa_key.Rsa.pub))
  end

let () =
  Alcotest.run "crypto"
    [ ("sha256", [ ("vectors", `Quick, test_sha256_vectors) ]);
      ( "hmac",
        [ ("rfc4231 vectors", `Quick, test_hmac_vectors); ("verify", `Quick, test_hmac_verify) ]
      );
      ( "chacha20",
        [ ("rfc8439 vector", `Quick, test_chacha20_vector);
          ("argument validation", `Quick, test_chacha20_args);
          ("int32 reference at every length to 200 B", `Quick, test_chacha20_vs_ref) ] );
      ( "poly1305",
        [ ("rfc8439 vector", `Quick, test_poly1305_vector);
          ("reduction edges", `Quick, test_poly1305_edges) ] );
      ("ct", [ ("constant-time compare", `Quick, test_ct) ]);
      ("allocation", [ ("kernels allocate no words", `Quick, test_allocation_gate) ]);
      ( "cost",
        [ ("exact kernel counts", `Quick, test_cost_pins);
          ("tally is per domain", `Quick, test_cost_domain_local) ] );
      ( "drbg",
        [ ("deterministic", `Quick, test_drbg_deterministic);
          ("reseed", `Quick, test_drbg_reseed);
          ("uniform", `Quick, test_drbg_uniform);
          ("committed DRBG vectors", `Quick, test_drbg_vectors) ] );
      ( "aead",
        [ ("roundtrip", `Quick, test_aead_roundtrip);
          ("tamper detection", `Quick, test_aead_tamper);
          ("wire encode", `Quick, test_aead_encode);
          ("prepared key reused", `Quick, test_aead_prepared_reuse);
          ("wrong-length keys", `Quick, test_aead_wrong_length);
          ("committed vectors", `Quick, test_aead_vectors);
          ("older boxes refused", `Quick, test_aead_refuses_old_format) ] );
      ( "rsa",
        [ ("sign/verify", `Slow, test_rsa_sign_verify);
          ("cross key", `Slow, test_rsa_cross_key);
          ("encrypt/decrypt", `Slow, test_rsa_encrypt);
          ("public key encoding", `Slow, test_rsa_pub_encoding);
          ("public key encoding is linear", `Quick, test_rsa_pub_encoding_linear);
          ("public key bytes take one shape", `Quick, test_rsa_pub_encoding_exact);
          ("verify refuses keys outside its bounds", `Quick, test_rsa_verify_bounds);
          ("crt byte-identical", `Slow, test_rsa_crt_byte_identical);
          ("crt fault guard", `Slow, test_rsa_crt_fault_guard);
          ("crt unguarded fault rejected", `Slow, test_rsa_crt_unguarded_fault_rejected);
          ("keygen known answers", `Quick, test_rsa_keygen_kat) ] );
      ("properties", props) ]
