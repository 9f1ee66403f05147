(* Crypto substrate tests: published vectors for SHA-256 / HMAC / ChaCha20,
   behavioural and property tests for DRBG, AEAD, and RSA. *)

module Sha256 = Crypto.Sha256
module Hmac = Crypto.Hmac
module Chacha20 = Crypto.Chacha20
module Drbg = Crypto.Drbg
module Aead = Crypto.Aead
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

   SHA-256 and ChaCha20 as they were on Int32 words, with HMAC and AEAD
   composed over them by concatenation, kept as the oracle for the
   native-int kernels: every output byte must agree. *)

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

module Ref_aead = struct
  module Hmac = Ref_hmac
  module Chacha20 = Ref_chacha20

  type sealed = Aead.sealed = { nonce : string; ciphertext : string; tag : string }

  (* Domain-separated subkeys so the same 32-byte key can drive both the
     cipher and the MAC. *)
  let enc_key key = Hmac.mac ~key "aead-encrypt"
  let mac_key key = Hmac.mac ~key "aead-mac"

  let tag_input ~nonce ~ad ~ciphertext =
    let len_be n =
      String.init 8 (fun i -> Char.chr ((n lsr (8 * (7 - i))) land 0xff))
    in
    String.concat "" [ len_be (String.length ad); ad; len_be (String.length ciphertext); ciphertext; nonce ]

  let seal ~key ?(ad = "") ~nonce plaintext =
    if String.length key <> 32 then invalid_arg "Aead.seal: key must be 32 bytes";
    if String.length nonce <> 12 then invalid_arg "Aead.seal: nonce must be 12 bytes";
    let ciphertext = Chacha20.encrypt ~key:(enc_key key) ~nonce plaintext in
    let tag = Hmac.mac ~key:(mac_key key) (tag_input ~nonce ~ad ~ciphertext) in
    { nonce; ciphertext; tag }

  let open_ ~key ?(ad = "") box =
    if String.length key <> 32 || String.length box.nonce <> 12 then None
    else begin
      let expected = Hmac.mac ~key:(mac_key key) (tag_input ~nonce:box.nonce ~ad ~ciphertext:box.ciphertext) in
      if Ct.equal_string expected box.tag then
        Some (Chacha20.encrypt ~key:(enc_key key) ~nonce:box.nonce box.ciphertext)
      else None
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

let test_sha256_incremental () =
  (* Streaming in odd-sized chunks must agree with one-shot. *)
  let msg = String.init 3000 (fun i -> Char.chr (i mod 251)) in
  let ctx = Sha256.init () in
  let pos = ref 0 in
  let sizes = [ 1; 63; 64; 65; 100; 7; 1000; 2000 ] in
  List.iter
    (fun n ->
      let n = min n (String.length msg - !pos) in
      Sha256.update ctx (String.sub msg !pos n);
      pos := !pos + n)
    sizes;
  Sha256.update ctx (String.sub msg !pos (String.length msg - !pos));
  Alcotest.(check string) "incremental = one-shot" (Sha256.digest msg) (Sha256.finalize ctx)

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
      (fun () -> ignore (Chacha20.block ~key:(String.make 32 '\x00') ~nonce:"x" ~counter:0)))

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

let test_aead_roundtrip () =
  let nonce = String.make 12 '\x07' in
  let box = Aead.seal ~key:aead_key ~ad:"header" ~nonce "attack at dawn" in
  (match Aead.open_ ~key:aead_key ~ad:"header" box with
  | Some pt -> Alcotest.(check string) "roundtrip" "attack at dawn" pt
  | None -> Alcotest.fail "expected successful open");
  Alcotest.(check bool) "wrong ad fails" true (Aead.open_ ~key:aead_key ~ad:"other" box = None);
  Alcotest.(check bool) "wrong key fails" true
    (Aead.open_ ~key:(Sha256.digest "wrong") ~ad:"header" box = None)

let test_aead_tamper () =
  let nonce = String.make 12 '\x01' in
  let box = Aead.seal ~key:aead_key ~nonce "sensitive proxy key" in
  let flip s i =
    let b = Bytes.of_string s in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 1));
    Bytes.to_string b
  in
  let tampered_ct = { box with Aead.ciphertext = flip box.Aead.ciphertext 0 } in
  let tampered_tag = { box with Aead.tag = flip box.Aead.tag 5 } in
  let tampered_nonce = { box with Aead.nonce = flip box.Aead.nonce 3 } in
  Alcotest.(check bool) "ct tamper" true (Aead.open_ ~key:aead_key tampered_ct = None);
  Alcotest.(check bool) "tag tamper" true (Aead.open_ ~key:aead_key tampered_tag = None);
  Alcotest.(check bool) "nonce tamper" true (Aead.open_ ~key:aead_key tampered_nonce = None)

let test_aead_encode () =
  let nonce = String.make 12 '\x02' in
  let box = Aead.seal ~key:aead_key ~nonce "wire me" in
  (match Aead.decode (Aead.encode box) with
  | Some box' -> (
      match Aead.open_ ~key:aead_key box' with
      | Some pt -> Alcotest.(check string) "decode roundtrip" "wire me" pt
      | None -> Alcotest.fail "open after decode")
  | None -> Alcotest.fail "decode");
  Alcotest.(check bool) "short decode fails" true (Aead.decode "short" = None)

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
        Alcotest.(check bool) (name ^ ": seal") true (Aead.seal_prepared k ~ad ~nonce pt = box);
        Alcotest.(check (option string)) (name ^ ": open") (Some pt) (Aead.open_prepared k ~ad box))
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
      Alcotest.(check (option string)) (name ^ ": open_prepared") None (Aead.open_prepared k box);
      Alcotest.(check (option string)) (name ^ ": open_") None (Aead.open_ ~key:raw box);
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
      Aead.open_ ~key:aead_key ~ad box = Some pt)

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

let prop_sha_split =
  QCheck.Test.make ~name:"sha256 update at random split points, and copy" ~count:300
    (QCheck.pair arb_msg QCheck.(small_list small_nat))
    (fun (m, cuts) ->
      let len = String.length m in
      let cuts = List.sort compare (List.map (fun c -> c mod (len + 1)) cuts) in
      let ctx = Sha256.init () in
      let pos =
        List.fold_left
          (fun pos c ->
            Sha256.update ctx (String.sub m pos (c - pos));
            c)
          0 cuts
      in
      let twin = Sha256.copy ctx and rest = String.sub m pos (len - pos) in
      Sha256.update ctx rest;
      Sha256.update twin rest;
      let want = Ref_sha256.digest m in
      Sha256.finalize ctx = want && Sha256.finalize twin = want)

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
            let b = Bytes.of_string (Aead.encode box) in
            let i = i mod Bytes.length b in
            Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x20));
            Option.get (Aead.decode (Bytes.to_string b))
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
      prop_sha_vs_ref; prop_sha_split; prop_hmac_vs_ref; prop_chacha_vs_ref; prop_aead_vs_ref;
      prop_drbg_vs_ref ]

(* --- Cost tally ---

   Exact kernel counts of single calls. Preparing an HMAC key and a MAC of
   a short message under it are two compressions each: [Aead.prepare] is
   a preparation, two MACs and a second preparation; a DRBG draw of up to
   32 bytes is a preparation, one output MAC and a trailing update of
   two MACs and a preparation. *)

let cost_of f =
  let before = Cost.read () in
  ignore (Sys.opaque_identity (f ()));
  Cost.diff ~before ~after:(Cost.read ())

let test_cost_pins () =
  let rsa_key = key in
  let key = String.make 32 'k' and nonce = String.make 12 'n' in
  let kb = String.make 1024 'x' in
  let c = cost_of (fun () -> Aead.prepare key) in
  Alcotest.(check int) "Aead.prepare: 8 compressions" 8 c.Cost.sha256_compressions;
  Alcotest.(check int) "Aead.prepare: no blocks" 0 c.Cost.chacha20_blocks;
  let d = Drbg.create ~seed:"cost" in
  List.iter
    (fun n ->
      let c = cost_of (fun () -> Drbg.generate d n) in
      Alcotest.(check int) (Printf.sprintf "generate %d: 10 compressions" n) 10
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

   The kernels hold their words in native ints, so a SHA-256 compression or
   a ChaCha20 block allocates nothing. Each bound sits several times above
   what the call allocates now and several times below what boxed Int32
   words cost (per call: 38.7 KB, 259 KB, 10.3 KB and 329 KB). A 512-bit
   RSA signature runs about 660 Montgomery multiplications and allocates
   about 19 KB (45 KB while each multiply built a closure), so a multiply
   that allocates even its scratch per call fails the 64 KB bound. A seal
   of 1 KB under a prepared AEAD key allocates about 3 KB; deriving the
   two subkeys adds about 6.4 KB, so a derivation per call fails its 4 KB
   bound. A MAC of 100 B under a prepared HMAC key copies two SHA-256
   contexts and allocates about 480 B; a context that carried its own
   64-word schedule made that 1536 B, past the 1 KB bound. Bytecode boxes
   regardless, so the gate runs on native code only. *)

let minor_bytes_per_call f =
  ignore (f ());
  let calls = 20 in
  let before = Gc.minor_words () in
  for _ = 1 to calls do
    ignore (Sys.opaque_identity (f ()))
  done;
  (Gc.minor_words () -. before) *. float (Sys.word_size / 8) /. float calls

let test_allocation_gate () =
  if Sys.backend_type = Sys.Native then begin
    let rsa_key = key in
    let kb = String.init 1024 (fun i -> Char.chr (i land 0xff)) in
    let key = String.make 32 'k' and nonce = String.make 12 'n' in
    let prepared = Aead.prepare key and mac_key = Hmac.prepare key in
    let msg100 = String.sub kb 0 100 in
    List.iter
      (fun (name, bound, f) ->
        let used = minor_bytes_per_call f in
        Alcotest.(check bool) (Printf.sprintf "%s: %.0f B per call <= %d" name used bound) true
          (used <= float bound))
      [ ("Sha256.digest 1 KB", 4096, fun () -> Sha256.digest kb);
        ("Chacha20.encrypt 1 KB", 8192, fun () -> Chacha20.encrypt ~key ~nonce kb);
        ("Hmac.mac", 4096, fun () -> Hmac.mac ~key "aead-mac");
        ("Hmac.mac_prepared 100 B", 1024, fun () -> Hmac.mac_prepared mac_key msg100);
        ("Aead.seal 1 KB", 32768, fun () -> (Aead.seal ~key ~nonce kb).Aead.tag);
        ("Aead.seal_prepared 1 KB", 4096,
         fun () -> (Aead.seal_prepared prepared ~nonce kb).Aead.tag);
        ("Rsa.sign 512-bit", 65536, fun () -> Rsa.sign rsa_key "allocation gate") ]
  end

let () =
  Alcotest.run "crypto"
    [ ( "sha256",
        [ ("vectors", `Quick, test_sha256_vectors);
          ("incremental", `Quick, test_sha256_incremental) ] );
      ( "hmac",
        [ ("rfc4231 vectors", `Quick, test_hmac_vectors); ("verify", `Quick, test_hmac_verify) ]
      );
      ( "chacha20",
        [ ("rfc8439 vector", `Quick, test_chacha20_vector);
          ("argument validation", `Quick, test_chacha20_args) ] );
      ("ct", [ ("constant-time compare", `Quick, test_ct) ]);
      ("allocation", [ ("kernels allocate no words", `Quick, test_allocation_gate) ]);
      ( "cost",
        [ ("exact kernel counts", `Quick, test_cost_pins);
          ("tally is per domain", `Quick, test_cost_domain_local) ] );
      ( "drbg",
        [ ("deterministic", `Quick, test_drbg_deterministic);
          ("reseed", `Quick, test_drbg_reseed);
          ("uniform", `Quick, test_drbg_uniform) ] );
      ( "aead",
        [ ("roundtrip", `Quick, test_aead_roundtrip);
          ("tamper detection", `Quick, test_aead_tamper);
          ("wire encode", `Quick, test_aead_encode);
          ("prepared key reused", `Quick, test_aead_prepared_reuse);
          ("wrong-length keys", `Quick, test_aead_wrong_length) ] );
      ( "rsa",
        [ ("sign/verify", `Slow, test_rsa_sign_verify);
          ("cross key", `Slow, test_rsa_cross_key);
          ("encrypt/decrypt", `Slow, test_rsa_encrypt);
          ("public key encoding", `Slow, test_rsa_pub_encoding);
          ("public key encoding is linear", `Quick, test_rsa_pub_encoding_linear);
          ("crt byte-identical", `Slow, test_rsa_crt_byte_identical);
          ("crt fault guard", `Slow, test_rsa_crt_fault_guard);
          ("crt unguarded fault rejected", `Slow, test_rsa_crt_unguarded_fault_rejected);
          ("keygen known answers", `Quick, test_rsa_keygen_kat) ] );
      ("properties", props) ]
