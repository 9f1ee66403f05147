module N = Bignum.Nat

type public = { n : N.t; e : N.t; encoded : string }
type crt = { p : N.t; q : N.t; dp : N.t; dq : N.t; qinv : N.t }
type private_ = { pub : public; d : N.t; crt : crt option }

let e65537 = N.of_int 65537

let be32 k = String.init 4 (fun i -> Char.chr ((k lsr (8 * (3 - i))) land 0xff))

(* A key's canonical encoding, made once with the key. *)
let make_public n e =
  let nb = N.to_bytes_be n and eb = N.to_bytes_be e in
  { n; e; encoded = String.concat "" [ be32 (String.length nb); nb; be32 (String.length eb); eb ] }

let generate drbg ~bits =
  if bits < 128 then invalid_arg "Rsa.generate: modulus must be at least 128 bits";
  let kern = Kernel.get () in
  kern.Kernel.keygens <- kern.Kernel.keygens + 1;
  let half = bits / 2 in
  let rand = Drbg.rand drbg in
  let rec keypair () =
    let p = Bignum.Prime.generate rand half in
    let q = Bignum.Prime.generate rand (bits - half) in
    if N.equal p q then keypair ()
    else begin
      let n = N.mul p q in
      let phi = N.mul (N.sub p N.one) (N.sub q N.one) in
      match N.mod_inv e65537 phi with
      | None -> keypair () (* gcd(e, phi) <> 1; retry with new primes *)
      | Some d ->
          let crt =
            match N.mod_inv q p with
            | None -> None (* distinct primes, so unreachable; fall back *)
            | Some qinv ->
                Some
                  {
                    p;
                    q;
                    dp = N.rem d (N.sub p N.one);
                    dq = N.rem d (N.sub q N.one);
                    qinv;
                  }
          in
          { pub = make_public n e65537; d; crt }
    end
  in
  keypair ()

(* The private exponentiation c^d mod n. With CRT parameters this is two
   half-width half-exponent powers recombined by Garner's formula — about
   4x cheaper — and is followed by a consistency check against the public
   exponent (m^e mod n = c). The check keeps a computation corrupted by a
   fault (the classic Boneh–DeMillo–Lipton CRT fault attack, which would
   let a verifier factor n from one bad signature) from ever leaving this
   module: on mismatch we recompute by the slow, uncorruptible path, so
   the output is byte-identical to the pre-CRT implementation in every
   case. *)
let priv_op key c =
  match key.crt with
  | None -> N.mod_pow c key.d key.pub.n
  | Some { p; q; dp; dq; qinv } ->
      let m1 = N.mod_pow (N.rem c p) dp p in
      let m2 = N.mod_pow (N.rem c q) dq q in
      (* h = qinv * (m1 - m2) mod p, on naturals: m1 + p - (m2 mod p). *)
      let diff = N.rem (N.add m1 (N.sub p (N.rem m2 p))) p in
      let h = N.rem (N.mul qinv diff) p in
      let m = N.add m2 (N.mul h q) in
      if N.equal (N.mod_pow m key.pub.e key.pub.n) (N.rem c key.pub.n) then m
      else N.mod_pow c key.d key.pub.n

let modulus_bytes pub = (N.bit_length pub.n + 7) / 8

(* DigestInfo prefix for SHA-256 (DER), as in PKCS#1 v1.5 signatures. *)
let sha256_prefix =
  "\x30\x31\x30\x0d\x06\x09\x60\x86\x48\x01\x65\x03\x04\x02\x01\x05\x00\x04\x20"

let emsa_encode pub msg =
  let k = modulus_bytes pub in
  let digest_info = sha256_prefix ^ Sha256.digest msg in
  let pad_len = k - String.length digest_info - 3 in
  if pad_len < 8 then None
  else Some ("\x00\x01" ^ String.make pad_len '\xff' ^ "\x00" ^ digest_info)

let sign key msg =
  let kern = Kernel.get () in
  kern.Kernel.signs <- kern.Kernel.signs + 1;
  match emsa_encode key.pub msg with
  | None -> invalid_arg "Rsa.sign: modulus too small for SHA-256 signature"
  | Some em ->
      let m = N.of_bytes_be em in
      let s = priv_op key m in
      N.to_bytes_be_padded (modulus_bytes key.pub) s

let sign_reference key msg =
  match emsa_encode key.pub msg with
  | None -> invalid_arg "Rsa.sign_reference: modulus too small for SHA-256 signature"
  | Some em ->
      let m = N.of_bytes_be em in
      let s = N.mod_pow_naive m key.d key.pub.n in
      N.to_bytes_be_padded (modulus_bytes key.pub) s

let verify pub ~msg ~signature =
  let kern = Kernel.get () in
  kern.Kernel.verifies <- kern.Kernel.verifies + 1;
  String.length signature = modulus_bytes pub
  && begin
       let s = N.of_bytes_be signature in
       if N.compare s pub.n >= 0 then false
       else begin
         let m = N.mod_pow s pub.e pub.n in
         match emsa_encode pub msg with
         | None -> false
         | Some em -> Ct.equal_string (N.to_bytes_be_padded (modulus_bytes pub) m) em
       end
     end

let encrypt drbg pub msg =
  let k = modulus_bytes pub in
  let mlen = String.length msg in
  if mlen > k - 11 then None
  else begin
    let pad_len = k - mlen - 3 in
    let pad =
      String.init pad_len (fun _ ->
          (* Nonzero random padding bytes. *)
          let rec nz () =
            let b = (Drbg.generate drbg 1).[0] in
            if b = '\x00' then nz () else b
          in
          nz ())
    in
    let em = "\x00\x02" ^ pad ^ "\x00" ^ msg in
    let m = N.of_bytes_be em in
    Some (N.to_bytes_be_padded k (N.mod_pow m pub.e pub.n))
  end

let decrypt key ciphertext =
  let k = modulus_bytes key.pub in
  if String.length ciphertext <> k then None
  else begin
    let c = N.of_bytes_be ciphertext in
    if N.compare c key.pub.n >= 0 then None
    else begin
      let em = N.to_bytes_be_padded k (priv_op key c) in
      if String.length em < 11 || em.[0] <> '\x00' || em.[1] <> '\x02' then None
      else begin
        match String.index_from_opt em 2 '\x00' with
        | None -> None
        | Some sep when sep < 10 -> None (* padding must be at least 8 bytes *)
        | Some sep -> Some (String.sub em (sep + 1) (String.length em - sep - 1))
      end
    end
  end

let public_to_bytes pub = pub.encoded

(* One shape only: two length fields that cover the input exactly, around
   a modulus and an exponent that are each non-empty with no leading zero
   byte. Every other reading of the same numbers is refused, so the key
   keeps the very bytes it arrived as. *)
let public_of_bytes s =
  let len = String.length s in
  let read32 off =
    (Char.code s.[off] lsl 24)
    lor (Char.code s.[off + 1] lsl 16)
    lor (Char.code s.[off + 2] lsl 8)
    lor Char.code s.[off + 3]
  in
  let canonical off k = k > 0 && s.[off] <> '\x00' in
  if len < 10 then None
  else
    let nlen = read32 0 in
    if not (nlen <= len - 10 && canonical 4 nlen) then None
    else
      let elen = read32 (4 + nlen) in
      if not (8 + nlen + elen = len && canonical (8 + nlen) elen) then None
      else
        Some
          {
            n = N.of_bytes_be (String.sub s 4 nlen);
            e = N.of_bytes_be (String.sub s (8 + nlen) elen);
            encoded = s;
          }
