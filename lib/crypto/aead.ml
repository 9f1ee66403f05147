type sealed = { nonce : string; ciphertext : string; tag : string }

(* Domain-separated subkeys so the same 32-byte key can drive both the
   cipher and the MAC; one prepared key derives both. *)
let enc_key k = Hmac.mac_prepared k "aead-encrypt"
let mac_key k = Hmac.prepare (Hmac.mac_prepared k "aead-mac")

let len_be n =
  let b = Bytes.create 8 in
  Bytes.set_int64_be b 0 (Int64.of_int n);
  Bytes.unsafe_to_string b

(* The MAC input is len(ad) || ad || len(ciphertext) || ciphertext || nonce
   with 64-bit big-endian lengths, streamed part by part. *)
let tag k ~nonce ~ad ~ciphertext =
  let mk = mac_key k in
  let ctx = Hmac.start mk in
  Sha256.update ctx (len_be (String.length ad));
  Sha256.update ctx ad;
  Sha256.update ctx (len_be (String.length ciphertext));
  Sha256.update ctx ciphertext;
  Sha256.update ctx nonce;
  Hmac.finish mk ctx

let seal ~key ?(ad = "") ~nonce plaintext =
  if String.length key <> 32 then invalid_arg "Aead.seal: key must be 32 bytes";
  if String.length nonce <> 12 then invalid_arg "Aead.seal: nonce must be 12 bytes";
  let k = Hmac.prepare key in
  let ciphertext = Chacha20.encrypt ~key:(enc_key k) ~nonce plaintext in
  { nonce; ciphertext; tag = tag k ~nonce ~ad ~ciphertext }

let open_ ~key ?(ad = "") box =
  if String.length key <> 32 || String.length box.nonce <> 12 then None
  else begin
    let k = Hmac.prepare key in
    if Ct.equal_string (tag k ~nonce:box.nonce ~ad ~ciphertext:box.ciphertext) box.tag then
      Some (Chacha20.encrypt ~key:(enc_key k) ~nonce:box.nonce box.ciphertext)
    else None
  end

let encode box = box.nonce ^ box.tag ^ box.ciphertext

let decode s =
  if String.length s < 44 then None
  else
    Some
      {
        nonce = String.sub s 0 12;
        tag = String.sub s 12 32;
        ciphertext = String.sub s 44 (String.length s - 44);
      }
