type sealed = { nonce : string; ciphertext : string; tag : string }

(* Domain-separated subkeys so the same 32-byte key can drive both the
   cipher and the MAC: [enc] is the ChaCha20 key, [mac] the MAC key with
   both pads absorbed. Read-only once built: [Hmac.start] and
   [Hmac.finish] copy its contexts. *)
type key = Key of { enc : string; mac : Hmac.key } | Wrong_length

let prepare key =
  if String.length key <> 32 then Wrong_length
  else
    let k = Hmac.prepare key in
    Key
      {
        enc = Hmac.mac_prepared k "aead-encrypt";
        mac = Hmac.prepare (Hmac.mac_prepared k "aead-mac");
      }

let len_be n =
  let b = Bytes.create 8 in
  Bytes.set_int64_be b 0 (Int64.of_int n);
  Bytes.unsafe_to_string b

(* The MAC input is len(ad) || ad || len(ciphertext) || ciphertext || nonce
   with 64-bit big-endian lengths, streamed part by part. *)
let tag mk ~nonce ~ad ~ciphertext =
  let ctx = Hmac.start mk in
  Sha256.update ctx (len_be (String.length ad));
  Sha256.update ctx ad;
  Sha256.update ctx (len_be (String.length ciphertext));
  Sha256.update ctx ciphertext;
  Sha256.update ctx nonce;
  Hmac.finish mk ctx

let seal_prepared key ?(ad = "") ~nonce plaintext =
  match key with
  | Wrong_length -> invalid_arg "Aead.seal: key must be 32 bytes"
  | Key { enc; mac } ->
      if String.length nonce <> 12 then invalid_arg "Aead.seal: nonce must be 12 bytes";
      let ciphertext = Chacha20.encrypt ~key:enc ~nonce plaintext in
      { nonce; ciphertext; tag = tag mac ~nonce ~ad ~ciphertext }

let open_prepared key ?(ad = "") box =
  match key with
  | Key { enc; mac } when String.length box.nonce = 12 ->
      if Ct.equal_string (tag mac ~nonce:box.nonce ~ad ~ciphertext:box.ciphertext) box.tag then
        Some (Chacha20.encrypt ~key:enc ~nonce:box.nonce box.ciphertext)
      else None
  | Key _ | Wrong_length -> None

let seal ~key ?ad ~nonce plaintext = seal_prepared (prepare key) ?ad ~nonce plaintext
let open_ ~key ?ad box = open_prepared (prepare key) ?ad box

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
