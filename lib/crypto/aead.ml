type sealed = { nonce : string; ciphertext : string; tag : string }

(* RFC 8439 §2.8 ChaCha20-Poly1305 under a subkey, HMAC(key,
   "aead-encrypt"): proxy keys also key HMAC session bindings, so no raw
   key ever keys the cipher. Read-only once built. *)
type key = Key of string | Wrong_length

let prepare key =
  if String.length key <> 32 then Wrong_length else Key (Hmac.mac ~key "aead-encrypt")

(* The one-time Poly1305 key is the first half of keystream block 0, and
   encryption starts at block 1. The MAC covers ad and ciphertext, each
   zero-padded to 16 bytes, then both lengths as 64-bit little-endian. *)
let tag enc ~nonce ~ad ciphertext =
  let otk = String.sub (Chacha20.block ~key:enc ~nonce ~counter:0) 0 32 in
  let st = Poly1305.start ~key:otk in
  Poly1305.pad16 st ad;
  Poly1305.pad16 st ciphertext;
  let lengths = Bytes.create 16 in
  Bytes.set_int64_le lengths 0 (Int64.of_int (String.length ad));
  Bytes.set_int64_le lengths 8 (Int64.of_int (String.length ciphertext));
  Poly1305.pad16 st (Bytes.unsafe_to_string lengths);
  Poly1305.finish st

let seal_prepared key ?(ad = "") ~nonce plaintext =
  match key with
  | Wrong_length -> invalid_arg "Aead.seal: key must be 32 bytes"
  | Key enc ->
      if String.length nonce <> 12 then invalid_arg "Aead.seal: nonce must be 12 bytes";
      let ciphertext = Chacha20.encrypt ~key:enc ~nonce plaintext in
      { nonce; ciphertext; tag = tag enc ~nonce ~ad ciphertext }

let open_prepared key ?(ad = "") box =
  match key with
  | Key enc when String.length box.nonce = 12 ->
      if Ct.equal_string (tag enc ~nonce:box.nonce ~ad box.ciphertext) box.tag then
        Some (Chacha20.encrypt ~key:enc ~nonce:box.nonce box.ciphertext)
      else None
  | Key _ | Wrong_length -> None

let seal ~key ?ad ~nonce plaintext = seal_prepared (prepare key) ?ad ~nonce plaintext
let open_ ~key ?ad box = open_prepared (prepare key) ?ad box

let encode box = box.nonce ^ box.tag ^ box.ciphertext

let decode s =
  if String.length s < 28 then None
  else
    Some
      {
        nonce = String.sub s 0 12;
        tag = String.sub s 12 16;
        ciphertext = String.sub s 28 (String.length s - 28);
      }
