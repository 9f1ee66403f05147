(* RFC 8439 §2.8 ChaCha20-Poly1305 under a subkey, HMAC(key,
   "aead-encrypt"): proxy keys also key HMAC session bindings, so no raw
   key ever keys the cipher. Read-only once built. *)
type key = Key of string | Wrong_length

let prepare key =
  if String.length key <> 32 then Wrong_length else Key (Hmac.mac ~key "aead-encrypt")

(* A box is nonce (12 bytes) ‖ tag (16) ‖ ciphertext. *)
let overhead = 28

let tag box = String.sub box 12 16

(* Write to [dst] from [at] the tag over [ad] and [box]'s ciphertext. The
   one-time Poly1305 key is the first half of keystream block 0 of [st],
   XORed over 32 zero bytes in place, and encryption starts at block 1.
   The MAC covers ad and ciphertext, each zero-padded to 16 bytes, then
   both lengths as 64-bit little-endian. *)
let mac st ~ad box dst at =
  let otk = Bytes.make 32 '\000' in
  Chacha20.xor_into st ~counter:0 (Bytes.unsafe_to_string otk) 0 otk 0 32;
  let p = Poly1305.start ~key:(Bytes.unsafe_to_string otk) in
  let ad_len = String.length ad and ct_len = String.length box - overhead in
  Poly1305.pad16 p ad 0 ad_len;
  Poly1305.pad16 p box overhead ct_len;
  Poly1305.lengths p ad_len ct_len;
  Poly1305.finish p dst at

let seal_prepared key ?(ad = "") ~nonce plaintext =
  match key with
  | Wrong_length -> invalid_arg "Aead.seal: key must be 32 bytes"
  | Key enc ->
      if String.length nonce <> 12 then invalid_arg "Aead.seal: nonce must be 12 bytes";
      let st = Chacha20.start ~key:enc ~nonce and len = String.length plaintext in
      let box = Bytes.create (overhead + len) in
      Bytes.blit_string nonce 0 box 0 12;
      Chacha20.xor_into st ~counter:1 plaintext 0 box overhead len;
      (* [mac] reads the ciphertext through this view before it writes the tag. *)
      mac st ~ad (Bytes.unsafe_to_string box) box 12;
      Bytes.unsafe_to_string box

let open_prepared key ?(ad = "") box =
  if String.length box < overhead then Error `Malformed
  else
    match key with
    | Wrong_length -> Error `Bad_tag
    | Key enc ->
        let st = Chacha20.start ~key:enc ~nonce:(String.sub box 0 12) in
        let want = Bytes.create 16 in
        mac st ~ad box want 0;
        if Ct.equal_string (Bytes.unsafe_to_string want) (tag box) then begin
          let len = String.length box - overhead in
          let plaintext = Bytes.create len in
          Chacha20.xor_into st ~counter:1 box overhead plaintext 0 len;
          Ok (Bytes.unsafe_to_string plaintext)
        end
        else Error `Bad_tag

let seal ~key ?ad ~nonce plaintext = seal_prepared (prepare key) ?ad ~nonce plaintext
let open_ ~key ?ad box = open_prepared (prepare key) ?ad box
