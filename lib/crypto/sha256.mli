(** SHA-256 (FIPS 180-4), implemented from scratch.

    All hashing in the proxy system — certificate signatures, HMAC proxy
    keys, check digests — bottoms out here. *)

val digest : string -> string
(** One-shot hash of a full message; 32 raw bytes. *)

val hex_digest : string -> string
(** One-shot hash rendered as 64 lowercase hex characters. *)

val to_hex : string -> string
(** Render arbitrary bytes as lowercase hex, two characters per byte, from
    a digit table: certificate serials, check numbers and span ids. *)
