(** SHA-256 (FIPS 180-4), implemented from scratch.

    All hashing in the proxy system — certificate signatures, HMAC proxy
    keys, check digests — bottoms out here. *)

type ctx

val init : unit -> ctx
val update : ctx -> string -> unit
val finalize : ctx -> string
(** [finalize ctx] returns the 32-byte digest. The context must not be used
    afterwards. *)

val copy : ctx -> ctx
(** [copy ctx] is an independent context that has absorbed the same input,
    so a shared prefix is hashed once. *)

val digest : string -> string
(** One-shot hash of a full message; 32 raw bytes. *)

val hex_digest : string -> string
(** One-shot hash rendered as 64 lowercase hex characters. *)

val to_hex : string -> string
(** Render arbitrary bytes as lowercase hex (utility shared by tests). *)
