(** What the crypto kernels have done on the calling domain: SHA-256
    compressions, ChaCha20 blocks, {!Drbg.generate} calls, and RSA
    signatures, verifications and key generations (possession proofs
    included, since they call {!Rsa.sign} and {!Rsa.verify}).

    The counts live in a domain-local record and are always on. A caller
    costs a piece of work by reading before and after it on one domain:
    [diff ~before:(read ()) ~after:(read ())] around the work. *)

type t = {
  sha256_compressions : int;
  chacha20_blocks : int;
  drbg_draws : int;
  rsa_sign : int;
  rsa_verify : int;
  rsa_keygen : int;
}

val read : unit -> t
(** The calling domain's counts since it started. *)

val diff : before:t -> after:t -> t
(** Field by field, [after - before]. *)
