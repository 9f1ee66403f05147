(* Per-domain state of the crypto kernels: the operation counts that
   {!Cost} reads, and SHA-256's scratch: the 64-word message schedule, one
   64-byte block and eight chaining words. There is one record per domain,
   so lanes on separate domains never share a word of it, and nothing here
   is ever switched off.

   The scratch serves one hash at a time, shared by every SHA-256 and
   HMAC computation of the domain. That holds because each user fills it
   and reads it back within one call that never re-enters itself and never
   yields: [Sha256_block.compress] for the schedule, and
   [Sha256_block.hash], [Sha256.digest], [Hmac.prepare] and
   [Hmac.mac_prepared] for the block and the words, none of which calls
   another of them while it holds them ([Hmac.prepare] digests a long key
   before it takes them). The repo runs no systhreads: a systhread switch
   at a poll point inside one of them could let another hash overwrite
   the scratch mid-block. A signal handler or finaliser that hashes would
   do the same; the repo installs neither. *)

type t = {
  mutable compressions : int;
  mutable blocks : int;
  mutable poly_blocks : int;
  mutable draws : int;
  mutable signs : int;
  mutable verifies : int;
  mutable keygens : int;
  schedule : int array;
  block : Bytes.t;
  words : int array;
}

let key =
  Domain.DLS.new_key (fun () ->
      {
        compressions = 0;
        blocks = 0;
        poly_blocks = 0;
        draws = 0;
        signs = 0;
        verifies = 0;
        keygens = 0;
        schedule = Array.make 64 0;
        block = Bytes.create 64;
        words = Array.make 8 0;
      })

let[@inline] get () = Domain.DLS.get key
