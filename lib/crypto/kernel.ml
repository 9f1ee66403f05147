(* Per-domain state of the crypto kernels: the operation counts that
   {!Cost} reads, and SHA-256's 64-word message schedule. There is one
   record per domain, so lanes on separate domains never share a word of
   it, and nothing here is ever switched off.

   The schedule is scratch for one compression at a time, shared by every
   SHA-256 context of the domain. That holds because [Sha256.compress]
   fills it and reads it back within one call that never re-enters itself
   and never yields, and the repo runs no systhreads: a systhread switch
   at a poll point inside [compress] could let another context overwrite
   the schedule mid-block. A signal handler or finaliser that hashes
   would do the same; the repo installs neither. *)

type t = {
  mutable compressions : int;
  mutable blocks : int;
  mutable draws : int;
  mutable signs : int;
  mutable verifies : int;
  mutable keygens : int;
  schedule : int array;
}

let key =
  Domain.DLS.new_key (fun () ->
      {
        compressions = 0;
        blocks = 0;
        draws = 0;
        signs = 0;
        verifies = 0;
        keygens = 0;
        schedule = Array.make 64 0;
      })

let[@inline] get () = Domain.DLS.get key
