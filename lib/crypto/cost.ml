type t = {
  sha256_compressions : int;
  chacha20_blocks : int;
  drbg_draws : int;
  rsa_sign : int;
  rsa_verify : int;
  rsa_keygen : int;
}

let read () =
  let k = Kernel.get () in
  {
    sha256_compressions = k.Kernel.compressions;
    chacha20_blocks = k.blocks;
    drbg_draws = k.draws;
    rsa_sign = k.signs;
    rsa_verify = k.verifies;
    rsa_keygen = k.keygens;
  }

let diff ~before ~after =
  {
    sha256_compressions = after.sha256_compressions - before.sha256_compressions;
    chacha20_blocks = after.chacha20_blocks - before.chacha20_blocks;
    drbg_draws = after.drbg_draws - before.drbg_draws;
    rsa_sign = after.rsa_sign - before.rsa_sign;
    rsa_verify = after.rsa_verify - before.rsa_verify;
    rsa_keygen = after.rsa_keygen - before.rsa_keygen;
  }
