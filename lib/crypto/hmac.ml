let block_size = 64

type key = { inner : Sha256.ctx; outer : Sha256.ctx }

(* Contexts that have absorbed the key XORed with each pad. *)
let prepare key =
  let key = if String.length key > block_size then Sha256.digest key else key in
  let padded c =
    let b = Bytes.make block_size (Char.chr c) in
    for i = 0 to String.length key - 1 do
      Bytes.set b i (Char.chr (Char.code key.[i] lxor c))
    done;
    let ctx = Sha256.init () in
    Sha256.update ctx (Bytes.unsafe_to_string b);
    ctx
  in
  { inner = padded 0x36; outer = padded 0x5c }

(* Consumes both contexts. *)
let finish_with ~inner ~outer =
  Sha256.update outer (Sha256.finalize inner);
  Sha256.finalize outer

let start k = Sha256.copy k.inner
let finish k inner = finish_with ~inner ~outer:(Sha256.copy k.outer)

let mac_prepared k msg =
  let inner = start k in
  Sha256.update inner msg;
  finish k inner

let mac ~key msg =
  let { inner; outer } = prepare key in
  Sha256.update inner msg;
  finish_with ~inner ~outer

let verify ~key ~msg ~tag = Ct.equal_string (mac ~key msg) tag
