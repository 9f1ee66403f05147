(* HMAC-DRBG with SHA-256 per SP 800-90A. The state is (K, V) with K held
   prepared: the raw key is only ever read to prepare it, so each new key
   is prepared once, when it is made, and serves every MAC until the
   next. *)

type t = { mutable k : Hmac.key; mutable v : string }

(* K = HMAC(K, V ‖ sep ‖ provided), then V = HMAC(K, V). *)
let step t sep provided =
  t.k <- Hmac.prepare (Hmac.mac_prepared t.k (t.v ^ sep ^ provided));
  t.v <- Hmac.mac_prepared t.k t.v

let update t provided =
  step t "\x00" provided;
  if provided <> "" then step t "\x01" provided

let create ~seed =
  let t = { k = Hmac.prepare (String.make 32 '\x00'); v = String.make 32 '\x01' } in
  update t seed;
  t

let reseed t entropy = update t entropy

let generate t n =
  let kern = Kernel.get () in
  kern.Kernel.draws <- kern.Kernel.draws + 1;
  let out = Bytes.create n in
  let pos = ref 0 in
  while !pos < n do
    t.v <- Hmac.mac_prepared t.k t.v;
    Bytes.blit_string t.v 0 out !pos (min 32 (n - !pos));
    pos := !pos + 32
  done;
  update t "";
  Bytes.unsafe_to_string out

let rand t n = generate t n

let uniform_int t n =
  if n <= 0 then invalid_arg "Drbg.uniform_int: bound must be positive";
  (* Rejection sampling over 62-bit draws. *)
  let draw () =
    let s = generate t 8 in
    let acc = ref 0 in
    String.iter (fun c -> acc := ((!acc lsl 8) lor Char.code c) land max_int) s;
    !acc
  in
  let limit = max_int - (max_int mod n) in
  let rec go () =
    let x = draw () in
    if x < limit then x mod n else go ()
  in
  go ()
