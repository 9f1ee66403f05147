(* HMAC-DRBG with SHA-256: state is (key, v); update per SP 800-90A. *)

type t = { mutable key : string; mutable v : string }

(* HMAC under the prepared key [k] of [v ‖ sep ‖ provided], streamed. *)
let mac_v k v sep provided =
  let inner = Hmac.start k in
  Sha256.update inner v;
  Sha256.update inner sep;
  Sha256.update inner provided;
  Hmac.finish k inner

(* [k] is [t.key] prepared; each new key is prepared once for both of its
   MACs. *)
let update_prepared t k provided =
  t.key <- mac_v k t.v "\x00" provided;
  let k = Hmac.prepare t.key in
  t.v <- Hmac.mac_prepared k t.v;
  if provided <> "" then begin
    t.key <- mac_v k t.v "\x01" provided;
    t.v <- Hmac.mac ~key:t.key t.v
  end

let update t provided = update_prepared t (Hmac.prepare t.key) provided

let create ~seed =
  let t = { key = String.make 32 '\x00'; v = String.make 32 '\x01' } in
  update t seed;
  t

let reseed t entropy = update t entropy

(* One prepared key serves every output MAC and the first MAC of the
   trailing update. *)
let generate t n =
  let kern = Kernel.get () in
  kern.Kernel.draws <- kern.Kernel.draws + 1;
  let k = Hmac.prepare t.key in
  let buf = Buffer.create n in
  while Buffer.length buf < n do
    t.v <- Hmac.mac_prepared k t.v;
    Buffer.add_string buf t.v
  done;
  update_prepared t k "";
  Buffer.sub buf 0 n

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
