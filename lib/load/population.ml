(* Zipf: integer cumulative weights, binary-searched. 2^40/(i+1) keeps
   enough precision that rank 10^6 still gets a distinct nonzero weight,
   while the total (~2^40 * ln n) stays far inside 63-bit ints. *)

type zipf = { cum : int array; total : int }

let zipf n =
  if n < 1 then invalid_arg "Population.zipf: universe must be positive";
  let cum = Array.make n 0 in
  let total = ref 0 in
  for i = 0 to n - 1 do
    total := !total + ((1 lsl 40) / (i + 1));
    cum.(i) <- !total
  done;
  { cum; total = !total }

let zipf_size z = Array.length z.cum

let zipf_sample z drbg =
  let draw = Crypto.Drbg.uniform_int drbg z.total in
  (* smallest i with cum.(i) > draw *)
  let lo = ref 0 and hi = ref (Array.length z.cum - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if z.cum.(mid) > draw then hi := mid else lo := mid + 1
  done;
  !lo

type pool = {
  p_drbg : Crypto.Drbg.t;
  mutable p_free : Crypto.Rsa.private_ list;
  mutable p_generated : int;
  mutable p_live : int;
}

let pool ~seed () =
  { p_drbg = Crypto.Drbg.create ~seed; p_free = []; p_generated = 0; p_live = 0 }

let acquire p =
  p.p_live <- p.p_live + 1;
  match p.p_free with
  | k :: tl ->
      p.p_free <- tl;
      k
  | [] ->
      p.p_generated <- p.p_generated + 1;
      Crypto.Rsa.generate p.p_drbg ~bits:512

let release p k =
  if List.memq k p.p_free then
    invalid_arg "Population.release: key is already free";
  p.p_live <- p.p_live - 1;
  p.p_free <- k :: p.p_free

let pool_generated p = p.p_generated
let pool_live p = p.p_live
let pool_free p = List.length p.p_free

type phase = { rate_per_s : int; duration_us : int }

let arrivals phases =
  let expand (acc, t0) ph =
    if ph.rate_per_s < 1 then invalid_arg "Population.arrivals: rate must be positive";
    if ph.duration_us < 0 then invalid_arg "Population.arrivals: negative duration";
    let step = 1_000_000 / ph.rate_per_s in
    if step = 0 then invalid_arg "Population.arrivals: rate above 1e6/s";
    let stop = t0 + ph.duration_us in
    let rec go acc t = if t >= stop then acc else go (t :: acc) (t + step) in
    (go acc t0, stop)
  in
  let rev, _ = List.fold_left expand ([], 0) phases in
  List.rev rev
