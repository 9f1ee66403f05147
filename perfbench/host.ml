(* Host-speed correction.

   The machine this benchmark runs on is shared, and its speed drifts by
   tens of percent over seconds. A fixed reference kernel runs between
   short slices of measured work; each slice's time is scaled by
   [nominal / kernel time], the kernel time being the mean of the kernel
   runs on either side of the slice. A slow host stretches the slice and
   the kernel alike, so the ratio is what the slice would have taken on a
   host where the kernel takes [nominal_ns].

   The kernel is FROZEN: it uses the standard library only, never calls
   code under test, and must not change, or every corrected number in
   every earlier measurement stops being comparable. It allocates nothing
   after start-up, so it neither triggers nor pays for the measured
   program's garbage collection. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* -- the reference kernel (frozen) -- *)

(* The kernel fills a 2 MiB buffer the way an allocator fills its nursery:
   three-word records, header first, each followed by a load of the record
   before it. An OCaml program's minor heap is also 2 MiB and is where it
   spends its memory traffic.

   The shape was chosen by measurement. On a shared 2-vCPU Xeon VM, slow
   phases hurt memory traffic far more than arithmetic: a cache-resident
   arithmetic kernel slowed by under a tenth while the workloads slowed
   by half, and correcting by it left most of the run-to-run spread; a
   32 MiB pointer chase and a 3 MiB tree walk did little better. This
   store stream tracked the workloads. The buffer is bytes, so the
   garbage collector never scans it. *)

let kbuf = Bytes.make (2 lsl 20) '\000'
let sink = ref 0

let kernel () =
  let len = Bytes.length kbuf in
  let s = ref 0 and i = ref 0 in
  while !i < len - 24 do
    Bytes.set_int64_le kbuf !i 0x800L;
    Bytes.set_int64_le kbuf (!i + 8) (Int64.of_int !s);
    Bytes.set_int64_le kbuf (!i + 16) (Int64.of_int !i);
    s := !s + Int64.to_int (Bytes.get_int64_le kbuf ((!i + len - 16) land (len - 1)));
    i := !i + 24
  done;
  sink := !sink + !s

(* The kernel's time on the reference host, by definition. *)
let nominal_ns = 750_000.

let time_kernel () =
  let t0 = now_ns () in
  kernel ();
  now_ns () - t0

(* -- corrected meters -- *)

(* A quantity measured inside slices — e.g. one layer's self time —
   collected raw while its slice is open and scaled when it closes. *)
type acc = { mutable pending : float; mutable total : float }

let acc () = { pending = 0.; total = 0. }
let add a ns = a.pending <- a.pending +. float_of_int ns

(* Nothing in a meter allocates once it exists: the number of slices
   depends on the host's speed, and an allocation per slice would make
   the measured program's heap depend on it too. *)
let max_slices = 16384

type meter = {
  mutable accs : acc list;
  mutable k_prev : int;  (** kernel time just before the open slice *)
  mutable seg_start : int;
  mutable raw_ns : int;  (** closed slices, as measured *)
  corr : acc;  (** closed slices, corrected, in [total] *)
  factor : acc;  (** the factor of the slice being closed, in [total] *)
  factors : float array;  (** per slice, up to [max_slices] *)
  kernels : float array;  (** kernel times in ns, one more than slices *)
  mutable slices : int;
  mutable samples : float array;  (** per-op latencies, ns, corrected once their slice closes *)
  mutable raw : float array;  (** the same, as measured *)
  mutable n : int;
  mutable first_open : int;  (** first sample of the open slice *)
}

(* Slices end at the first op boundary after this long. *)
let slice_ns = 20_000_000

let meter () =
  let k = time_kernel () in
  let kernels = Array.make (max_slices + 1) 0. in
  kernels.(0) <- float_of_int k;
  {
    accs = [];
    k_prev = k;
    seg_start = now_ns ();
    raw_ns = 0;
    corr = acc ();
    factor = acc ();
    factors = Array.make max_slices 0.;
    kernels;
    slices = 0;
    samples = Array.make 1024 0.;
    raw = Array.make 1024 0.;
    n = 0;
    first_open = 0;
  }

let register m a = m.accs <- a :: m.accs

let rec flush m = function
  | [] -> ()
  | a :: rest ->
      a.total <- a.total +. (a.pending *. m.factor.total);
      a.pending <- 0.;
      flush m rest

let close m =
  let seg = now_ns () - m.seg_start in
  let k = time_kernel () in
  let f = nominal_ns /. (float_of_int (m.k_prev + k) /. 2.) in
  m.factor.total <- f;
  m.raw_ns <- m.raw_ns + seg;
  m.corr.total <- m.corr.total +. (float_of_int seg *. f);
  for i = m.first_open to m.n - 1 do
    m.samples.(i) <- m.samples.(i) *. f
  done;
  m.first_open <- m.n;
  flush m m.accs;
  if m.slices < max_slices then begin
    m.factors.(m.slices) <- f;
    m.kernels.(m.slices + 1) <- float_of_int k
  end;
  m.slices <- m.slices + 1;
  m.k_prev <- k;
  m.seg_start <- now_ns ()

(* Call between units of work: closes the slice once it is long enough. *)
let tick m = if now_ns () - m.seg_start >= slice_ns then close m

let record m ns =
  if m.n = Array.length m.samples then begin
    let grow a =
      let bigger = Array.make (2 * m.n) 0. in
      Array.blit a 0 bigger 0 m.n;
      bigger
    in
    m.samples <- grow m.samples;
    m.raw <- grow m.raw
  end;
  m.samples.(m.n) <- float_of_int ns;
  m.raw.(m.n) <- float_of_int ns;
  m.n <- m.n + 1

let corrected_s m = m.corr.total /. 1e9
let raw_s m = float_of_int m.raw_ns /. 1e9
let latencies m = Array.sub m.samples 0 m.n
let raw_latencies m = Array.sub m.raw 0 m.n
let factors m = Array.to_list (Array.sub m.factors 0 (min m.slices max_slices))
let kernels_ns m = Array.to_list (Array.sub m.kernels 0 (min m.slices max_slices + 1))
