(* One measured pass of a workload: set-up on its own meter, then the
   fixed list of ops on another, one at a time from a single closed-loop
   client. *)

type workload = Authz_conv | Authz_pk | Bank

let workloads = [ ("authz-conv", Authz_conv); ("authz-pk", Authz_pk); ("bank", Bank) ]

(* Fixed work: ops per second of [--seconds], at the corrected speed of the
   reference host. The count depends on [--seconds] only, never on how
   fast this run happens to go. *)
let ops_per_second = function Authz_conv -> 1400 | Authz_pk -> 700 | Bank -> 110

type input = Authz of Workloads.authz_input | Bank_in of Workloads.bank_input

let gen wl ~seed ~ops =
  match wl with
  | Authz_conv -> Authz (Workloads.gen_authz Conv ~seed ~objects:256 ~ops)
  | Authz_pk -> Authz (Workloads.gen_authz Pk ~seed ~objects:24 ~ops)
  | Bank -> Bank_in (Workloads.gen_bank ~seed ~ops)

let setup input ~spans ~on_net ~tick =
  match input with
  | Authz a -> Workloads.setup_authz a ~spans ~on_net ~tick
  | Bank_in b -> Workloads.setup_bank b ~spans ~on_net ~tick

type pass = {
  setup_meter : Host.meter;
  meter : Host.meter;
  ops : int;
  failed : int;
  wrong : int;
  first_error : string option;
  delta : (string * int) list;  (** counter deltas over the timed region *)
  whole : (string * int) list;  (** every counter at the end of the pass *)
  checked : (unit, string) result;
  heap_words : int;  (** top heap at the end of the timed region *)
  alloc_bytes : float;
  major_collections : int;
  tracer : Tracer.t option;
  kdc_setup : float * int;  (** KDC self ns and spans during set-up *)
  spans : Workloads.spans;
}

let count delta name = Option.value (List.assoc_opt name delta) ~default:0

let run ?(trace = false) input =
  let spans = Workloads.spans () in
  let tracer = if trace then Some (Tracer.create ~role:(fun ~depth:_ n -> n) ()) else None in
  let sm = Host.meter () in
  Option.iter (fun t -> Tracer.attach t sm) tracer;
  let w =
    setup input ~spans
      ~on_net:(fun net -> Option.iter (fun t -> Tracer.install t net) tracer)
      ~tick:(fun () -> Host.tick sm)
  in
  Host.close sm;
  let kdc_setup =
    match tracer with
    | None -> (0., 0)
    | Some t ->
        Hashtbl.fold
          (fun node (a : Host.acc) (ns, n) ->
            if w.Workloads.role ~depth:0 node = "kdc" then
              (ns +. a.Host.total, n + Tracer.role_spans t node)
            else (ns, n))
          t.Tracer.roles (0., 0)
  in
  let m = Host.meter () in
  Host.register m spans.attach;
  Host.register m spans.check_write;
  let tracer =
    Option.map
      (fun t ->
        t.Tracer.role <- w.Workloads.role;
        Tracer.reset t;
        Tracer.attach t m;
        t)
      tracer
  in
  let metrics = Sim.Net.metrics w.net in
  let before = Sim.Metrics.snapshot metrics in
  let gc0 = Gc.quick_stat () and alloc0 = Gc.allocated_bytes () in
  let failed = ref 0 and wrong = ref 0 and first_error = ref None in
  for i = 0 to w.ops - 1 do
    Option.iter Tracer.begin_op tracer;
    let t0 = Host.now_ns () in
    let outcome = w.run_op i in
    let dt = Host.now_ns () - t0 in
    Host.record m dt;
    Option.iter (fun t -> Tracer.end_op t ~op_ns:dt) tracer;
    (match outcome with
    | Workloads.Done -> ()
    | Failed e ->
        incr failed;
        if !first_error = None then first_error := Some e
    | Wrong e ->
        incr wrong;
        if !first_error = None then first_error := Some e);
    Host.tick m
  done;
  Host.close m;
  let gc1 = Gc.quick_stat () and alloc1 = Gc.allocated_bytes () in
  let after = Sim.Metrics.snapshot metrics in
  Sim.Net.clear_tap w.net;
  {
    setup_meter = sm;
    meter = m;
    ops = w.ops;
    failed = !failed;
    wrong = !wrong;
    first_error = !first_error;
    delta = Sim.Metrics.diff ~before ~after;
    whole = after;
    checked = w.check ();
    heap_words = gc1.Gc.top_heap_words;
    alloc_bytes = alloc1 -. alloc0;
    major_collections = gc1.Gc.major_collections - gc0.Gc.major_collections;
    tracer;
    kdc_setup;
    spans;
  }

(* Set-up alone, for repeated set-up timings. *)
let setup_seconds input =
  let sm = Host.meter () in
  ignore (setup input ~spans:(Workloads.spans ()) ~on_net:ignore ~tick:(fun () -> Host.tick sm));
  Host.close sm;
  Host.corrected_s sm

(* Steadiness guards: the authorization workloads must insert into a
   full response cache on every timed request (one eviction per op); the
   bank must never evict. *)
let guard wl p =
  let evictions = count p.delta "rpc.cache_evictions" in
  match wl with
  | Authz_conv | Authz_pk ->
      if evictions = p.ops then Ok ()
      else
        Error
          (Printf.sprintf "%d response-cache evictions over %d ops, expected one per op" evictions
             p.ops)
  | Bank ->
      let total = count p.whole "rpc.cache_evictions" in
      if total = 0 then Ok () else Error (Printf.sprintf "%d response-cache evictions" total)
