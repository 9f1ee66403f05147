(* Deterministic epoch/barrier scheduler for independent execution lanes.

   Each lane owns all of its mutable state (its own Net — clock, DRBG,
   metrics, trace, span collector — plus whatever the scenario hangs off
   it); lanes never share a mutable value. Execution proceeds in epochs:
   within an epoch every lane runs its [step] to completion against the
   messages delivered to it at the epoch boundary, producing messages for
   other lanes that are held back until the *next* boundary. Because lanes
   are disjoint and inter-lane traffic is delivered in one canonical sort
   order, running the lanes of an epoch sequentially on one domain or
   spread across N OCaml 5 domains produces bit-for-bit identical lane
   states — parallelism changes wall-clock time and nothing else.

   The [domains = 1] case never spawns: it is the plain synchronous loop,
   and the parallel schedule is defined as "whatever that loop computes".

   Messages are opaque strings (scenarios Wire-encode them), which also
   guarantees cross-lane payloads are deep copies: a lane cannot leak a
   shared mutable structure to another lane through the mailbox. *)

type message = {
  m_src : int;  (** emitting lane *)
  m_seq : int;  (** emission index within the epoch, per source lane *)
  m_payload : string;
}

type outcome = {
  epochs_run : int;
  delivered : int;  (** cross-lane messages delivered over the whole run *)
  stranded : int;  (** messages still in flight when [max_epochs] hit *)
}

let seed_for ~seed lane_id = "lane:" ^ seed ^ ":" ^ lane_id

(* Run the given lane indices sequentially, in increasing order, returning
   each lane's outbox. This is the whole per-domain job: the canonical
   order *within* a domain is fixed, and the canonical merge order across
   domains is re-imposed at the barrier, so the partition of lanes onto
   domains is invisible to the result. *)
let run_chunk ~step ~epoch ~inboxes indices =
  List.map
    (fun lane ->
      let inbox = inboxes.(lane) in
      inboxes.(lane) <- [];
      (lane, step ~epoch ~lane ~inbox))
    indices

(* A run that never drains stops here. *)
let max_epochs = 10_000

let run ~domains ~lanes ~min_epochs ~step () =
  if lanes < 1 then invalid_arg "Lane.run: at least one lane";
  if domains < 1 then invalid_arg "Lane.run: at least one domain";
  if min_epochs < 0 then invalid_arg "Lane.run: min_epochs must be non-negative";
  let domains = min domains lanes in
  let inboxes = Array.make lanes [] in
  let in_flight = ref 0 in
  let delivered = ref 0 in
  let epoch = ref 0 in
  (* Lane -> domain assignment is round-robin and fixed for the whole run;
     any assignment would do (determinism does not depend on it), but a
     stable one keeps per-domain load even and cache-friendly. *)
  let chunks =
    Array.init domains (fun d ->
        List.filter (fun l -> l mod domains = d) (List.init lanes Fun.id))
  in
  while (!epoch < min_epochs || !in_flight > 0) && !epoch < max_epochs do
    let results =
      if domains = 1 then run_chunk ~step ~epoch:!epoch ~inboxes chunks.(0)
      else begin
        (* Spawn domains for chunks 1..N-1, run chunk 0 on this domain,
           then join — Domain.join is the epoch barrier, and its memory
           ordering makes every lane's writes visible before the merge. *)
        let spawned =
          Array.init (domains - 1) (fun i ->
              let indices = chunks.(i + 1) in
              Domain.spawn (fun () -> run_chunk ~step ~epoch:!epoch ~inboxes indices))
        in
        let own = run_chunk ~step ~epoch:!epoch ~inboxes chunks.(0) in
        Array.fold_left (fun acc d -> acc @ Domain.join d) own spawned
      end
    in
    (* Canonical delivery: route every emitted message, then sort each
       destination's mailbox by (source lane, emission index). The order
       results arrive from the domains is irrelevant. *)
    in_flight := 0;
    let pending = Array.make lanes [] in
    List.iter
      (fun (src, outbox) ->
        List.iteri
          (fun seq (dst, payload) ->
            if dst < 0 || dst >= lanes then invalid_arg "Lane.run: message to unknown lane";
            if dst = src then invalid_arg "Lane.run: lane messaged itself";
            pending.(dst) <- { m_src = src; m_seq = seq; m_payload = payload } :: pending.(dst))
          outbox)
      results;
    Array.iteri
      (fun dst msgs ->
        let sorted =
          List.sort
            (fun a b -> compare (a.m_src, a.m_seq) (b.m_src, b.m_seq))
            msgs
        in
        in_flight := !in_flight + List.length sorted;
        delivered := !delivered + List.length sorted;
        inboxes.(dst) <- List.map (fun m -> (m.m_src, m.m_payload)) sorted)
      pending;
    incr epoch
  done;
  let stranded = !in_flight in
  { epochs_run = !epoch; delivered = !delivered - stranded; stranded }
