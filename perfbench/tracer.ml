(* Per-layer time from outside the library.

   A network tap that always delivers sees every request before its
   handler runs and every response after it returns. Request/response
   pairs nest (a handler's own RPCs complete before its response), so a
   stack of open frames gives each server span's duration and the part of
   it spent in child spans; the difference is the node's self time. The
   client's self time is the op's time minus its top-level server spans,
   so client self plus every node's self time is the op's time. *)

type frame = { node : string; depth : int; t0 : int; mutable child_ns : int }

type t = {
  mutable stack : frame list;
  mutable top_ns : int;  (** top-level server time in the current op *)
  mutable negative : int;  (** self times below zero (never, if sound) *)
  mutable unbalanced : int;  (** ops that ended with frames still open *)
  mutable role : depth:int -> string -> string;
  roles : (string, Host.acc) Hashtbl.t;
  spans : (string, int) Hashtbl.t;  (** completed spans per role *)
  client : Host.acc;
  ops_ns : Host.acc;
  mutable meter : Host.meter option;
}

let create ~role () =
  {
    stack = [];
    top_ns = 0;
    negative = 0;
    unbalanced = 0;
    role;
    roles = Hashtbl.create 8;
    spans = Hashtbl.create 8;
    client = Host.acc ();
    ops_ns = Host.acc ();
    meter = None;
  }

let role_acc t r =
  match Hashtbl.find_opt t.roles r with
  | Some a -> a
  | None ->
      let a = Host.acc () in
      Hashtbl.replace t.roles r a;
      Option.iter (fun m -> Host.register m a) t.meter;
      a

(* Route the tracer's accumulators through a meter's slice correction. *)
let attach t m =
  t.meter <- Some m;
  Host.register m t.client;
  Host.register m t.ops_ns;
  Hashtbl.iter (fun _ a -> Host.register m a) t.roles

(* Forget every total, e.g. between set-up and the timed region. *)
let reset t =
  let zero a =
    a.Host.pending <- 0.;
    a.Host.total <- 0.
  in
  Hashtbl.reset t.roles;
  Hashtbl.reset t.spans;
  zero t.client;
  zero t.ops_ns

let push t ~now node =
  let depth = List.length t.stack in
  t.stack <- { node; depth; t0 = now; child_ns = 0 } :: t.stack

let pop t ~now =
  match t.stack with
  | [] -> t.unbalanced <- t.unbalanced + 1
  | f :: rest ->
      t.stack <- rest;
      let dur = now - f.t0 in
      let self = dur - f.child_ns in
      if self < 0 then t.negative <- t.negative + 1;
      let r = t.role ~depth:f.depth f.node in
      Host.add (role_acc t r) self;
      Hashtbl.replace t.spans r (1 + Option.value (Hashtbl.find_opt t.spans r) ~default:0);
      (match rest with
      | parent :: _ -> parent.child_ns <- parent.child_ns + dur
      | [] -> t.top_ns <- t.top_ns + dur)

let tap t ~dir ~src:_ ~dst _payload =
  let now = Host.now_ns () in
  (match dir with `Request -> push t ~now dst | `Response -> pop t ~now);
  Sim.Net.Deliver

let install t net = Sim.Net.set_tap net (tap t)

let begin_op t = t.top_ns <- 0

(* Close one op of [op_ns] measured nanoseconds. *)
let end_op t ~op_ns =
  if t.stack <> [] then begin
    t.unbalanced <- t.unbalanced + 1;
    t.stack <- []
  end;
  let self = op_ns - t.top_ns in
  if self < 0 then t.negative <- t.negative + 1;
  Host.add t.client self;
  Host.add t.ops_ns op_ns

let role_total t r = match Hashtbl.find_opt t.roles r with Some a -> a.Host.total | None -> 0.
let role_spans t r = Option.value (Hashtbl.find_opt t.spans r) ~default:0

(* Σ self (client + every role) against Σ op time, as a relative error. *)
let sigma_self_error t =
  let nodes = Hashtbl.fold (fun _ a s -> s +. a.Host.total) t.roles 0. in
  let ops = t.ops_ns.Host.total in
  if ops = 0. then 0. else Float.abs (t.client.Host.total +. nodes -. ops) /. ops

let sound t = t.negative = 0 && t.unbalanced = 0
