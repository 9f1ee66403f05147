type gate = string * bool

type 'o entry = {
  label : string;
  run : unit -> 'o;
  gates : 'o -> gate list;
  smoke_gates : 'o -> gate list;
  digest : 'o -> string;
  reference : string * (unit -> 'o);
}

let entry ~label ?(smoke_gates = fun _ -> []) ?reference ~gates ~digest run =
  let reference = Option.value reference ~default:("a same-seed rerun", run) in
  { label; run; gates; smoke_gates; digest; reference }

let print_gates gates =
  List.iter
    (fun (label, holds) -> Printf.printf "  %s %s\n%!" (if holds then "ok  " else "FAIL") label)
    gates;
  List.for_all snd gates

let main ~smoke ?(report = ignore) e =
  let o = e.run () in
  report o;
  let ok = print_gates (e.gates o) in
  if not smoke then if ok then 0 else 1
  else begin
    let ok = print_gates (e.smoke_gates o) && ok in
    let name, rerun = e.reference in
    let same = String.equal (e.digest o) (e.digest (rerun ())) in
    let ok = print_gates [ ("digest byte-identical to " ^ name, same) ] && ok in
    Printf.printf "%s smoke: %s\n" e.label (if ok then "OK" else "FAILED");
    if ok then 0 else 1
  end

let ok_or ctx = function
  | Ok v -> v
  | Error e -> failwith (Printf.sprintf "scenario setup (%s): %s" ctx e)

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0
  else
    let rank = int_of_float (ceil (p /. 100. *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))

let conserved = function
  | Ok () -> ("value conserved", true)
  | Error e -> ("value conserved: " ^ e, false)

let redeemed_once doubles = ("each check redeemed at most once", doubles = 0)

let digest ?lane net =
  let b = Buffer.create 4096 in
  List.iter
    (fun (k, v) -> Printf.bprintf b "%s=%d\n" k v)
    (Sim.Metrics.snapshot (Sim.Net.metrics net));
  let prefix = match lane with Some i -> Printf.sprintf "lane-%d|" i | None -> "" in
  List.iter
    (fun (e : Sim.Trace.entry) ->
      Printf.bprintf b "%s%d %s %s\n" prefix e.Sim.Trace.time e.Sim.Trace.actor e.Sim.Trace.event)
    (Sim.Trace.entries (Sim.Net.trace net));
  Option.iter
    (fun c -> Buffer.add_string b (Sim.Span.to_jsonl (Sim.Span.spans c)))
    (Sim.Net.spans net);
  Buffer.contents b

type tally = (string, int) Hashtbl.t

let tally () = Hashtbl.create 64

let watch t server =
  Accounting_server.add_redemption_observer server (fun number ->
      Hashtbl.replace t number (1 + Option.value (Hashtbl.find_opt t number) ~default:0))

let redemptions t = Hashtbl.fold (fun n c acc -> (n, c) :: acc) t [] |> List.sort compare
let double_redemptions t = Hashtbl.fold (fun _ c acc -> if c > 1 then acc + 1 else acc) t 0
