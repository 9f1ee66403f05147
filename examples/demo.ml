(* Narration helpers shared by the example programs; each example builds
   its simulated world (a network with a KDC) with [World]. *)

let section title =
  Printf.printf "\n=== %s ===\n%!" title

let step fmt = Printf.ksprintf (fun s -> Printf.printf "  %s\n%!" s) fmt

let outcome label = function
  | Ok _ -> Printf.printf "  [ok]   %s\n%!" label
  | Error e -> Printf.printf "  [err]  %s: %s\n%!" label e

let expect_ok label = function
  | Ok v ->
      Printf.printf "  [ok]   %s\n%!" label;
      v
  | Error e -> failwith (Printf.sprintf "%s unexpectedly failed: %s" label e)

let expect_err label = function
  | Ok _ -> failwith (Printf.sprintf "%s unexpectedly succeeded" label)
  | Error e -> Printf.printf "  [deny] %s: %s\n%!" label e

let show_metrics w keys =
  let m = Sim.Net.metrics w.World.net in
  Printf.printf "  -- metrics: %s\n%!"
    (String.concat ", "
       (List.map (fun k -> Printf.sprintf "%s=%d" k (Sim.Metrics.get m k)) keys))

let show_trace ?(last = 8) w =
  let entries = Sim.Trace.entries (Sim.Net.trace w.World.net) in
  let n = List.length entries in
  let tail = if n <= last then entries else List.filteri (fun i _ -> i >= n - last) entries in
  Printf.printf "  -- audit trail (last %d of %d):\n" (List.length tail) n;
  List.iter (fun e -> Format.printf "     %a@." Sim.Trace.pp_entry e) tail
