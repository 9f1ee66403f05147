(* The three workloads. Each is two halves: [gen] turns the benchmark's
   seed into plain input data (the program never sees the seed), and
   [setup] builds a world from those inputs, returning the timed ops and
   the output checks. Everything uses library defaults: no optional cache,
   batching or retry argument is passed, so a later change to a default
   shows up here without editing the benchmark. *)

module R = Restriction
module Shard = Cluster.Shard
module Ring = Cluster.Ring
module Router = Cluster.Router

(* An op either completes with the right output, fails (an error the
   library reported), or completes with a wrong output. *)
type outcome = Done | Failed of string | Wrong of string

type world = {
  net : Sim.Net.t;
  ops : int;
  run_op : int -> outcome;
  role : depth:int -> string -> string;
      (** layer of a server span: node name and nesting depth *)
  check : unit -> (unit, string) result;  (** output checks after the run *)
}

(* Client-side spans the benchmark wraps around public calls. *)
type spans = { attach : Host.acc; check_write : Host.acc }

let spans () = { attach = Host.acc (); check_write = Host.acc () }

let timed acc f =
  let t0 = Host.now_ns () in
  let r = f () in
  Host.add acc (Host.now_ns () - t0);
  r

let ok_or ctx = function Ok v -> v | Error e -> failwith (Printf.sprintf "setup (%s): %s" ctx e)

let done_or ctx = function
  | Done -> ()
  | Failed e | Wrong e -> failwith (Printf.sprintf "setup (%s): %s" ctx e)

(* ------------------------------------------------------------------ *)
(* authz-conv / authz-pk                                               *)
(* ------------------------------------------------------------------ *)

type flavor = Conv | Pk

type authz_input = {
  a_world_seed : string;
  a_flavor : flavor;
  contents : string array;  (** provisioned bytes, one per object *)
  trees : int array array;
      (** per object, the parent of each cascade node; node 0 is the root
          grant (parent -1), so a node's chain (depth 1 to 4) is its path
          from the root *)
  a_ops : (int * int) array;  (** (object, node) presented per op *)
}

let owners = 4

(* Requests before the timed region: at least the response cache's default
   capacity, so every timed request inserts at capacity. *)
let fill_requests = 4096

let gen_authz flavor ~seed ~objects ~ops =
  let st = Random.State.make [| seed; (match flavor with Conv -> 1 | Pk -> 2) |] in
  let contents =
    Array.init objects (fun o ->
        let len = 64 + (o * 389 mod 961) in
        String.init len (fun i -> Char.chr (33 + ((o + (i * 7) + Random.State.int st 90) mod 94))))
  in
  (* Tree shapes depend on the object's index, not the seed: one to four
     nodes, even groups a straight cascade, odd groups narrowing twice
     from a shared prefix. *)
  let trees =
    Array.init objects (fun o ->
        Array.init (1 + (o mod 4)) (fun k ->
            if k = 0 then -1 else if o / 4 mod 2 = 0 then k - 1 else (k - 1) / 2))
  in
  let a_ops =
    Array.init ops (fun _ ->
        let o = Random.State.int st objects in
        (o, Random.State.int st (Array.length trees.(o))))
  in
  { a_world_seed = Printf.sprintf "authz-%d" seed; a_flavor = flavor; contents; trees; a_ops }

let obj_name o = Printf.sprintf "obj-%04d" o

let setup_authz (inp : authz_input) ~spans ~on_net ~tick =
  let w = World.create ~seed:inp.a_world_seed () in
  let net = w.World.net in
  on_net net;
  let drbg = Sim.Net.drbg net in
  let fs_name, fs_key = World.enrol w "files" in
  let acl = Acl.create () in
  let fs =
    match inp.a_flavor with
    | Conv -> File_server.create net ~me:fs_name ~my_key:fs_key ~acl ()
    | Pk ->
        File_server.create net ~me:fs_name ~my_key:fs_key
          ~lookup_pub:(fun q -> Directory.public w.World.dir q)
          ~acl ()
  in
  File_server.install fs;
  let grantors =
    Array.init owners (fun i ->
        let name = Printf.sprintf "owner-%d" i in
        match inp.a_flavor with
        | Conv ->
            let p, _ = World.enrol w name in
            (p, None)
        | Pk ->
            let p, _, rsa = World.enrol_pk w name in
            (p, Some rsa))
  in
  let grantor_creds =
    Array.map (fun (p, _) -> World.credentials_for w ~tgt:(World.login w p) fs_name) grantors
  in
  tick ();
  let now = World.now w in
  let expires = now + (24 * World.hour) in
  let chains =
    Array.mapi
      (fun o parents ->
        let owner = o mod owners in
        let p, rsa = grantors.(owner) in
        let target = obj_name o in
        File_server.put_direct fs ~path:target inp.contents.(o);
        Acl.add acl ~target { Acl.subject = Acl.Principal_is p; rights = []; restrictions = [] };
        let nodes = Array.make (Array.length parents) None in
        Array.iteri
          (fun k parent ->
            let proxy =
              match (parent, inp.a_flavor) with
              | -1, Conv ->
                  let c = grantor_creds.(owner) in
                  Capability.mint ~drbg ~now ~expires ~grantor:p
                    ~session_key:c.Ticket.session_key ~base:c.Ticket.ticket_blob ~target
                    ~ops:[ "read"; "stat" ]
              | -1, Pk ->
                  Proxy.grant_pk ~drbg ~now ~expires ~grantor:p ~grantor_key:(Option.get rsa)
                    ~restrictions:[ R.Authorized [ { R.target; ops = [ "read"; "stat" ] } ] ]
                    ()
              | parent, Conv ->
                  ok_or "narrow"
                    (Capability.narrow ~drbg ~now ~expires ~target ~ops:[ "read" ]
                       (Option.get nodes.(parent)))
              | parent, Pk ->
                  ok_or "restrict_pk"
                    (Proxy.restrict_pk ~drbg ~now ~expires ~restrictions:[]
                       (Option.get nodes.(parent)))
            in
            nodes.(k) <- Some proxy;
            tick ())
          parents;
        Array.map Option.get nodes)
      inp.trees
  in
  let worker, _ = World.enrol w "worker" in
  let worker_creds = World.credentials_for w ~tgt:(World.login w worker) fs_name in
  let present o k =
    let path = obj_name o in
    let presented =
      timed spans.attach (fun () ->
          File_server.attach net ~proxy:chains.(o).(k) ~server:fs_name ~operation:"read" ~path)
    in
    match File_server.read net ~creds:worker_creds ~proxies:[ presented ] ~path () with
    | Ok bytes when bytes = inp.contents.(o) -> Done
    | Ok _ -> Wrong (Printf.sprintf "read %s: wrong bytes" path)
    | Error e -> Failed (Printf.sprintf "read %s: %s" path e)
  in
  (* Warm-up: fill the response cache to capacity with cheap direct-ACL
     stats, then present every chain once (verification caches). *)
  let owner0_creds = grantor_creds.(0) in
  for i = 1 to fill_requests do
    ignore (ok_or "fill" (File_server.stat net ~creds:owner0_creds ~path:(obj_name 0) ()));
    if i land 63 = 0 then tick ()
  done;
  Array.iteri
    (fun o nodes ->
      Array.iteri
        (fun k _ ->
          done_or "warm-up" (present o k);
          tick ())
        nodes)
    chains;
  Host.(spans.attach.pending <- 0.);
  let fs_node = Principal.to_string fs_name and kdc_node = Principal.to_string w.World.kdc_name in
  {
    net;
    ops = Array.length inp.a_ops;
    run_op = (fun i -> let o, k = inp.a_ops.(i) in present o k);
    role =
      (fun ~depth:_ node ->
        if node = fs_node then "files" else if node = kdc_node then "kdc" else "other");
    check =
      (fun () ->
        (* the provisioned bytes are still the stored bytes *)
        let bad = ref 0 in
        Array.iteri
          (fun o c -> if File_server.get_direct fs ~path:(obj_name o) <> Some c then incr bad)
          inp.contents;
        if !bad = 0 then Ok () else Error (Printf.sprintf "%d objects changed" !bad));
  }

(* ------------------------------------------------------------------ *)
(* bank                                                                *)
(* ------------------------------------------------------------------ *)

type bank_op =
  | Transfer of int * int * int  (** actor pick, partner pick, amount *)
  | Balance of int  (** actor pick *)
  | Deposit of int * int * int  (** payor pick, payee pick, amount *)

type bank_input = { b_world_seed : string; warm : bank_op array; b_ops : bank_op array }

let usd = "usd"
let funds = 1_000_000

(* At least this many accounts, and at least two on every shard. *)
let min_actors = 8

(* An exact 70/20/10 mix, shuffled: the share of each op kind is fixed, so
   run-to-run variation is not a binomial draw of expensive deposits. *)
let gen_bank ~seed ~ops =
  let st = Random.State.make [| seed; 3 |] in
  let pick () = Random.State.int st 1_000_000 in
  let deposits = ops / 10 and balances = ops / 5 in
  let kinds =
    Array.init ops (fun i -> if i < deposits then 2 else if i < deposits + balances then 1 else 0)
  in
  for i = ops - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = kinds.(i) in
    kinds.(i) <- kinds.(j);
    kinds.(j) <- t
  done;
  let mk = function
    | 0 -> Transfer (pick (), pick (), 1 + Random.State.int st 20)
    | 1 -> Balance (pick ())
    | _ -> Deposit (pick (), pick (), 1 + Random.State.int st 50)
  in
  let b_ops = Array.map mk kinds in
  let warm = Array.map mk [| 2; 2; 2; 2; 0; 0; 0; 0; 1; 1 |] in
  { b_world_seed = Printf.sprintf "bank-%d" seed; warm; b_ops }

type actor = { name : string; principal : Principal.t; rsa : Crypto.Rsa.private_; router : Router.t }

let paid_prefix = "paid check "

let setup_bank (inp : bank_input) ~spans ~on_net ~tick =
  let w = World.create ~seed:inp.b_world_seed () in
  let net = w.World.net in
  on_net net;
  let drbg = Sim.Net.drbg net in
  let shard_ids = [ "bank-0"; "bank-1" ] in
  let shards =
    List.map
      (fun id ->
        let p, key, rsa = World.enrol_pk w id in
        let s =
          ok_or id
            (Shard.create net ~me:p ~my_key:key ~kdc:w.World.kdc_name ~signing_key:rsa
               ~lookup:(fun q -> Directory.public w.World.dir q)
               ~primary_node:(id ^ "-a") ~standby_node:(id ^ "-b") ())
        in
        Shard.install s;
        (id, s))
      shard_ids
  in
  let shard id = List.assoc id shards in
  let ring = Ring.create shard_ids in
  List.iter
    (fun (_, s1) ->
      List.iter
        (fun (_, s2) ->
          if not (Principal.equal (Shard.logical s1) (Shard.logical s2)) then begin
            Shard.set_route s1 ~drawee:(Shard.logical s2)
              ~via:[ Shard.primary_node s2; Shard.standby_node s2 ]
              ~next_hop:(Shard.logical s2) ();
            ok_or "warm" (Shard.warm s1 ~drawee:(Shard.logical s2))
          end)
        shards)
    shards;
  let endpoints =
    List.map
      (fun (id, s) ->
        ( id,
          {
            Router.ep_logical = Shard.logical s;
            ep_primary = Shard.primary_node s;
            ep_standby = Shard.standby_node s;
          } ))
      shards
  in
  tick ();
  let mk_actor name =
    let principal, _ = World.enrol w name in
    let rsa = Crypto.Rsa.generate drbg ~bits:512 in
    Directory.add_public w.World.dir principal rsa.Crypto.Rsa.pub;
    let creds_for logical =
      try Ok (World.credentials_for w ~tgt:(World.login w principal) logical)
      with Failure e -> Error e
    in
    let router = Router.create net ~ring ~endpoints ~creds_for () in
    ok_or name (Router.open_account router ~name);
    ok_or name (Shard.mint (shard (Router.shard_of router name)) ~name ~currency:usd funds);
    tick ();
    { name; principal; rsa; router }
  in
  let rec enrol_actors acc i =
    let on id = List.filter (fun a -> Ring.lookup ring a.name = id) acc in
    if i >= min_actors && List.for_all (fun id -> List.length (on id) >= 2) shard_ids then
      List.rev acc
    else enrol_actors (mk_actor (Printf.sprintf "acct-%02d" i) :: acc) (i + 1)
  in
  let actors = Array.of_list (enrol_actors [] 0) in
  let shard_of a = Ring.lookup ring a.name in
  let group id = List.filter (fun a -> shard_of a = id) (Array.to_list actors) |> Array.of_list in
  let groups = List.map (fun id -> (id, group id)) shard_ids in
  let minted = funds * Array.length actors in
  let model = Hashtbl.create 16 in
  Array.iter (fun a -> Hashtbl.replace model a.name funds) actors;
  let move name d = Hashtbl.replace model name (Hashtbl.find model name + d) in
  let deposited = Hashtbl.create 256 in
  let nth arr pick = arr.(pick mod Array.length arr) in
  let run = function
    | Balance pick -> (
        let a = nth actors pick in
        match Router.balance a.router ~name:a.name ~currency:usd with
        | Ok (avail, _) when avail = Hashtbl.find model a.name -> Done
        | Ok (avail, _) ->
            Wrong (Printf.sprintf "balance %s: %d, expected %d" a.name avail (Hashtbl.find model a.name))
        | Error e -> Failed e)
    | Transfer (pick, partner, amount) -> (
        let a = nth actors pick in
        let mates = List.assoc (shard_of a) groups |> Array.to_list |> List.filter (fun b -> b != a) in
        let b = nth (Array.of_list mates) partner in
        match Router.transfer a.router ~from_:a.name ~to_:b.name ~currency:usd ~amount with
        | Ok () ->
            move a.name (-amount);
            move b.name amount;
            Done
        | Error e -> Failed e)
    | Deposit (pick, payee_pick, amount) -> (
        let payor = nth actors pick in
        let others = List.find (fun (id, _) -> id <> shard_of payor) groups |> snd in
        let payee = nth others payee_pick in
        let check =
          timed spans.check_write (fun () ->
              let now = World.now w in
              Check.write ~drbg ~now ~expires:(now + (24 * World.hour)) ~payor:payor.principal
                ~payor_key:payor.rsa
                ~account:
                  (Accounting_server.account (Shard.primary_server (shard (shard_of payor)))
                     payor.name)
                ~payee:payee.principal ~currency:usd ~amount ())
        in
        match Router.deposit payee.router ~endorser_key:payee.rsa ~check ~to_account:payee.name with
        | Ok credited when credited = amount ->
            move payor.name (-amount);
            move payee.name amount;
            Hashtbl.replace deposited check.Check.number ();
            Done
        | Ok credited -> Wrong (Printf.sprintf "deposit credited %d of %d" credited amount)
        | Error e -> Failed e)
  in
  Array.iter
    (fun op ->
      done_or "warm-up" (run op);
      tick ())
    inp.warm;
  Host.(spans.check_write.pending <- 0.);
  let kdc_node = Principal.to_string w.World.kdc_name in
  let current = ref (Balance 0) in
  let check () =
    let ledgers = List.map (fun (_, s) -> Accounting_server.ledger (Shard.authoritative s)) shards in
    let total = List.fold_left (fun n l -> n + Ledger.total l ~currency:usd) 0 ledgers in
    let paid = Hashtbl.create 256 in
    List.iter
      (fun (e : Sim.Trace.entry) ->
        let ev = e.Sim.Trace.event and n = String.length paid_prefix in
        if String.length ev > n && String.sub ev 0 n = paid_prefix then
          match String.index_from_opt ev n ':' with
          | Some stop ->
              let num = String.sub ev n (stop - n) in
              Hashtbl.replace paid num (1 + Option.value (Hashtbl.find_opt paid num) ~default:0)
          | None -> ())
      (Sim.Trace.entries (Sim.Net.trace net));
    let once = Hashtbl.fold (fun num () ok -> ok && Hashtbl.find_opt paid num = Some 1) deposited true in
    let balances_match =
      Array.for_all
        (fun a ->
          let l = Accounting_server.ledger (Shard.authoritative (shard (shard_of a))) in
          Ledger.balance l ~name:a.name ~currency:usd = Hashtbl.find model a.name)
        actors
    in
    if total <> minted then Error (Printf.sprintf "value not conserved: %d, minted %d" total minted)
    else if Hashtbl.length paid <> Hashtbl.length deposited || not once then
      Error "a deposited check was not credited exactly once"
    else if not balances_match then Error "a ledger balance differs from the expected balance"
    else Ok ()
  in
  {
    net;
    ops = Array.length inp.b_ops;
    run_op =
      (fun i ->
        current := inp.b_ops.(i);
        run inp.b_ops.(i));
    role =
      (fun ~depth node ->
        let n = String.length node in
        if node = kdc_node then "kdc"
        else if n > 2 && String.sub node (n - 2) 2 = "-b" then "standby"
        else if n > 2 && String.sub node (n - 2) 2 = "-a" then
          if depth > 0 then "drawee"
          else match !current with Deposit _ -> "payee" | _ -> "primary"
        else "other");
    check;
  }
