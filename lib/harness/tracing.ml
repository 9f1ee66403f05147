(* Shared traced scenarios behind `proxykit trace`, the span tests, and the
   BENCH_F4 span-attribution rows. Everything after [Sim.Net.enable_tracing]
   runs inside spans; the outcome carries both the span tree and the global
   metrics diff over the traced window, so callers can check that per-span
   self costs sum to exactly the global delta. *)

type outcome = {
  net : Sim.Net.t;
  requests : int;
  ok : int;
  spans : Sim.Span.span list;
  delta : (string * int) list;  (** global metrics diff over the traced window *)
  dropped : int;  (** spans lost to ring overflow *)
  gates : Drive.gate list;
  digest : string;
}

let traced_loop net ~actor ~name ~requests ~one =
  let metrics = Sim.Net.metrics net in
  let before = Sim.Metrics.snapshot metrics in
  let ok = ref 0 in
  for i = 1 to requests do
    Sim.Span.with_span (Sim.Net.spans net) ~actor ~kind:"request" ~name
      ~attrs:[ ("n", string_of_int i) ]
      (fun () ->
        (* The root span does its own accounting tick, so even a pure
           fan-out span carries a non-zero counted cost. *)
        Sim.Metrics.incr metrics "app.requests";
        if one i then incr ok)
  done;
  let delta = Sim.Metrics.diff ~before ~after:(Sim.Metrics.snapshot metrics) in
  let collector = Option.get (Sim.Net.spans net) in
  let spans = Sim.Span.spans collector in
  {
    net;
    requests;
    ok = !ok;
    spans;
    delta;
    dropped = Sim.Span.dropped collector;
    gates = [ ("self costs sum to the global metrics diff", Sim.Span.cost_total spans = delta) ];
    digest = Drive.digest net;
  }

(* Figure-4 shape, end to end: bob presents alice's depth-[depth] public-key
   bearer cascade to the file server. Per request: a TGS exchange for fresh
   file-server credentials, then the authenticated read — whose guard walks
   the chain (one verify.cert span per link, resolver lookups nested). The
   tap drops the first request to the file server, forcing a retry child
   under the first request's rpc.call. *)
let run_f4 ?(seed = "trace-f4") ?(requests = 3) ?(depth = 3) ?capacity ?plan () =
  let w = World.create ~seed () in
  let net = w.World.net in
  let drbg = Sim.Net.drbg net in
  let alice, _, alice_rsa = World.enrol_pk w "alice" in
  let bob, _ = World.enrol w "bob" in
  let fs_name, fs_key = World.enrol w "fileserver" in
  (* Production key-resolution path: CA-signed binding served by the name
     server, cached by the file server's resolver. *)
  let ca = Ca.create drbg ~name:(Principal.make ~realm:w.World.realm "ca") ~bits:512 in
  let ns_name, _ = World.enrol w "names" in
  let ns = Name_server.create net ~name:ns_name ~ca_pub:(Ca.ca_pub ca) in
  Name_server.install ns;
  Name_server.publish ns
    (Ca.issue ca ~now:(World.now w) ~lifetime:(8 * World.hour) alice
       alice_rsa.Crypto.Rsa.pub);
  let resolver =
    Resolver.create net ~name_server:ns_name ~ca_pub:(Ca.ca_pub ca)
      ~caller:(Principal.to_string fs_name) ()
  in
  let acl = Acl.create () in
  Acl.add acl ~target:"report.txt"
    { Acl.subject = Acl.Principal_is alice; rights = [ "read" ]; restrictions = [] };
  let fs =
    File_server.create net ~me:fs_name ~my_key:fs_key
      ~lookup_pub:(Resolver.lookup resolver) ~acl ()
  in
  File_server.install fs;
  File_server.put_direct fs ~path:"report.txt" "quarterly numbers, do not leak";
  let now = World.now w in
  let expires = now + (8 * World.hour) in
  let granted =
    Proxy.grant_pk ~drbg ~now ~expires ~grantor:alice ~grantor_key:alice_rsa
      ~restrictions:
        [ Restriction.Authorized [ { Restriction.target = "report.txt"; ops = [ "read" ] } ] ]
      ()
  in
  let rec cascade p i =
    if i >= depth then p
    else cascade (Result.get_ok (Proxy.restrict_pk ~drbg ~now ~expires ~restrictions:[] p)) (i + 1)
  in
  let proxy = cascade granted 1 in
  let tgt = World.login w bob in
  Sim.Net.enable_tracing ?capacity net;
  Option.iter (Sim.Net.install_fault_plan net) plan;
  (* Injected loss: exactly one dropped request to the file server, so the
     first request's rpc.call provably shows a retry child. *)
  let fs_str = Principal.to_string fs_name in
  let to_drop = ref 1 in
  Sim.Net.set_tap net (fun ~dir ~src:_ ~dst _payload ->
      if dir = `Request && dst = fs_str && !to_drop > 0 then begin
        decr to_drop;
        Sim.Net.Drop
      end
      else Sim.Net.Deliver);
  let one _i =
    match Kdc.Client.derive net ~kdc:w.World.kdc_name ~tgt ~target:fs_name () with
    | Error _ -> false
    | Ok creds -> (
        let p =
          File_server.attach net ~proxy ~server:fs_name ~operation:"read" ~path:"report.txt"
        in
        match
          File_server.read net ~creds ~retry:(Sim.Retry.policy ~retries:3 ())
            ~proxies:[ p ] ~path:"report.txt" ()
        with
        | Ok _ -> true
        | Error _ -> false)
  in
  let outcome = traced_loop net ~actor:(Principal.to_string bob) ~name:"f4" ~requests ~one in
  Sim.Net.clear_tap net;
  outcome

(* Figure-5 shape: alice (account at bank-a) writes bob a check; bob
   deposits it at bank-b, which endorses and forwards a collect to bank-a,
   where the guard validates the endorsement chain and debits. Spans cross
   four actors: bob, bank-b, bank-a, and the KDC. *)
let run_f5 ?(seed = "trace-f5") ?(requests = 2) ?capacity ?plan () =
  let w = World.create ~seed () in
  let net = w.World.net in
  let currency = "usd" in
  let alice, _, alice_rsa = World.enrol_pk w "alice" in
  let bob, _, bob_rsa = World.enrol_pk w "bob" in
  let bank_a_name, bank_a_key, bank_a_rsa = World.enrol_pk w "bank-a" in
  let bank_b_name, bank_b_key, bank_b_rsa = World.enrol_pk w "bank-b" in
  let bank_a =
    Result.get_ok
      (Accounting_server.create net ~me:bank_a_name ~my_key:bank_a_key ~kdc:w.World.kdc_name
         ~signing_key:bank_a_rsa ~lookup:(World.lookup w) ())
  in
  Accounting_server.install bank_a;
  let bank_b =
    Result.get_ok
      (Accounting_server.create net ~me:bank_b_name ~my_key:bank_b_key ~kdc:w.World.kdc_name
         ~signing_key:bank_b_rsa ~lookup:(World.lookup w)
         ~collect_retry:(Sim.Retry.policy ~retries:3 ()) ())
  in
  Accounting_server.install bank_b;
  let tgt_alice = World.login w alice in
  let creds_a = World.credentials_for w ~tgt:tgt_alice bank_a_name in
  (match Accounting_server.open_account net ~creds:creds_a ~name:"alice" with
  | Ok () -> ()
  | Error e -> failwith e);
  (match Ledger.credit (Accounting_server.ledger bank_a) ~name:"alice" ~currency 1_000 with
  | Ok () -> ()
  | Error e -> failwith e);
  let tgt_bob = World.login w bob in
  let creds_b = World.credentials_for w ~tgt:tgt_bob bank_b_name in
  (match Accounting_server.open_account net ~creds:creds_b ~name:"bob" with
  | Ok () -> ()
  | Error e -> failwith e);
  Sim.Net.enable_tracing ?capacity net;
  Option.iter (Sim.Net.install_fault_plan net) plan;
  let one i =
    let now = World.now w in
    let check =
      Check.write ~drbg:(Sim.Net.drbg net) ~now ~expires:(now + (24 * World.hour))
        ~payor:alice ~payor_key:alice_rsa
        ~account:(Accounting_server.account bank_a "alice")
        ~payee:bob ~currency ~amount:(10 + i) ()
    in
    match
      Accounting_server.deposit net ~creds:creds_b ~endorser_key:bob_rsa ~check
        ~to_account:"bob"
    with
    | Ok _ -> true
    | Error _ -> false
  in
  traced_loop net ~actor:(Principal.to_string bob) ~name:"f5" ~requests ~one

(* What a smoke asks of a traced run besides exact attribution: causal
   nesting across actors, a valid Chrome export and, where a drop was
   injected, the retry child it forces. *)
let smoke_gates ~retry o =
  let spans = o.spans in
  let children s = List.filter (fun c -> c.Sim.Span.sp_parent = Some s.Sim.Span.sp_id) spans in
  [ ("all requests succeeded", o.ok = o.requests);
    ("no spans dropped", o.dropped = 0);
    (">= 4 causally nested spans", Sim.Span.max_depth spans >= 4);
    (">= 3 distinct actors", List.length (Sim.Span.actors spans) >= 3);
    ( "every span kind carries some cost in its subtree",
      List.for_all (fun s -> s.Sim.Span.sp_costs <> [] || children s <> []) spans );
    ("chrome export is valid JSON", Result.is_ok (Sim.Json.valid (Sim.Span.to_chrome_trace spans))) ]
  @
  if not retry then []
  else
    [ ( "injected drop produced a retry child",
        List.exists
          (fun s ->
            s.Sim.Span.sp_kind = "rpc.call"
            && List.length
                 (List.filter (fun c -> c.Sim.Span.sp_kind = "rpc.attempt") (children s))
               >= 2)
          spans ) ]

let entry ~name ~retry run =
  Drive.entry ~label:("trace " ^ name) ~gates:(fun o -> o.gates) ~digest:(fun o -> o.digest)
    ~smoke_gates:(smoke_gates ~retry) run

let f4_entry ?seed ?requests ?depth () =
  entry ~name:"f4" ~retry:true (run_f4 ?seed ?requests ?depth)

let f5_entry ?seed ?requests () = entry ~name:"f5" ~retry:false (run_f5 ?seed ?requests)
