(* Soak: sustained mixed load against one world.

   Hundreds of operations against the same servers — logins, capability
   grants and uses, group assertions, check payments — checking that state
   stays bounded (replay caches purge), metrics stay sane, and determinism
   holds across two identically-seeded runs. *)

module W = Testkit
module R = Restriction

type soak_world = {
  w : W.world;
  users : (Principal.t * Crypto.Rsa.private_) array;
  fs : File_server.t;
  fs_name : Principal.t;
  gsrv : Group_server.t;
  gsrv_name : Principal.t;
  bank : Accounting_server.t;
  bank_name : Principal.t;
}

let build ?(seed = "soak") () =
  let w = W.create ~seed () in
  let drbg = Sim.Net.drbg w.W.net in
  let users =
    Array.init 5 (fun i ->
        let p, _ = W.enrol w (Printf.sprintf "user%d" i) in
        let rsa = Crypto.Rsa.generate drbg ~bits:512 in
        Directory.add_public w.W.dir p rsa.Crypto.Rsa.pub;
        (p, rsa))
  in
  let fs_name, fs_key = W.enrol w "fs" in
  let acl = Acl.create () in
  Array.iter
    (fun (p, _) ->
      Acl.add acl ~target:(Principal.to_string p ^ ".dat")
        { Acl.subject = Acl.Principal_is p; rights = []; restrictions = [] })
    users;
  let fs = File_server.create w.W.net ~me:fs_name ~my_key:fs_key ~acl () in
  File_server.install fs;
  Array.iter
    (fun (p, _) -> File_server.put_direct fs ~path:(Principal.to_string p ^ ".dat") "data")
    users;
  let gsrv_name, gsrv_key = W.enrol w "groups" in
  let gsrv =
    Result.get_ok (Group_server.create w.W.net ~me:gsrv_name ~my_key:gsrv_key ~kdc:w.W.kdc_name ())
  in
  Group_server.install gsrv;
  Array.iter (fun (p, _) -> Group_server.add_member gsrv ~group:"everyone" p) users;
  let bank_name, bank_key = W.enrol w "bank" in
  let bank_rsa = Crypto.Rsa.generate drbg ~bits:512 in
  Directory.add_public w.W.dir bank_name bank_rsa.Crypto.Rsa.pub;
  let bank =
    Result.get_ok
      (Accounting_server.create w.W.net ~me:bank_name ~my_key:bank_key ~kdc:w.W.kdc_name
         ~signing_key:bank_rsa
         ~lookup:(fun q -> Directory.public w.W.dir q)
         ())
  in
  Accounting_server.install bank;
  Array.iter
    (fun (p, _) ->
      let tgt = W.login w p in
      let creds = W.credentials_for w ~tgt bank_name in
      Result.get_ok (Accounting_server.open_account w.W.net ~creds ~name:p.Principal.name);
      ignore
        (Ledger.mint (Accounting_server.ledger bank) ~name:p.Principal.name ~currency:"usd" 1000))
    users;
  { w; users; fs; fs_name; gsrv; gsrv_name; bank; bank_name }

(* One deterministic operation mix; returns a digest of observable results
   for the determinism check. *)
let run_mix sw rounds =
  let rng = Crypto.Drbg.create ~seed:"soak ops" in
  let digest = Buffer.create 256 in
  let note fmt = Printf.ksprintf (Buffer.add_string digest) fmt in
  for round = 1 to rounds do
    let i = Crypto.Drbg.uniform_int rng (Array.length sw.users) in
    let j = Crypto.Drbg.uniform_int rng (Array.length sw.users) in
    let user, user_rsa = sw.users.(i) in
    (* A peer distinct from the grantor: when the presenter owns the file
       itself, the guard grants on direct authority and correctly leaves an
       attached accept-once proxy unconsumed. *)
    let j = if i = j then (j + 1) mod Array.length sw.users else j in
    let peer, _ = sw.users.(j) in
    let tgt = W.login sw.w user in
    match Crypto.Drbg.uniform_int rng 4 with
    | 0 ->
        (* Own-file read. *)
        let creds = W.credentials_for sw.w ~tgt sw.fs_name in
        let path = Principal.to_string user ^ ".dat" in
        note "r%d:%b;" round
          (Result.is_ok (File_server.read sw.w.W.net ~creds ~path ()))
    | 1 ->
        (* Grant the peer a single-use capability; the peer uses it twice
           (second must fail: accept-once). *)
        let creds = W.credentials_for sw.w ~tgt sw.fs_name in
        let path = Principal.to_string user ^ ".dat" in
        let once = Printf.sprintf "soak-%d" round in
        let cap =
          Proxy.grant_conventional ~drbg:(Sim.Net.drbg sw.w.W.net) ~now:(W.now sw.w)
            ~expires:(W.now sw.w + W.hour) ~grantor:user ~session_key:creds.Ticket.session_key
            ~base:creds.Ticket.ticket_blob
            ~restrictions:
              [ R.Authorized [ { R.target = path; ops = [ "read" ] } ]; R.Accept_once once ]
        in
        let tgt_p = W.login sw.w peer in
        let creds_p = W.credentials_for sw.w ~tgt:tgt_p sw.fs_name in
        let attach () =
          File_server.attach sw.w.W.net ~proxy:cap ~server:sw.fs_name ~operation:"read" ~path
        in
        let first = File_server.read sw.w.W.net ~creds:creds_p ~proxies:[ attach () ] ~path () in
        let second = File_server.read sw.w.W.net ~creds:creds_p ~proxies:[ attach () ] ~path () in
        note "c%d:%b,%b;" round (Result.is_ok first) (Result.is_ok second);
        if Result.is_ok second then failwith "accept-once capability used twice"
    | 2 ->
        (* Group-proxy assertion at the file server (everyone group is not
           in the ACL, so access is denied — but cleanly). *)
        let creds_g = W.credentials_for sw.w ~tgt sw.gsrv_name in
        let gp =
          Group_server.request_membership_proxy sw.w.W.net ~creds:creds_g ~group:"everyone"
            ~end_server:sw.fs_name ()
        in
        note "g%d:%b;" round (Result.is_ok gp)
    | 3 ->
        (* A small check payment to the peer. *)
        begin
          let amount = 1 + Crypto.Drbg.uniform_int rng 5 in
          let check =
            Check.write ~drbg:(Sim.Net.drbg sw.w.W.net) ~now:(W.now sw.w)
              ~expires:(W.now sw.w + W.hour) ~payor:user ~payor_key:user_rsa
              ~account:(Accounting_server.account sw.bank user.Principal.name)
              ~payee:peer ~currency:"usd" ~amount ()
          in
          let tgt_p = W.login sw.w peer in
          let creds_pb = W.credentials_for sw.w ~tgt:tgt_p sw.bank_name in
          let r =
            Accounting_server.deposit sw.w.W.net ~creds:creds_pb
              ~endorser_key:(snd sw.users.(j)) ~check ~to_account:peer.Principal.name
          in
          note "p%d:%b;" round (Result.is_ok r)
        end
    | _ -> assert false
  done;
  Buffer.contents digest

let test_soak_invariants () =
  let sw = build () in
  let rounds = 120 in
  ignore (run_mix sw rounds);
  (* Money conserved. *)
  Alcotest.(check int) "usd conserved" (5 * 1000)
    (Ledger.total (Accounting_server.ledger sw.bank) ~currency:"usd");
  (* Metrics sane: every message was counted with nonzero bytes. *)
  let m = Sim.Net.metrics sw.w.W.net in
  Alcotest.(check bool) "messages flowed" true (Sim.Metrics.get m "net.messages" > 500);
  Alcotest.(check bool) "bytes flowed" true
    (Sim.Metrics.get m "net.bytes" > Sim.Metrics.get m "net.messages");
  Alcotest.(check int) "nothing dropped" 0 (Sim.Metrics.get m "net.dropped");
  (* Virtual time advanced monotonically with traffic. *)
  Alcotest.(check bool) "clock advanced" true (W.now sw.w > 0)

let test_soak_deterministic () =
  let run () =
    let sw = build ~seed:"soak-det" () in
    let digest = run_mix sw 40 in
    (digest, Sim.Metrics.snapshot (Sim.Net.metrics sw.w.W.net))
  in
  let d1, m1 = run () in
  let d2, m2 = run () in
  Alcotest.(check string) "identical observable behaviour" d1 d2;
  (* Not just the headline byte counter: the entire metrics snapshot —
     message and byte counts, crypto-operation tallies, cache statistics —
     must match counter for counter. *)
  Alcotest.(check (list (pair string int))) "identical metrics snapshots" m1 m2;
  Alcotest.(check bool) "snapshot non-trivial" true (List.length m1 > 3)

(* What a server keeps per request expires or is bounded: after the
   response cache is full, a conventional capability read leaves nothing
   behind. Live words after a full major GC are read at N and again at 4N
   further reads; they may grow by 1 word per read, and grew by none when
   the bound was set. One formatted audit line kept per grant grows them
   by 24. *)
let test_live_state_per_request () =
  let w = W.create ~seed:"soak-live" () in
  let owner, _ = W.enrol w "owner" in
  let worker, _ = W.enrol w "worker" in
  let fs_name, fs_key = W.enrol w "fs" in
  let acl = Acl.create () in
  Acl.add acl ~target:"obj" { Acl.subject = Acl.Principal_is owner; rights = []; restrictions = [] };
  let fs = File_server.create w.W.net ~me:fs_name ~my_key:fs_key ~acl () in
  File_server.install fs;
  File_server.put_direct fs ~path:"obj" "data";
  let owner_creds = W.credentials_for w ~tgt:(W.login w owner) fs_name in
  let worker_creds = W.credentials_for w ~tgt:(W.login w worker) fs_name in
  let cap =
    Capability.mint ~drbg:(Sim.Net.drbg w.W.net) ~now:(W.now w)
      ~expires:(W.now w + (24 * W.hour))
      ~grantor:owner ~session_key:owner_creds.Ticket.session_key
      ~base:owner_creds.Ticket.ticket_blob ~target:"obj" ~ops:[ "read" ]
  in
  let reads n =
    for _ = 1 to n do
      let proxies =
        [ File_server.attach w.W.net ~proxy:cap ~server:fs_name ~operation:"read" ~path:"obj" ]
      in
      match File_server.read w.W.net ~creds:worker_creds ~proxies ~path:"obj" () with
      | Ok _ -> ()
      | Error e -> Alcotest.fail e
    done
  in
  let live () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  (* Past the response cache's 4096 entries: each read now evicts one. *)
  reads 4500;
  let n = 1000 in
  reads n;
  let before = live () in
  reads (4 * n);
  let after = live () in
  (* A last read keeps the world live through the second reading. *)
  reads 1;
  let per_read = float (after - before) /. float (4 * n) in
  Alcotest.(check bool) (Printf.sprintf "%.2f live words per read <= 1" per_read) true
    (per_read <= 1.)

let () =
  Alcotest.run "soak"
    [ ( "soak",
        [ ("mixed load invariants", `Slow, test_soak_invariants);
          ("bit-for-bit determinism", `Slow, test_soak_deterministic);
          ("live state per request", `Slow, test_live_state_per_request) ] ) ]
