(* Adversarial robustness of the whole stack.

   A production authorization service faces hostile bytes, not unit tests:
   every handler must respond (never raise) to garbage, truncation, and
   bit-flips, and no such interference may ever turn into unauthorized
   effects. The paper's security arguments (Section 3.1's eavesdropper,
   tampered restrictions) are exercised here at the message level. *)

module W = Testkit

(* A fully populated world: KDC, file server with an ACL, group server,
   authorization server, two banks with a funded account. *)
type full_world = {
  w : W.world;
  alice : Principal.t;
  alice_rsa : Crypto.Rsa.private_;
  fs : File_server.t;
  fs_name : Principal.t;
  bank_name : Principal.t;
  bank : Accounting_server.t;
  nodes : string list; (* every installed node name *)
}

let full_world ?(seed = "adversary") () =
  let w = W.create ~seed () in
  let drbg = Sim.Net.drbg w.W.net in
  let alice, _ = W.enrol w "alice" in
  let alice_rsa = Crypto.Rsa.generate drbg ~bits:512 in
  Directory.add_public w.W.dir alice alice_rsa.Crypto.Rsa.pub;
  let fs_name, fs_key = W.enrol w "fs" in
  let acl = Acl.create () in
  Acl.add acl ~target:"*" { Acl.subject = Acl.Principal_is alice; rights = []; restrictions = [] };
  let fs = File_server.create w.W.net ~me:fs_name ~my_key:fs_key ~acl () in
  File_server.install fs;
  File_server.put_direct fs ~path:"f" "payload";
  let groups_p, groups_key = W.enrol w "groups" in
  let gsrv =
    Result.get_ok (Group_server.create w.W.net ~me:groups_p ~my_key:groups_key ~kdc:w.W.kdc_name ())
  in
  Group_server.install gsrv;
  Group_server.add_member gsrv ~group:"g" alice;
  let authz_p, authz_key = W.enrol w "authz" in
  let db = Acl.create () in
  Acl.add db ~target:"t" { Acl.subject = Acl.Principal_is alice; rights = []; restrictions = [] };
  let authz =
    Result.get_ok
      (Authz_server.create w.W.net ~me:authz_p ~my_key:authz_key ~kdc:w.W.kdc_name ~database:db ())
  in
  Authz_server.install authz;
  let bank_p, bank_key = W.enrol w "bank" in
  let bank_rsa = Crypto.Rsa.generate drbg ~bits:512 in
  Directory.add_public w.W.dir bank_p bank_rsa.Crypto.Rsa.pub;
  let bank =
    Result.get_ok
      (Accounting_server.create w.W.net ~me:bank_p ~my_key:bank_key ~kdc:w.W.kdc_name
         ~signing_key:bank_rsa
         ~lookup:(fun p -> Directory.public w.W.dir p)
         ())
  in
  Accounting_server.install bank;
  let tgt = W.login w alice in
  let creds = W.credentials_for w ~tgt bank_p in
  Result.get_ok (Accounting_server.open_account w.W.net ~creds ~name:"alice");
  ignore (Ledger.mint (Accounting_server.ledger bank) ~name:"alice" ~currency:"usd" 100);
  {
    w; alice; alice_rsa; fs; fs_name; bank_name = bank_p; bank;
    nodes =
      List.map Principal.to_string [ w.W.kdc_name; fs_name; groups_p; authz_p; bank_p ];
  }

(* Deterministic pseudo-random bytes for fuzz inputs. *)
let fuzz_drbg = Crypto.Drbg.create ~seed:"fuzz inputs"

let test_garbage_to_every_node () =
  let fw = full_world () in
  List.iter
    (fun node ->
      for i = 1 to 50 do
        let len = 1 + Crypto.Drbg.uniform_int fuzz_drbg 300 in
        let junk = Crypto.Drbg.generate fuzz_drbg len in
        match Sim.Net.rpc fw.w.W.net ~src:"fuzzer" ~dst:node junk with
        | Ok _ | Error _ -> () (* the only requirement: no exception *)
        | exception e ->
            Alcotest.failf "node %s raised on garbage #%d: %s" node i (Printexc.to_string e)
      done)
    fw.nodes

let test_valid_prefix_garbage () =
  (* Truncations and extensions of real requests. *)
  let fw = full_world () in
  let tgt = W.login fw.w fw.alice in
  let creds = W.credentials_for fw.w ~tgt fw.fs_name in
  (* Capture one real request. *)
  let captured = ref None in
  Sim.Net.set_tap fw.w.W.net (fun ~dir ~src:_ ~dst:_ payload ->
      (match dir with `Request when !captured = None -> captured := Some payload | _ -> ());
      Sim.Net.Deliver);
  ignore (File_server.read fw.w.W.net ~creds ~path:"f" ());
  Sim.Net.clear_tap fw.w.W.net;
  let real = Option.get !captured in
  let dst = Principal.to_string fw.fs_name in
  for cut = 0 to min 64 (String.length real - 1) do
    let truncated = String.sub real 0 (String.length real - 1 - cut) in
    match Sim.Net.rpc fw.w.W.net ~src:"fuzzer" ~dst truncated with
    | Ok _ | Error _ -> ()
    | exception e -> Alcotest.failf "truncation raised: %s" (Printexc.to_string e)
  done;
  (match Sim.Net.rpc fw.w.W.net ~src:"fuzzer" ~dst (real ^ "extra") with
  | Ok _ | Error _ -> ()
  | exception e -> Alcotest.failf "extension raised: %s" (Printexc.to_string e))

let test_bitflips_never_authorize () =
  (* Flip one byte of the capability presentation at every position: the
     file server must refuse every variant (and never crash). *)
  let fw = full_world () in
  let tgt = W.login fw.w fw.alice in
  let cap =
    Result.get_ok
      (Capability.mint_via_kdc fw.w.W.net ~kdc:fw.w.W.kdc_name ~tgt ~end_server:fw.fs_name
         ~target:"f" ~ops:[ "read" ] ())
  in
  let presented = Guard.bind ~server:fw.fs_name ~ticket:W.ticket cap in
  let bytes = Wire.encode (Guard.presented_to_wire presented) in
  let tamper_positions =
    (* every 7th byte to keep runtime sane, plus the first and last *)
    0 :: (String.length bytes - 1)
    :: List.filter (fun i -> i mod 7 = 0) (List.init (String.length bytes) Fun.id)
  in
  List.iter
    (fun pos ->
      let b = Bytes.of_string bytes in
      Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x5a));
      match Wire.decode (Bytes.to_string b) with
      | Error _ -> () (* structurally dead: fine *)
      | Ok v -> (
          match Guard.presented_of_wire v with
          | Error _ -> ()
          | Ok p -> (
              (* A tampered WRITE presentation must never authorize a
                 write: the underlying capability is read-only. *)
              match
                Guard.decide
                  (Guard.create fw.w.W.net ~me:fw.fs_name
                     ~my_key:(W.key_of fw.w fw.fs_name)
                     ~acl:(File_server.acl fw.fs) ()) ~ticket:W.ticket
                  ~operation:"write" ~target:"f" ~proxies:[ p ] ()
              with
              | Error _ -> ()
              | Ok _ -> Alcotest.failf "byte flip at %d authorized a write" pos)))
    tamper_positions

let test_mitm_on_live_flows () =
  (* Random request/response tampering while real clients run: operations
     fail cleanly or succeed intact; balances never corrupt. *)
  let fw = full_world () in
  let flip = ref 0 in
  Sim.Net.set_tap fw.w.W.net (fun ~dir:_ ~src:_ ~dst:_ payload ->
      incr flip;
      if !flip mod 3 = 0 && String.length payload > 10 then begin
        let pos = Crypto.Drbg.uniform_int fuzz_drbg (String.length payload) in
        let b = Bytes.of_string payload in
        Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0xff));
        Sim.Net.Replace (Bytes.to_string b)
      end
      else Sim.Net.Deliver);
  let attempts = ref 0 and clean_failures = ref 0 and successes = ref 0 in
  for _ = 1 to 20 do
    incr attempts;
    match
      let tgt = W.login fw.w fw.alice in
      let creds = W.credentials_for fw.w ~tgt fw.fs_name in
      File_server.read fw.w.W.net ~creds ~path:"f" ()
    with
    | Ok content ->
        if content = "payload" then incr successes
        else Alcotest.fail "tampered read returned corrupt content as success"
    | Error _ -> incr clean_failures
    | exception Failure _ -> incr clean_failures (* login/derive refused *)
  done;
  Sim.Net.clear_tap fw.w.W.net;
  Alcotest.(check int) "all attempts accounted" !attempts (!clean_failures + !successes);
  (* Balance unaffected by all that noise. *)
  Alcotest.(check int) "ledger intact" 100
    (Ledger.balance (Accounting_server.ledger fw.bank) ~name:"alice" ~currency:"usd")

let test_check_fuzz_never_pays () =
  (* Byte-flipped checks either bounce or (if the flip misses sealed parts)
     clear exactly once with the correct amount; total never exceeds the
     face value. *)
  let fw = full_world () in
  let shop, _ = W.enrol fw.w "shop" in
  let shop_rsa = Crypto.Rsa.generate (Sim.Net.drbg fw.w.W.net) ~bits:512 in
  Directory.add_public fw.w.W.dir shop shop_rsa.Crypto.Rsa.pub;
  let tgt_s = W.login fw.w shop in
  let creds_s = W.credentials_for fw.w ~tgt:tgt_s fw.bank_name in
  Result.get_ok (Accounting_server.open_account fw.w.W.net ~creds:creds_s ~name:"shop");
  let now = W.now fw.w in
  let check =
    Check.write ~drbg:(Sim.Net.drbg fw.w.W.net) ~now ~expires:(now + (24 * W.hour))
      ~payor:fw.alice ~payor_key:fw.alice_rsa
      ~account:(Accounting_server.account fw.bank "alice") ~payee:shop ~currency:"usd"
      ~amount:10 ()
  in
  let check_bytes = Wire.encode (Check.to_wire check) in
  for trial = 1 to 40 do
    let pos = Crypto.Drbg.uniform_int fuzz_drbg (String.length check_bytes) in
    let b = Bytes.of_string check_bytes in
    Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor (1 + Crypto.Drbg.uniform_int fuzz_drbg 254)));
    match Result.bind (Wire.decode (Bytes.to_string b)) Check.of_wire with
    | Error _ -> ()
    | Ok mutant -> (
        match
          Accounting_server.deposit fw.w.W.net ~creds:creds_s ~endorser_key:shop_rsa
            ~check:mutant ~to_account:"shop"
        with
        | Error _ -> ()
        | Ok amount ->
            (* Only an unmodified-semantics check can clear, and only once
               (accept-once); any clearing must be for the true amount. *)
            if amount <> 10 then Alcotest.failf "trial %d cleared wrong amount %d" trial amount)
  done;
  let shop_balance = Ledger.balance (Accounting_server.ledger fw.bank) ~name:"shop"
      ~currency:"usd" in
  let alice_balance =
    Ledger.balance (Accounting_server.ledger fw.bank) ~name:"alice" ~currency:"usd"
  in
  Alcotest.(check bool) "at most one clearing" true (shop_balance = 0 || shop_balance = 10);
  Alcotest.(check int) "conservation" 100 (shop_balance + alice_balance)

let test_response_substitution () =
  (* Swap in a previously captured (valid) response for a different
     request: the client's nonce/seal check must reject it. *)
  let fw = full_world () in
  let tgt = W.login fw.w fw.alice in
  let stale = ref None in
  Sim.Net.set_tap fw.w.W.net (fun ~dir ~src:_ ~dst:_ payload ->
      match dir with
      | `Response when !stale = None ->
          stale := Some payload;
          Sim.Net.Deliver
      | _ -> Sim.Net.Deliver);
  ignore (W.credentials_for fw.w ~tgt fw.fs_name);
  Sim.Net.clear_tap fw.w.W.net;
  let stale = Option.get !stale in
  (* Now substitute that stale reply for the next derivation. *)
  Sim.Net.set_tap fw.w.W.net (fun ~dir ~src:_ ~dst:_ _payload ->
      match dir with `Response -> Sim.Net.Replace stale | `Request -> Sim.Net.Deliver);
  (match
     Kdc.Client.derive fw.w.W.net ~kdc:fw.w.W.kdc_name ~tgt ~target:fw.bank_name ()
   with
  | Error _ -> ()
  | Ok creds ->
      (* Even if parsing succeeded, the credentials must not be for the
         requested service with a usable key — but nonce checking should
         already have refused. *)
      Alcotest.(check bool) "substituted reply rejected" false
        (Principal.equal creds.Ticket.cred_service fw.bank_name));
  Sim.Net.clear_tap fw.w.W.net

(* Bob reads with alice's capability over his own ticket. Eve copies his
   presentation, binding included, off the wire and sends it 60 s later
   over her own ticket: the binding names bob's ticket, so the file
   server refuses her. *)
let test_copied_binding_refused () =
  let fw = full_world () in
  let net = fw.w.W.net in
  let cap =
    Result.get_ok
      (Capability.mint_via_kdc net ~kdc:fw.w.W.kdc_name ~tgt:(W.login fw.w fw.alice)
         ~end_server:fw.fs_name ~target:"f" ~ops:[ "read" ] ())
  in
  let creds name =
    let p, _ = W.enrol fw.w name in
    W.credentials_for fw.w ~tgt:(W.login fw.w p) fw.fs_name
  in
  let bob = creds "bob" and eve = creds "eve" in
  let captured = ref None in
  Sim.Net.set_tap net (fun ~dir ~src:_ ~dst:_ payload ->
      (match dir with `Request when !captured = None -> captured := Some payload | _ -> ());
      Sim.Net.Deliver);
  Alcotest.(check (result string string)) "bob reads" (Ok "payload")
    (File_server.read net ~creds:bob ~proxies:[ cap ] ~path:"f" ());
  Sim.Net.clear_tap net;
  let copied =
    match Option.bind !captured W.request_payload with
    | Some (Wire.L [ _; _; _; proxies; _ ]) -> proxies
    | _ -> Alcotest.fail "no presentation on the wire"
  in
  Sim.Clock.advance (Sim.Net.clock net) 60_000_000;
  match
    Secure_rpc.call net ~creds:eve
      (Wire.L [ Wire.S "read"; Wire.S "f"; Wire.S ""; copied; Wire.L [] ])
  with
  | Ok _ -> Alcotest.fail "eve read the file with bob's copied binding"
  | Error e ->
      Alcotest.(check string) "refused at the binding"
        "access denied: no ACL entry permits read on \"f\" (no presented proxy was usable: \
         session binding: invalid)"
        e

(* A tap rewrites alice's transfer of 10 usd to disk into 900 usd to
   mallory. The authenticator covers the payload, so the bank refuses the
   request before its handler runs and no balance moves. *)
let test_rewritten_transfer_refused () =
  let fw = full_world () in
  let net = fw.w.W.net in
  let ledger = Accounting_server.ledger fw.bank in
  ignore (Ledger.mint ledger ~name:"alice" ~currency:"usd" 900);
  List.iter
    (fun name ->
      let p, _ = W.enrol fw.w name in
      let creds = W.credentials_for fw.w ~tgt:(W.login fw.w p) fw.bank_name in
      Result.get_ok (Accounting_server.open_account net ~creds ~name))
    [ "disk"; "mallory" ];
  let creds = W.credentials_for fw.w ~tgt:(W.login fw.w fw.alice) fw.bank_name in
  let redirect p =
    match Accounting_server.request_of_wire p with
    | Ok (Accounting_server.Transfer ({ to_ = "disk"; amount = 10; _ } as r)) ->
        Accounting_server.request_to_wire
          (Accounting_server.Transfer { r with to_ = "mallory"; amount = 900 })
    | _ -> p
  in
  Sim.Net.set_tap net (fun ~dir ~src:_ ~dst:_ payload ->
      match dir with
      | `Request -> Sim.Net.Replace (W.rewrite_request redirect payload)
      | `Response -> Sim.Net.Deliver);
  let moved =
    Accounting_server.transfer net ~creds ~from_:"alice" ~to_:"disk" ~currency:"usd" ~amount:10
  in
  Sim.Net.clear_tap net;
  Alcotest.(check (result unit string)) "rewritten transfer refused"
    (Error "authenticator: seal verification failed") moved;
  List.iter
    (fun (name, want) ->
      Alcotest.(check int) (name ^ " unchanged") want
        (Ledger.balance ledger ~name ~currency:"usd"))
    [ ("alice", 1_000); ("disk", 0); ("mallory", 0) ]

let () =
  Alcotest.run "adversary"
    [ ( "robustness",
        [ ("garbage to every node", `Slow, test_garbage_to_every_node);
          ("truncation/extension", `Slow, test_valid_prefix_garbage);
          ("bitflips never authorize", `Slow, test_bitflips_never_authorize);
          ("MITM on live flows", `Slow, test_mitm_on_live_flows);
          ("fuzzed checks never overpay", `Slow, test_check_fuzz_never_pays);
          ("response substitution", `Slow, test_response_substitution) ] );
      ( "bound requests",
        [ ("a copied binding is refused under another ticket", `Slow,
           test_copied_binding_refused);
          ("a rewritten transfer is refused", `Slow, test_rewritten_transfer_refused) ] ) ]
