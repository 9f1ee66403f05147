(* Resource quotas through the accounting service (paper Section 4).

   Disk blocks are a currency. Alice's quota is her balance of "blocks" at
   the bank; she hands the disk server a STANDING DEBIT AUTHORITY — a
   restricted delegate proxy capped at 8 blocks, valid only for the blocks
   currency, her account, and this bank. Every write transfers blocks into
   the disk server's escrow; every delete transfers them back. The disk
   server can never overdraw the authority, and it cannot touch her money.

   Run with: dune exec examples/disk_quota.exe *)

let blocks = Disk_server.blocks_currency

let () =
  Demo.section "Setup: bank with a blocks currency, disk server, alice";
  let w = World.create ~seed:"disk quota" () in
  let alice, _, alice_rsa = World.enrol_pk w "alice" in
  let bank_p, bank_key, bank_rsa = World.enrol_pk w "bank" in
  let disk_p, disk_key = World.enrol w "disk" in
  let lookup = World.lookup w in
  let bank =
    match
      Accounting_server.create w.World.net ~me:bank_p ~my_key:bank_key ~kdc:w.World.kdc_name
        ~signing_key:bank_rsa ~lookup ()
    with
    | Ok b -> b
    | Error e -> failwith e
  in
  Accounting_server.install bank;
  let tgt_a = World.login w alice in
  let creds_ab = World.credentials_for w ~tgt:tgt_a bank_p in
  ignore
    (Demo.expect_ok "alice opens an account"
       (Accounting_server.open_account w.World.net ~creds:creds_ab ~name:"alice"));
  ignore (Ledger.mint (Accounting_server.ledger bank) ~name:"alice" ~currency:blocks 20);
  ignore
    (Ledger.mint (Accounting_server.ledger bank) ~name:"alice" ~currency:"usd" 1_000_000);
  Demo.step "alice holds 20 blocks of disk quota (and a million usd the disk server must never see)";
  let tgt_d = World.login w disk_p in
  let creds_db = World.credentials_for w ~tgt:tgt_d bank_p in
  ignore
    (Demo.expect_ok "disk server opens its escrow account"
       (Accounting_server.open_account w.World.net ~creds:creds_db ~name:"disk-escrow"));
  let disk =
    match
      Disk_server.create w.World.net ~me:disk_p ~my_key:disk_key ~kdc:w.World.kdc_name
        ~bank:bank_p ~escrow_account:"disk-escrow"
    with
    | Ok d -> d
    | Error e -> failwith e
  in
  Disk_server.install disk;

  Demo.section "Alice grants the disk server a standing authority for 8 blocks";
  let now = Sim.Net.now w.World.net in
  let authority =
    Standing.grant ~drbg:(Sim.Net.drbg w.World.net) ~now ~expires:(now + (24 * World.hour))
      ~owner:alice ~owner_key:alice_rsa
      ~account:(Accounting_server.account bank "alice") ~holder:disk_p ~currency:blocks
      ~limit:8 ()
  in
  let creds_ad = World.credentials_for w ~tgt:tgt_a disk_p in
  ignore (Demo.expect_ok "attach" (Disk_server.attach w.World.net ~creds:creds_ad ~authority));
  Demo.step "the authority: grantee=disk, quota=(blocks,8), issued-for=bank, debit alice only";

  let show () =
    Demo.step "balances: alice %d blocks, escrow %d blocks"
      (Ledger.balance (Accounting_server.ledger bank) ~name:"alice" ~currency:blocks)
      (Ledger.balance (Accounting_server.ledger bank) ~name:"disk-escrow" ~currency:blocks)
  in

  Demo.section "Writes draw quota; deletes return it";
  let n =
    Demo.expect_ok "write report.dat (3 blocks)"
      (Disk_server.write_file w.World.net ~creds:creds_ad ~path:"report.dat"
         (String.make 1400 'r'))
  in
  Demo.step "charged %d blocks" n;
  show ();
  let n =
    Demo.expect_ok "write big.dat (5 blocks)"
      (Disk_server.write_file w.World.net ~creds:creds_ad ~path:"big.dat" (String.make 2100 'b'))
  in
  Demo.step "charged %d blocks — the authority is now fully drawn (8/8)" n;
  show ();
  Demo.expect_err "a 9th block is refused (cumulative quota)"
    (Disk_server.write_file w.World.net ~creds:creds_ad ~path:"more.dat" "x");
  ignore
    (Demo.expect_ok "delete report.dat"
       (Disk_server.delete_file w.World.net ~creds:creds_ad ~path:"report.dat"));
  Demo.step "3 blocks released back to alice";
  show ();
  ignore
    (Demo.expect_ok "now the small file fits"
       (Disk_server.write_file w.World.net ~creds:creds_ad ~path:"more.dat" "x"));

  Demo.section "The authority's boundaries hold";
  Demo.step "alice's usd balance after all this: %d (untouched — wrong currency for the authority)"
    (Ledger.balance (Accounting_server.ledger bank) ~name:"alice" ~currency:"usd");
  let total =
    Ledger.balance (Accounting_server.ledger bank) ~name:"alice" ~currency:blocks
    + Ledger.balance (Accounting_server.ledger bank) ~name:"disk-escrow" ~currency:blocks
  in
  Demo.step "blocks conserved across account+escrow: %d = 20" total;
  assert (total = 20);
  Demo.show_trace ~last:8 w;
  print_endline "\ndisk_quota: allocation and release through restricted proxies, as Section 4 prescribes."
