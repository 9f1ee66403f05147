(* Electronic commerce with proxy checks: the full Figure 5 walkthrough.

   Carol buys from a web shop. Her account lives at First Bank ($2 in the
   figure); the shop banks at Shore Bank ($1). Carol draws a check — a
   numbered delegate proxy — payable to the shop. The shop endorses it to
   Shore Bank and deposits; Shore Bank endorses onward and collects from
   First Bank, which validates the whole endorsement chain offline and
   debits Carol. A second deposit of the same check number bounces, a forged
   check never clears, and a certified check is guaranteed before the goods
   ship.

   Run with: dune exec examples/ecommerce_checks.exe *)

let usd = "usd"

let () =
  Demo.section "Setup: two banks, a shopper, a shop";
  let w = World.create ~seed:"ecommerce" () in
  let carol, _, carol_rsa = World.enrol_pk w "carol" in
  let shop, _, shop_rsa = World.enrol_pk w "shop" in
  let first_bank_p, first_key, first_rsa = World.enrol_pk w "first-bank" in
  let shore_bank_p, shore_key, shore_rsa = World.enrol_pk w "shore-bank" in
  let lookup = World.lookup w in
  let first_bank =
    match
      Accounting_server.create w.World.net ~me:first_bank_p ~my_key:first_key
        ~kdc:w.World.kdc_name ~signing_key:first_rsa ~lookup ()
    with
    | Ok b -> b
    | Error e -> failwith e
  in
  let shore_bank =
    match
      Accounting_server.create w.World.net ~me:shore_bank_p ~my_key:shore_key
        ~kdc:w.World.kdc_name ~signing_key:shore_rsa ~lookup ()
    with
    | Ok b -> b
    | Error e -> failwith e
  in
  Accounting_server.install first_bank;
  Accounting_server.install shore_bank;

  let tgt_c = World.login w carol in
  let creds_c_first = World.credentials_for w ~tgt:tgt_c first_bank_p in
  ignore
    (Demo.expect_ok "carol opens an account at First Bank"
       (Accounting_server.open_account w.World.net ~creds:creds_c_first ~name:"carol"));
  ignore (Ledger.mint (Accounting_server.ledger first_bank) ~name:"carol" ~currency:usd 500);
  Demo.step "carol's account funded with 500 usd";
  let tgt_s = World.login w shop in
  let creds_s_shore = World.credentials_for w ~tgt:tgt_s shore_bank_p in
  ignore
    (Demo.expect_ok "shop opens an account at Shore Bank"
       (Accounting_server.open_account w.World.net ~creds:creds_s_shore ~name:"shop"));

  let balances label =
    Demo.step "%s: carol=%d usd (held %d), shop=%d usd" label
      (Ledger.balance (Accounting_server.ledger first_bank) ~name:"carol" ~currency:usd)
      (Ledger.held (Accounting_server.ledger first_bank) ~name:"carol" ~currency:usd)
      (Ledger.balance (Accounting_server.ledger shore_bank) ~name:"shop" ~currency:usd)
  in

  Demo.section "An ordinary check clears across banks (Fig. 5)";
  let now = Sim.Net.now w.World.net in
  let check =
    Check.write ~drbg:(Sim.Net.drbg w.World.net) ~now ~expires:(now + (24 * World.hour))
      ~payor:carol ~payor_key:carol_rsa
      ~account:(Accounting_server.account first_bank "carol") ~payee:shop ~currency:usd
      ~amount:120 ()
  in
  Demo.step "carol draws check %s for 120 usd payable to the shop"
    (String.sub check.Check.number 0 8);
  balances "before";
  let amount =
    Demo.expect_ok "shop endorses to Shore Bank and deposits"
      (Accounting_server.deposit w.World.net ~creds:creds_s_shore ~endorser_key:shop_rsa ~check
         ~to_account:"shop")
  in
  Demo.step "cleared %d usd through the endorsement chain carol -> shop -> shore-bank" amount;
  balances "after";

  Demo.section "Replay: depositing the same check twice";
  Demo.expect_err "second deposit of the same check number"
    (Accounting_server.deposit w.World.net ~creds:creds_s_shore ~endorser_key:shop_rsa ~check
       ~to_account:"shop");

  Demo.section "Forgery: eve signs a check against carol's account";
  let eve, _, eve_rsa = World.enrol_pk w "eve" in
  ignore eve;
  let forged =
    Check.write ~drbg:(Sim.Net.drbg w.World.net) ~now:(Sim.Net.now w.World.net)
      ~expires:(Sim.Net.now w.World.net + World.hour) ~payor:carol ~payor_key:eve_rsa
      ~account:(Accounting_server.account first_bank "carol") ~payee:shop ~currency:usd
      ~amount:99 ()
  in
  Demo.expect_err "forged check"
    (Accounting_server.deposit w.World.net ~creds:creds_s_shore ~endorser_key:shop_rsa
       ~check:forged ~to_account:"shop");

  Demo.section "A certified check: guaranteed funds before the goods ship";
  let now = Sim.Net.now w.World.net in
  let big_order =
    Check.write ~drbg:(Sim.Net.drbg w.World.net) ~now ~expires:(now + (24 * World.hour))
      ~payor:carol ~payor_key:carol_rsa
      ~account:(Accounting_server.account first_bank "carol") ~payee:shop ~currency:usd
      ~amount:300 ()
  in
  let certification =
    Demo.expect_ok "first bank certifies (places a hold)"
      (Accounting_server.certify w.World.net ~creds:creds_c_first ~check:big_order)
  in
  balances "hold placed";
  let verdict =
    Accounting_server.verify_certification ~lookup ~now:(Sim.Net.now w.World.net)
      ~server:first_bank_p ~presenter:shop ~check_number:big_order.Check.number certification
  in
  Demo.outcome "shop verifies the certification OFFLINE (no bank round-trip)" verdict;
  ignore
    (Demo.expect_ok "shop ships, then deposits the certified check"
       (Accounting_server.deposit w.World.net ~creds:creds_s_shore ~endorser_key:shop_rsa
          ~check:big_order ~to_account:"shop"));
  balances "after certified clearing";

  Demo.section "A cashier's check: the bank is its own drawee";
  let cashier =
    Demo.expect_ok "carol buys a cashier's check for 50 usd"
      (Accounting_server.cashier_check w.World.net ~creds:creds_c_first ~from_account:"carol"
         ~payee:shop ~currency:usd ~amount:50)
  in
  ignore
    (Demo.expect_ok "shop deposits the cashier's check"
       (Accounting_server.deposit w.World.net ~creds:creds_s_shore ~endorser_key:shop_rsa
          ~check:cashier ~to_account:"shop"));
  balances "final";

  Demo.section "Conservation and audit";
  let total =
    Ledger.total (Accounting_server.ledger first_bank) ~currency:usd
    + Ledger.total (Accounting_server.ledger shore_bank) ~currency:usd
  in
  Demo.step "sum over both ledgers: %d usd (exactly the 500 minted)" total;
  assert (total = 500);
  Demo.show_metrics w
    [ "net.messages"; "accounting.deposits"; "accounting.collects"; "accounting.endorsements" ];
  Demo.show_trace ~last:10 w;
  print_endline "\necommerce_checks: every transfer behaved as Section 4 prescribes."
