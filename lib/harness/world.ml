type t = {
  net : Sim.Net.t;
  dir : Directory.t;
  kdc : Kdc.t;
  kdc_name : Principal.t;
  realm : string;
}

(* Build a realm (directory + KDC) on an existing network: the multi-realm
   harness creates one net and one of these per realm, then links the KDCs
   with [Kdc.federate]. *)
let create_in net ?(realm = "example.org") () =
  let dir = Directory.create () in
  let kdc_name = Principal.make ~realm "kdc" in
  Directory.add_symmetric dir kdc_name (Sim.Net.fresh_key net);
  let kdc = Kdc.create net ~name:kdc_name ~directory:dir () in
  Kdc.install kdc;
  { net; dir; kdc; kdc_name; realm }

let create ?(seed = "world") ?(realm = "example.org") () =
  let net = Sim.Net.create ~seed () in
  create_in net ~realm ()

let enrol w name =
  let p = Principal.make ~realm:w.realm name in
  let key = Sim.Net.fresh_key w.net in
  Directory.add_symmetric w.dir p key;
  (p, key)

let enrol_pk w name =
  let p, key = enrol w name in
  let rsa = Crypto.Rsa.generate (Sim.Net.drbg w.net) ~bits:512 in
  Directory.add_public w.dir p rsa.Crypto.Rsa.pub;
  (p, key, rsa)

let lookup w p = Directory.public w.dir p

let login w p =
  match
    Kdc.Client.authenticate w.net ~kdc:w.kdc_name ~client:p
      ~client_key:(Option.get (Directory.symmetric w.dir p))
      ~service:w.kdc_name ()
  with
  | Ok tgt -> tgt
  | Error e -> failwith ("World.login: " ^ e)

let credentials_for w ~tgt service =
  match Kdc.Client.derive w.net ~kdc:w.kdc_name ~tgt ~target:service () with
  | Ok creds -> creds
  | Error e -> failwith ("World.credentials_for: " ^ e)

let now w = Sim.Net.now w.net
let hour = 3_600_000_000
