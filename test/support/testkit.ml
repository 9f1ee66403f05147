(* Shared world-building for integration tests and benches: a simulated
   network with a KDC, a key directory, and helpers to enrol users and
   services. *)

type world = {
  net : Sim.Net.t;
  dir : Directory.t;
  kdc : Kdc.t;
  kdc_name : Principal.t;
  realm : string;
}

let create ?(seed = "testkit") ?(realm = "example.org") () =
  let net = Sim.Net.create ~seed () in
  let dir = Directory.create () in
  let kdc_name = Principal.make ~realm "kdc" in
  Directory.add_symmetric dir kdc_name (Sim.Net.fresh_key net);
  let kdc = Kdc.create net ~name:kdc_name ~directory:dir () in
  Kdc.install kdc;
  { net; dir; kdc; kdc_name; realm }

(* Enrol a principal with a fresh long-term key; returns (principal, key). *)
let enrol w name =
  let p = Principal.make ~realm:w.realm name in
  let key = Sim.Net.fresh_key w.net in
  Directory.add_symmetric w.dir p key;
  (p, key)

let key_of w p =
  match Directory.symmetric w.dir p with
  | Some k -> k
  | None -> failwith ("no key enrolled for " ^ Principal.to_string p)

(* Obtain a TGT for an enrolled principal. *)
let login w p =
  match
    Kdc.Client.authenticate w.net ~kdc:w.kdc_name ~client:p ~client_key:(key_of w p)
      ~service:w.kdc_name ()
  with
  | Ok tgt -> tgt
  | Error e -> failwith ("login failed for " ^ Principal.to_string p ^ ": " ^ e)

(* Derive service credentials from a TGT. *)
let credentials_for w ~tgt service =
  match Kdc.Client.derive w.net ~kdc:w.kdc_name ~tgt ~target:service () with
  | Ok creds -> creds
  | Error e -> failwith ("derive failed: " ^ e)

let now w = Sim.Net.now w.net
let hour = 3_600_000_000

(* What a guard called directly, with no RPC in between, takes as the
   ticket its request rode: the proxies such a test presents are bound to
   it ([Guard.bind]). *)
let ticket = Ticket.digest "a ticket no request carried"

(* A tap that knows the Secure_rpc envelope: [rewrite_request f raw]
   decodes the request, replaces its payload [p] with [f p] and re-encodes
   every length, as an attacker on the wire would; bytes that are not a
   request pass through unchanged. *)
let rewrite_request f raw =
  match Wire.decode raw with
  | Ok (Wire.L (Wire.S "secure" :: ticket :: auth :: Wire.S payload :: rest)) -> (
      match Wire.decode payload with
      | Ok p ->
          Wire.encode
            (Wire.L (Wire.S "secure" :: ticket :: auth :: Wire.S (Wire.encode (f p)) :: rest))
      | Error _ -> raw)
  | _ -> raw

(* The payload of a captured request. *)
let request_payload raw =
  match Wire.decode raw with
  | Ok (Wire.L (Wire.S "secure" :: _ :: _ :: Wire.S payload :: _)) ->
      Result.to_option (Wire.decode payload)
  | _ -> None

(* The words one call of [f] allocates, averaged over 20 calls after one
   warm-up. A block over 256 words is allocated straight in the major
   heap, where [Gc.minor_words] never sees it, so the count adds the
   major heap's words less those promoted from the minor heap (counted
   there already). The minor words come from [Gc.minor_words]: on OCaml
   5.1, [Gc.counters] undercounts the words of the current minor heap. *)
let words_per_call f =
  ignore (f ());
  let calls = 20 in
  let direct () =
    let _, promoted, major = Gc.counters () in
    major -. promoted
  in
  let minor0 = Gc.minor_words () and direct0 = direct () in
  for _ = 1 to calls do
    ignore (Sys.opaque_identity (f ()))
  done;
  let words = Gc.minor_words () -. minor0 +. (direct () -. direct0) in
  words /. float calls

(* The bytes one call of [f] allocates. Reading the counters boxes a few
   floats of its own, the same for every [f], so what a call that
   allocates nothing reads is subtracted: such a call reads 0 B. *)
let alloc_bytes_per_call f =
  (words_per_call f -. words_per_call (fun () -> ())) *. float (Sys.word_size / 8)
