type entry = { pub : Crypto.Rsa.public; fetched_at : int }

type t = {
  net : Sim.Net.t;
  name_server : Principal.t;
  ca_pub : Crypto.Rsa.public;
  caller : string;
  cache : (string, entry) Hashtbl.t;
}

let ttl_us = 3_600_000_000

let create net ~name_server ~ca_pub ~caller () =
  { net; name_server; ca_pub; caller; cache = Hashtbl.create 16 }

let tick t name = Sim.Metrics.incr (Sim.Net.metrics t.net) name

let lookup t p =
  let key = Principal.to_string p in
  let sp = Sim.Net.spans t.net in
  Sim.Span.with_span sp ~actor:t.caller ~kind:"resolver.lookup" ~attrs:[ ("principal", key) ]
  @@ fun () ->
  let now = Sim.Net.now t.net in
  match Hashtbl.find_opt t.cache key with
  | Some e when e.fetched_at + ttl_us > now ->
      tick t "resolver.hits";
      Sim.Span.add_attr sp "outcome" "hit";
      Some e.pub
  | stale -> (
      (match stale with
      | Some _ -> tick t "resolver.expired" (* cached but past its TTL *)
      | None -> ());
      tick t "resolver.misses";
      Sim.Span.add_attr sp "outcome" (if stale = None then "miss" else "expired");
      match
        Name_server.lookup t.net ~server:t.name_server ~ca_pub:t.ca_pub ~caller:t.caller p
      with
      | Ok pub ->
          Hashtbl.replace t.cache key { pub; fetched_at = now };
          Some pub
      | Error _ ->
          Hashtbl.remove t.cache key;
          None)

let flush t = Hashtbl.reset t.cache
let cached t = Hashtbl.length t.cache
