type link = {
  link_from : Principal.t;
  link_to : Principal.t;
  link_restrictions : string list;
  link_mac : string;
}

type passport = link list

type t = {
  net : Sim.Net.t;
  name : Principal.t;
  keys : (string, string) Hashtbl.t; (* principal -> shared key *)
}

let create net ~name = { net; name; keys = Hashtbl.create 16 }

let register t p =
  let key = Sim.Net.fresh_key t.net in
  Hashtbl.replace t.keys (Principal.to_string p) key;
  key

(* The MAC covers the link fields and the previous link's MAC, chaining the
   passport together. *)
let link_bytes ~from_ ~to_ ~restrictions ~prev_mac =
  Wire.encode
    (Wire.L
       [ Principal.to_wire from_;
         Principal.to_wire to_;
         Wire.L (List.map (fun r -> Wire.S r) restrictions);
         Wire.S prev_mac ])

let make_link ~key ~from_ ~to_ ~restrictions ~prev_mac =
  {
    link_from = from_;
    link_to = to_;
    link_restrictions = restrictions;
    link_mac = Crypto.Hmac.mac ~key (link_bytes ~from_ ~to_ ~restrictions ~prev_mac);
  }

let initiate ~key ~from_ ~to_ ~restrictions =
  [ make_link ~key ~from_ ~to_ ~restrictions ~prev_mac:"" ]

let extend ~key ~from_ ~to_ ~restrictions passport =
  let prev_mac = match List.rev passport with last :: _ -> last.link_mac | [] -> "" in
  passport @ [ make_link ~key ~from_ ~to_ ~restrictions ~prev_mac ]

let link_to_wire l =
  Wire.L
    [ Principal.to_wire l.link_from;
      Principal.to_wire l.link_to;
      Wire.L (List.map (fun r -> Wire.S r) l.link_restrictions);
      Wire.S l.link_mac ]

let link_of_wire v =
  let open Wire in
  match v with
  | L [ link_from; link_to; L link_restrictions; S link_mac ] ->
      let* link_from = Principal.of_wire link_from in
      let* link_to = Principal.of_wire link_to in
      let* link_restrictions = map_all to_string link_restrictions in
      Ok { link_from; link_to; link_restrictions; link_mac }
  | _ -> Error "passport link: malformed"

let passport_to_wire p = Wire.L (List.map link_to_wire p)
let passport_of_wire v = Result.bind (Wire.to_list v) (Wire.map_all link_of_wire)

(* Server-side validation: every MAC must check out under the sender's
   shared key, and each link must hand off to the next link's sender. *)
let validate t passport =
  let rec walk prev_mac handoff = function
    | [] -> (
        match passport with
        | [] -> Error "empty passport"
        | first :: _ ->
            Ok
              ( first.link_from,
                List.concat_map (fun l -> l.link_restrictions) passport ))
    | l :: rest -> (
        match Hashtbl.find_opt t.keys (Principal.to_string l.link_from) with
        | None -> Error ("unknown principal " ^ Principal.to_string l.link_from)
        | Some key ->
            (match handoff with
            | Some expected when not (Principal.equal expected l.link_from) ->
                Error "broken handoff chain"
            | Some _ | None ->
                let msg =
                  link_bytes ~from_:l.link_from ~to_:l.link_to
                    ~restrictions:l.link_restrictions ~prev_mac
                in
                Sim.Metrics.incr (Sim.Net.metrics t.net) "crypto.mac";
                if Crypto.Hmac.verify ~key ~msg ~tag:l.link_mac then
                  walk l.link_mac (Some l.link_to) rest
                else Error "bad link MAC")
        )
  in
  walk "" None passport

let handle t request =
  let reply v = Wire.encode v in
  match Result.bind (Wire.decode request) passport_of_wire with
  | Error e -> reply (Wire.L [ Wire.S "err"; Wire.S e ])
  | Ok passport -> (
      match validate t passport with
      | Error e -> reply (Wire.L [ Wire.S "err"; Wire.S e ])
      | Ok (originator, restrictions) ->
          reply
            (Wire.L
               [ Wire.S "ok";
                 Principal.to_wire originator;
                 Wire.L (List.map (fun r -> Wire.S r) restrictions) ]))

let install t = Sim.Net.register t.net ~name:(Principal.to_string t.name) (handle t)

let verify_online net ~server ~caller passport =
  let request = Wire.encode (passport_to_wire passport) in
  match Sim.Net.rpc net ~src:caller ~dst:(Principal.to_string server) request with
  | Error e -> Error e
  | Ok reply -> (
      let open Wire in
      let* v = Wire.decode reply in
      match v with
      | L [ S "err"; S msg ] -> Error msg
      | L [ S "ok"; originator; L restrictions ] ->
          let* originator = Principal.of_wire originator in
          let* restrictions = map_all to_string restrictions in
          Ok (originator, restrictions)
      | _ -> Error "sollins: malformed reply")
