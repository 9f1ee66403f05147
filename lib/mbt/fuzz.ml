(* Mutation-based fuzzer for the wire codecs.

   Valid encodings of every certificate/restriction/check structure are
   mutated (bit flips, truncations, length bombs, splices) and fed to
   [Wire.decode] and every typed [of_wire] decoder.  The contract under
   test, from wire.mli and restriction.mli:

   - decoding is total: malformed adversarial input never raises;
   - decoders fail closed: unrecognized restriction tags become [Unknown]
     (which fails every check) rather than being ignored;
   - valid encodings round-trip.

   A small corpus of the valid seeds plus deterministic mutants is committed
   under test/fuzz_corpus/ and replayed in CI. *)

let realm = "example.org"

(* --- seed values: one valid encoding per codec --- *)

let sample_seq_steps fs =
  [
    { Restriction.step_op = "open"; step_server = Some fs; step_target = Some "u0.dat" };
    { Restriction.step_op = "read"; step_server = None; step_target = None };
  ]

let sample_restrictions u0 u1 fs =
  [
    Restriction.Grantee ([ u0; u1 ], 1);
    Restriction.Issued_for [ fs ];
    Restriction.Quota ("usd", 42);
    Restriction.Authorized
      [ { Restriction.target = "u0.dat"; ops = [ "read"; "write" ] };
        { Restriction.target = "shared.dat"; ops = [] } ];
    Restriction.Group_membership [ "team" ];
    Restriction.Accept_once "ck-0001";
    Restriction.Limit_restriction ([ fs ], [ Restriction.Quota ("usd", 7) ]);
    Restriction.Sequence (sample_seq_steps fs);
    Restriction.Unknown "x-future-restriction";
  ]

(* Each seed: (name, encoded value, typed re-decoder).  The re-decoder is the
   round-trip obligation for the *valid* encoding and the never-crash
   obligation for mutants.  [build] also returns the binding negatives
   (name, value), refused by the ["presented-session"] re-decoder. *)
let build () =
  let kp = Lazy.force Exec.pool in
  let drbg = Crypto.Drbg.create ~seed:"mbt-fuzz-seeds" in
  let u0 = Principal.make ~realm "u0" in
  let u1 = Principal.make ~realm "u1" in
  let fs = Principal.make ~realm "fs" in
  let bank = Principal.make ~realm "bank" in
  let restrictions = sample_restrictions u0 u1 fs in
  let now = 1_000_000 and expires = 3_600_000_000 in
  let pk =
    Proxy.grant_pk ~drbg ~now ~expires ~grantor:u0 ~grantor_key:kp.Exec.pk_users.(0)
      ~restrictions ()
  in
  let pk2 =
    match
      Proxy.restrict_pk ~drbg ~now ~expires ~restrictions:[ Restriction.Quota ("usd", 5) ] pk
    with
    | Ok p -> p
    | Error e -> failwith ("fuzz seeds: restrict_pk: " ^ e)
  in
  let hybrid =
    match
      Proxy.grant_hybrid ~drbg ~now ~expires ~grantor:u0 ~grantor_key:kp.Exec.pk_users.(0)
        ~end_server:fs ~end_server_pub:kp.Exec.pk_fs.Crypto.Rsa.pub ~restrictions ()
    with
    | Ok p -> p
    | Error e -> failwith ("fuzz seeds: grant_hybrid: " ^ e)
  in
  let conv =
    Proxy.grant_conventional ~drbg ~now ~expires ~grantor:u0
      ~session_key:(Crypto.Drbg.generate drbg 32) ~base:(Crypto.Drbg.generate drbg 80)
      ~restrictions
  in
  (* The committed check seeds predate key-less checks: they are built
     from the keyed constructors, with the same DRBG draws, so every later
     seed keeps its bytes. The key-less ones are appended below. *)
  let account = Principal.Account.make ~server:bank "u0" in
  let check_of p =
    Result.fold ~ok:Fun.id ~error:(fun e -> failwith ("fuzz seeds: " ^ e)) (Check.of_proxy p)
  in
  let check =
    let _, restrictions = Check.terms ~drbg ~account ~payee:u1 ~currency:"usd" ~amount:25 in
    check_of
      (Proxy.grant_pk ~drbg ~now ~expires ~grantor:u0 ~grantor_key:kp.Exec.pk_users.(0)
         ~restrictions ())
  in
  let endorsed =
    match
      Proxy.delegate_pk ~drbg ~now ~expires ~intermediate:u1
        ~intermediate_key:kp.Exec.pk_users.(1)
        ~restrictions:[ Restriction.Grantee ([ bank ], 1) ]
        check.Check.proxy
    with
    | Ok proxy -> check_of proxy
    | Error e -> failwith ("fuzz seeds: delegate_pk: " ^ e)
  in
  let keyless =
    Check.write ~drbg ~now ~expires ~payor:u0 ~payor_key:kp.Exec.pk_users.(0) ~account
      ~payee:u1 ~currency:"usd" ~amount:25 ()
  in
  let keyless_endorsed =
    match
      Check.endorse ~drbg ~now ~expires ~endorser:u1 ~endorser_key:kp.Exec.pk_users.(1)
        ~next:bank keyless
    with
    | Ok c -> c
    | Error e -> failwith ("fuzz seeds: endorse: " ^ e)
  in
  (* A session at fs: tickets sealed under fs's key (a live one, another
     live one, one already expired) and a bearer proxy to present over
     them. *)
  let fs_key = Crypto.Aead.prepare (Crypto.Drbg.generate drbg 32) in
  let ticket ~expires =
    Ticket.seal ~service_key:fs_key ~nonce:(Crypto.Drbg.generate drbg 12)
      { Ticket.client = u1; service = fs; session_key = Crypto.Drbg.generate drbg 32;
        auth_time = now; expires; authorization_data = [] }
  in
  let live = ticket ~expires in
  let other_ticket = ticket ~expires in
  let expired_ticket = ticket ~expires:now in
  let presented = Guard.bind ~server:fs ~ticket:(Ticket.digest live) pk2 in
  let bearer =
    Proxy.grant_pk ~drbg ~now ~expires ~grantor:u0 ~grantor_key:kp.Exec.pk_users.(0)
      ~restrictions:
        [ Restriction.Authorized [ { Restriction.target = "u0.dat"; ops = [ "read" ] } ] ]
      ()
  in
  (* The proxy presented with the ticket its request rides. *)
  let session ?(server = fs) ?(key = bearer.Proxy.key) ~bound_to rides =
    Wire.L
      [ Guard.presented_to_wire
          (Guard.bind ~server ~ticket:(Ticket.digest bound_to) { bearer with Proxy.key });
        Wire.S rides ]
  in
  (* What fs's guard checks of such a pair at [now]: the ticket opens
     under fs's key, names fs and is live, the chain verifies, and the
     binding names fs and that very ticket. *)
  let lookup p = if Principal.equal p u0 then Some kp.Exec.pk_users.(0).Crypto.Rsa.pub else None in
  let session_check v =
    let open Wire in
    match v with
    | L [ presented; S blob ] ->
        let* presented = Guard.presented_of_wire presented in
        let* t = Ticket.open_ ~service_key:fs_key blob in
        if not (Principal.equal t.Ticket.service fs) then Error "ticket is for a different service"
        else if t.Ticket.expires <= now then Error "ticket expired"
        else
          let* verified =
            Verifier.verify ~open_base:(fun _ -> Error "no base tickets") ~lookup ~now
              presented.Guard.pres
          in
          Result.map ignore
            (Verifier.authorize ~held:Restriction.no_state verified
               ~req:
                 (Restriction.request ~server:fs ~time:now ~operation:"read" ~target:"u0.dat" ())
               ~ticket:(Some (Ticket.digest blob)) ~binding:presented.Guard.pres_binding)
    | _ -> Error "session: malformed"
  in
  let negatives =
    [
      ("other-ticket", session ~bound_to:other_ticket live);
      ("other-server", session ~server:bank ~bound_to:live live);
      ("expired-ticket", session ~bound_to:expired_ticket expired_ticket);
      ("other-key", session ~key:(Proxy.Keypair kp.Exec.pk_users.(1)) ~bound_to:live live);
    ]
  in
  let bulletin =
    Revocation.sign ~key:kp.Exec.pk_authority ~issuer:(Principal.make ~realm "revoker")
      ~epoch:3 ~issued_at:now
      [ Revocation.By_serial "serial-1";
        Revocation.By_serial "serial-2";
        Revocation.By_grantor_epoch { grantor = u0; not_before = now } ]
  in
  let snapshot =
    Membership.sign ~key:kp.Exec.pk_authority ~issuer:(Principal.make ~realm "groups")
      ~epoch:2 ~issued_at:now
      [ ("eng", [ u0; u1 ]); ("ops", [ fs ]) ]
  in
  (* What the KDC requests carry sealed is opaque to their codec: one
     stand-in, drawn last so every earlier seed's bytes stay put. *)
  let sealed = Crypto.Drbg.generate drbg 64 in
  let as_req preauth =
    Kdc.As_req
      { client = u0; service = fs; nonce = 7;
        auth_data = [ Restriction.to_wire (List.hd restrictions) ]; preauth }
  in
  let head_cert (p : Proxy.t) =
    match p.Proxy.flavor with
    | Proxy.Public_key (c :: _) -> c
    | _ -> assert false
  in
  let hybrid_cert =
    match hybrid.Proxy.flavor with
    | Proxy.Hybrid (c, _) -> c
    | _ -> assert false
  in
  let ign f v = Result.map ignore (f v) in
  let acct name r =
    (name, Accounting_server.request_to_wire r, ign Accounting_server.request_of_wire)
  in
  let kdc name r = (name, Kdc.request_to_wire r, ign Kdc.request_of_wire) in
  [
    ("principal", Principal.to_wire u0, ign Principal.of_wire);
    ("restriction", Restriction.to_wire (List.hd restrictions), ign Restriction.of_wire);
    ("restriction-list", Restriction.list_to_wire restrictions, ign Restriction.list_of_wire);
    ( "cert-body",
      Proxy_cert.body_to_wire
        { Proxy_cert.grantor = u0; serial = "serial-1"; issued_at = now; expires; restrictions },
      ign Proxy_cert.body_of_wire );
    ("pk-cert", Proxy_cert.pk_cert_to_wire (head_cert pk), ign Proxy_cert.pk_cert_of_wire);
    ("hybrid-cert", Proxy_cert.hybrid_cert_to_wire hybrid_cert, ign Proxy_cert.hybrid_cert_of_wire);
    ( "presentation-pk",
      Proxy.presentation_to_wire (Proxy.presentation pk2),
      ign Proxy.presentation_of_wire );
    ( "presentation-conv",
      Proxy.presentation_to_wire (Proxy.presentation conv),
      ign Proxy.presentation_of_wire );
    ( "presentation-hybrid",
      Proxy.presentation_to_wire (Proxy.presentation hybrid),
      ign Proxy.presentation_of_wire );
    ("presented", Guard.presented_to_wire presented, ign Guard.presented_of_wire);
    ("check", Check.to_wire check, ign Check.of_wire);
    ("check-endorsed", Check.to_wire endorsed, ign Check.of_wire);
    ( "rev-entry",
      Revocation.entry_to_wire (Revocation.By_serial "serial-1"),
      ign Revocation.entry_of_wire );
    ("rev-bulletin", Revocation.to_wire bulletin, ign Revocation.of_wire);
    (* Appended last so earlier seeds keep their indices in the corpus file
       names. *)
    ( "restriction-seq",
      Restriction.to_wire (Restriction.Sequence (sample_seq_steps fs)),
      ign Restriction.of_wire );
    ("membership-snapshot", Membership.to_wire snapshot, ign Membership.of_wire);
    ( "pk-cert-keyless",
      Proxy_cert.pk_cert_to_wire (head_cert keyless.Check.proxy),
      ign Proxy_cert.pk_cert_of_wire );
    ("check-keyless", Check.to_wire keyless, ign Check.of_wire);
    ("check-keyless-endorsed", Check.to_wire keyless_endorsed, ign Check.of_wire);
    ("presented-session", session ~bound_to:live live, session_check);
    acct "acct-deposit" (Accounting_server.Deposit { check = keyless_endorsed; to_account = "u1" });
    acct "acct-draw"
      (Accounting_server.Proxy_draw
         { release = false; presented; payor_account = "u0"; account = "u1"; currency = "usd";
           amount = 5 });
    acct "acct-bulletin" (Accounting_server.Apply_bulletin bulletin);
    kdc "as-preauth" (as_req sealed);
    kdc "as-bare" (as_req "");
    kdc "tgs-req" (Kdc.Tgs_req { tgt = live; authenticator = sealed; target = fs; nonce = 8 });
  ],
  negatives

let seeds () = fst (build ())

(* Every seed with a trailing extra field: each codec accepts its exact
   shape only, so each decoder must refuse its entry. *)
let trailing_negatives seeds =
  List.filter_map
    (fun (name, v, _) ->
      match v with
      | Wire.L items -> Some (name, Wire.L (items @ [ Wire.S "trailing" ]))
      | _ -> None)
    seeds

(* --- mutations --- *)

let mutate_once drbg s =
  let n = String.length s in
  let b = Bytes.of_string s in
  let rnd k = Crypto.Drbg.uniform_int drbg k in
  if n = 0 then s
  else
    match rnd 7 with
    | 0 ->
        (* bit flip *)
        let i = rnd n in
        Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl rnd 8)));
        Bytes.to_string b
    | 1 ->
        (* random byte *)
        let i = rnd n in
        Bytes.set b i (Char.chr (rnd 256));
        Bytes.to_string b
    | 2 ->
        (* truncate *)
        String.sub s 0 (rnd n)
    | 3 ->
        (* insert a random byte *)
        let i = rnd (n + 1) in
        String.sub s 0 i ^ String.make 1 (Char.chr (rnd 256)) ^ String.sub s i (n - i)
    | 4 ->
        (* duplicate a slice *)
        let i = rnd n in
        let len = 1 + rnd (min 16 (n - i)) in
        let slice = String.sub s i len in
        String.sub s 0 i ^ slice ^ slice ^ String.sub s (i + len) (n - i - len)
    | 5 ->
        (* length bomb: overwrite 4 bytes with 0xff (oversized u32 length) *)
        if n < 4 then Bytes.to_string b
        else begin
          let i = rnd (n - 3) in
          for j = i to i + 3 do
            Bytes.set b j '\xff'
          done;
          Bytes.to_string b
        end
    | _ ->
        (* swap two slices' worth of bytes: reorder structure *)
        let i = rnd n and j = rnd n in
        let ci = Bytes.get b i in
        Bytes.set b i (Bytes.get b j);
        Bytes.set b j ci;
        Bytes.to_string b

let mutate drbg s =
  let rec go s k = if k = 0 then s else go (mutate_once drbg s) (k - 1) in
  go s (1 + Crypto.Drbg.uniform_int drbg 3)

(* --- the fuzz loop --- *)

type crash = { c_seed : string; c_stage : string; c_exn : string; c_input_hex : string }

type stats = {
  iterations : int;
  decode_ok : int;
  decode_error : int;
  typed_ok : int;
  typed_error : int;
  seq_iters : int;  (** mutants derived from the sequence-restriction seed *)
  crashes : crash list;  (** any exception escaping a decoder: a finding *)
}

let no_crash stage seed_name input f =
  match f () with
  | Ok _ -> Ok `Ok
  | Error _ -> Ok `Err
  | exception e ->
      Error
        {
          c_seed = seed_name;
          c_stage = stage;
          c_exn = Printexc.to_string e;
          c_input_hex = Program.to_hex input;
        }

let run ~seed ~iters =
  let drbg = Crypto.Drbg.create ~seed in
  let seeds = seeds () in
  let encoded = List.map (fun (name, v, re) -> (name, Wire.encode v, re)) seeds in
  let stats =
    ref { iterations = 0; decode_ok = 0; decode_error = 0; typed_ok = 0; typed_error = 0;
          seq_iters = 0; crashes = [] }
  in
  let crash c = stats := { !stats with crashes = c :: !stats.crashes } in
  (* Round-trip obligation on every valid seed first. *)
  List.iter
    (fun (name, v, re) ->
      let bytes = Wire.encode v in
      (match Wire.decode bytes with
      | Ok v' when Wire.equal v v' -> ()
      | Ok _ ->
          crash { c_seed = name; c_stage = "roundtrip"; c_exn = "decode(encode v) <> v";
                  c_input_hex = Program.to_hex bytes }
      | Error e ->
          crash { c_seed = name; c_stage = "roundtrip"; c_exn = "decode failed: " ^ e;
                  c_input_hex = Program.to_hex bytes });
      match no_crash "typed-roundtrip" name bytes (fun () -> re v) with
      | Ok `Ok -> ()
      | Ok `Err ->
          crash { c_seed = name; c_stage = "typed-roundtrip"; c_exn = "typed decoder refused a valid encoding";
                  c_input_hex = Program.to_hex bytes }
      | Error c -> crash c)
    seeds;
  for _ = 1 to iters do
    let name, bytes, re =
      List.nth encoded (Crypto.Drbg.uniform_int drbg (List.length encoded))
    in
    let mutant = mutate drbg bytes in
    stats := { !stats with iterations = !stats.iterations + 1 };
    if name = "restriction-seq" then stats := { !stats with seq_iters = !stats.seq_iters + 1 };
    match no_crash "wire-decode" name mutant (fun () -> Wire.decode mutant) with
    | Error c -> crash c
    | Ok `Err -> stats := { !stats with decode_error = !stats.decode_error + 1 }
    | Ok `Ok -> (
        stats := { !stats with decode_ok = !stats.decode_ok + 1 };
        let w = Result.get_ok (Wire.decode mutant) in
        match no_crash "typed-decode" name mutant (fun () -> re w) with
        | Error c -> crash c
        | Ok `Ok -> stats := { !stats with typed_ok = !stats.typed_ok + 1 }
        | Ok `Err -> stats := { !stats with typed_error = !stats.typed_error + 1 })
  done;
  !stats

(* --- the committed corpus --- *)

(* Corpus files are hex, one value per file.  [valid-*.hex] must decode both
   at the wire layer and through their typed decoder; [mutant-*.hex] only
   must not crash anything.  The typed decoder is recovered from the file
   name: valid-<seedname>.hex / mutant-<k>-<seedname>.hex.  [json-*.hex]
   entries are raw JSON text (hex-encoded like the rest) fed to [Sim.Json]
   instead of the wire codec — each is an input that once crashed the bench
   artifact parser's \u escape handling, pinned so the parser keeps
   failing closed. *)

(* Hostile \u escapes: non-hex digit, truncation mid-escape, and the
   underscore [int_of_string "0x1_23"] used to silently accept. *)
let json_crashers =
  [
    ("json-escape-nonhex", {|{"a": "\u00g1"}|});
    ("json-escape-truncated", {|{"a": "\u12|});
    ("json-escape-underscore", {|{"a": "\u1_23"}|});
    ("json-escape-empty", {|{"a": "\u|});
    ("json-escape-negative", {|{"a": "\u-123"}|});
  ]

(* The seed that wrote [fname]: the one with the longest name that ends
   it, so a seed whose name ends another's (["draw"], ["acct-draw"])
   never takes the other's files, whatever the seed order. *)
let corpus_seed seeds fname =
  List.fold_left
    (fun best ((name, _, _) as seed) ->
      let longer =
        match best with Some (b, _, _) -> String.length name > String.length b | None -> true
      in
      if longer && String.ends_with ~suffix:(name ^ ".hex") fname then Some seed else best)
    None seeds

(* Wire encoding is compositional, so an encoded list is a substring of
   the encoded value holding it, its u32 count right after the list tag:
   overwrite that count with 0xff bytes. *)
let length_bomb bytes ~sub =
  let n = String.length bytes and m = String.length sub in
  let rec find i =
    if i + m > n then failwith "fuzz corpus: list not a substring"
    else if String.sub bytes i m = sub then i
    else find (i + 1)
  in
  let off = find 0 in
  let bomb = Bytes.of_string bytes in
  Bytes.fill bomb (off + 1) 4 '\xff';
  Bytes.to_string bomb

let save_corpus ~dir =
  let seeds, binding_negatives = build () in
  let write path contents =
    let oc = open_out path in
    output_string oc contents;
    output_string oc "\n";
    close_out oc
  in
  List.iter
    (fun (name, v, _) ->
      write (Filename.concat dir ("valid-" ^ name ^ ".hex")) (Program.to_hex (Wire.encode v)))
    seeds;
  (* A deterministic handful of mutants, so CI replays known-hostile bytes
     (truncations, length bombs) without re-running the full fuzz loop. *)
  let drbg = Crypto.Drbg.create ~seed:"mbt-fuzz-corpus" in
  List.iteri
    (fun i (name, v, _) ->
      let bytes = Wire.encode v in
      for k = 0 to 2 do
        let mutant = mutate drbg bytes in
        write
          (Filename.concat dir (Printf.sprintf "mutant-%d%d-%s.hex" i k name))
          (Program.to_hex mutant)
      done)
    seeds;
  List.iter
    (fun (name, text) ->
      write (Filename.concat dir (name ^ ".hex")) (Program.to_hex text))
    json_crashers;
  (* Explicit negatives for the signed-epoch artifacts (revocation
     bulletins, membership snapshots) beyond the random mutants: a
     mid-structure truncation, and a length bomb on the items list's u32
     count. Both must be refused without crashing or allocating per the
     claimed length — the suffix-matched typed decoder runs on them in
     replay. *)
  List.iter
    (fun name ->
      let v =
        match List.find_opt (fun (n, _, _) -> n = name) seeds with
        | Some (_, v, _) -> v
        | None -> failwith ("fuzz corpus: no seed " ^ name)
      in
      let bytes = Wire.encode v in
      write
        (Filename.concat dir ("neg-truncated-" ^ name ^ ".hex"))
        (Program.to_hex (String.sub bytes 0 (String.length bytes / 2)));
      let items =
        match v with
        | Wire.L [ _; _; _; _; (Wire.L _ as items); _ ] -> items
        | _ -> failwith ("fuzz corpus: unexpected shape for " ^ name)
      in
      write
        (Filename.concat dir ("neg-lenbomb-" ^ name ^ ".hex"))
        (Program.to_hex (length_bomb bytes ~sub:(Wire.encode items))))
    [ "rev-bulletin"; "membership-snapshot" ];
  (* Sequence-restriction negatives: a truncation, a length bomb on the
     steps list's u32 count, a duplicate-step list and an empty list.  The
     first two must be refused at the wire layer; the last two decode as
     wire values but [Restriction.of_wire] must refuse them — replay fails
     any [neg-*] entry its typed decoder accepts. *)
  let fs = Principal.make ~realm "fs" in
  let seq_bytes =
    Wire.encode (Restriction.to_wire (Restriction.Sequence (sample_seq_steps fs)))
  in
  write
    (Filename.concat dir "neg-truncated-restriction-seq.hex")
    (Program.to_hex (String.sub seq_bytes 0 (String.length seq_bytes / 2)));
  let steps_sub =
    match Restriction.to_wire (Restriction.Sequence (sample_seq_steps fs)) with
    | Wire.L [ _; (Wire.L _ as steps) ] -> Wire.encode steps
    | _ -> failwith "fuzz corpus: unexpected sequence shape"
  in
  write
    (Filename.concat dir "neg-lenbomb-restriction-seq.hex")
    (Program.to_hex (length_bomb seq_bytes ~sub:steps_sub));
  let dup = List.hd (sample_seq_steps fs) in
  write
    (Filename.concat dir "neg-dupstep-restriction-seq.hex")
    (Program.to_hex (Wire.encode (Restriction.to_wire (Restriction.Sequence [ dup; dup ]))));
  write
    (Filename.concat dir "neg-empty-restriction-seq.hex")
    (Program.to_hex (Wire.encode (Restriction.to_wire (Restriction.Sequence []))));
  (* A well-signed key-less certificate that names no grantee: nobody could
     exercise it, so [Proxy_cert.pk_cert_of_wire] must refuse it. *)
  let kp = Lazy.force Exec.pool in
  let u0 = Principal.make ~realm "u0" in
  let no_grantee =
    Proxy_cert.sign_pk ~key:kp.Exec.pk_users.(0) ~signer:Proxy_cert.By_grantor_key
      ~proxy_pub:None
      { Proxy_cert.grantor = u0; serial = "serial-1"; issued_at = 1_000_000;
        expires = 3_600_000_000; restrictions = [ Restriction.Quota ("usd", 25) ] }
  in
  write
    (Filename.concat dir "neg-keyless-no-grantee-pk-cert.hex")
    (Program.to_hex (Wire.encode (Proxy_cert.pk_cert_to_wire no_grantee)));
  (* The pk-cert seed with its proxy key spelled in other bytes: a trailing
     byte, and a modulus padded with a leading zero. The numbers and the
     signature are unchanged, but the signature covers the key's bytes as
     they arrive, so [Proxy_cert.pk_cert_of_wire] must refuse both. *)
  let pk_cert = List.find (fun (n, _, _) -> n = "pk-cert") seeds in
  let respell name f =
    match pk_cert with
    | _, Wire.L [ body; Wire.S key; signer; signature ], _ ->
        write
          (Filename.concat dir ("neg-keybytes-" ^ name ^ "-pk-cert.hex"))
          (Program.to_hex (Wire.encode (Wire.L [ body; Wire.S (f key); signer; signature ])))
    | _ -> failwith "fuzz corpus: unexpected pk-cert shape"
  in
  respell "trailing" (fun key -> key ^ "\x00");
  respell "leadzero" (fun key ->
      let nlen = Int32.to_int (String.get_int32_be key 0) in
      let be32 = Bytes.create 4 in
      Bytes.set_int32_be be32 0 (Int32.of_int (nlen + 1));
      Bytes.to_string be32 ^ "\x00" ^ String.sub key 4 (String.length key - 4));
  (* Session bindings: each well-formed, each refused by the session
     check, for the reason its name gives. *)
  List.iter
    (fun (name, v) ->
      write
        (Filename.concat dir ("neg-binding-" ^ name ^ "-presented-session.hex"))
        (Program.to_hex (Wire.encode v)))
    binding_negatives;
  List.iter
    (fun (name, v) ->
      write
        (Filename.concat dir ("neg-trailing-" ^ name ^ ".hex"))
        (Program.to_hex (Wire.encode v)))
    (trailing_negatives seeds);
  (4 * List.length seeds) + List.length json_crashers + 4 + 4 + 1 + 2
  + List.length binding_negatives + List.length (trailing_negatives seeds)

type corpus_result = { files : int; failures : (string * string) list }

let replay_corpus ~dir =
  let seeds = seeds () in
  let files = Sys.readdir dir |> Array.to_list |> List.sort compare in
  let hexes = List.filter (fun f -> Filename.check_suffix f ".hex") files in
  let failures = ref [] in
  let fail f msg = failures := (f, msg) :: !failures in
  List.iter
    (fun fname ->
      let path = Filename.concat dir fname in
      let ic = open_in path in
      let hex = String.trim (input_line ic) in
      close_in ic;
      match Program.of_hex hex with
      | Error e -> fail fname ("bad hex: " ^ e)
      | Ok bytes when String.length fname >= 5 && String.sub fname 0 5 = "json-" -> (
          (* Bench-artifact JSON: the parser must fail closed, never raise. *)
          match no_crash "json-parse" fname bytes (fun () -> Sim.Json.valid bytes) with
          | Error c -> fail fname ("json parser raised: " ^ c.c_exn)
          | Ok `Ok | Ok `Err -> ())
      | Ok bytes -> (
          let must_be_valid =
            String.length fname >= 6 && String.sub fname 0 6 = "valid-"
          in
          let must_be_refused =
            String.length fname >= 4 && String.sub fname 0 4 = "neg-"
          in
          match no_crash "wire-decode" fname bytes (fun () -> Wire.decode bytes) with
          | Error c -> fail fname ("decode raised: " ^ c.c_exn)
          | Ok `Err -> if must_be_valid then fail fname "valid corpus entry failed to decode"
          | Ok `Ok -> (
              let w = Result.get_ok (Wire.decode bytes) in
              match corpus_seed seeds fname with
              | None -> ()
              | Some (_, _, re) -> (
                  match no_crash "typed-decode" fname bytes (fun () -> re w) with
                  | Error c -> fail fname ("typed decoder raised: " ^ c.c_exn)
                  | Ok `Err ->
                      if must_be_valid then
                        fail fname "valid corpus entry refused by its typed decoder"
                  | Ok `Ok ->
                      if must_be_refused then
                        fail fname "negative corpus entry accepted by its typed decoder"))))
    hexes;
  { files = List.length hexes; failures = List.rev !failures }
