type base_info = {
  base_client : Principal.t;
  base_session_key : string;
  base_expires : int;
  base_restrictions : Restriction.t list;
}

type verified = {
  grantor : Principal.t;
  restrictions : Restriction.t list;
  expires : int;
  head_expires : int;
  commitment : Presentation.commitment;
  chain_length : int;
  serials : string list;
}

let no_tally _ = ()

(* The core stays independent of the simulation layer, so span
   instrumentation arrives as an abstract wrapper: the guard passes one
   that opens a [Sim.Span] child per certificate. With none, each link
   runs bare and its span attributes are never built. *)
type span_hook = { wrap : 'a. name:string -> attrs:(string * string) list -> (unit -> 'a) -> 'a }

let short_serial s =
  let n = min 4 (String.length s) in
  let b = Buffer.create 8 in
  for i = 0 to n - 1 do
    Buffer.add_string b (Printf.sprintf "%02x" (Char.code s.[i]))
  done;
  Buffer.contents b

(* One memo rule for every kind of entry ({!Verify_cache}). Without a
   cache, [compute] runs and tallies [cost]. With one, a hit tallies
   "verify_cache.hits" and nothing else; a miss tallies
   "verify_cache.misses" plus exactly what the uncached path tallies, and
   only a success is recorded. So a tampered certificate (different bytes,
   hence a different key) misses and fails every time. The cache only
   short-circuits the RSA operation, the HMAC or the AEAD open: time
   windows, revocation and restrictions are re-checked by the callers on
   every presentation. *)
let memoized ?cache ~tally ~cost ~find ~record compute =
  match cache with
  | None ->
      tally cost;
      compute ()
  | Some c -> (
      match find c with
      | Some v ->
          tally "verify_cache.hits";
          Ok v
      | None ->
          tally "verify_cache.misses";
          tally cost;
          let r = compute () in
          Result.iter (record c) r;
          r)

(* A verdict is recorded over the bytes the signature covers and the
   signer key's own bytes. *)
let verify_signature ?cache ~tally ~now ~check ~pub ~signed_bytes ~signature verify =
  let signer = Crypto.Rsa.public_to_bytes pub in
  memoized ?cache ~tally ~cost:"crypto.rsa_verify"
    ~find:(fun c -> if check c ~signer then Some () else None)
    ~record:(fun c () -> Verify_cache.record c ~now ~signed_bytes:(signed_bytes ()) ~signature ~signer)
    verify

let open_link ?cache ~tally ~now ~sealing_key blob =
  memoized ?cache ~tally ~cost:"crypto.open"
    ~find:(fun c -> Verify_cache.find_link c ~now ~sealing_key blob)
    ~record:(fun c opened -> Verify_cache.record_link c ~now ~sealing_key blob opened)
    (fun () -> Proxy_cert.open_conventional ~sealing_key blob)

let check_window ~now (body : Proxy_cert.body) =
  if body.Proxy_cert.issued_at > now then Error "proxy-cert: issued in the future"
  else if body.Proxy_cert.expires <= now then Error "proxy-cert: expired"
  else Ok ()

(* Revocation is consulted on every presentation, cached or not: the verify
   cache only memoizes RSA results, never this check, so a bulletin takes
   effect on the very next presentation once applied. The staleness gate
   runs once per chain (fail closed — a server cut off from the bulletin
   distributor refuses all proxy-borne authority past the bound); the
   per-certificate check runs on every link of the walk. *)
let stale_gate ?revocation ~tally ~now () =
  match revocation with
  | None -> Ok ()
  | Some r ->
      if Revocation.stale r ~now then begin
        tally "revocation.stale_denials";
        Error
          (Printf.sprintf "revocation bulletin stale (as of %d): failing closed"
             (Revocation.as_of r))
      end
      else Ok ()

let check_revocation ?revocation ~tally (body : Proxy_cert.body) =
  match revocation with
  | None -> Ok ()
  | Some r -> (
      match Revocation.revoked r body with
      | Ok () -> Ok ()
      | Error _ as e ->
          tally "revocation.denials";
          e)

(* Walk conventionally sealed certificates from [start_key]: each is sealed
   under the previous proxy key (the base session key, or a hybrid head's
   recovered key) and carries the next. Links are numbered from
   [first_idx], and [check_head] vets the first body. Link 0, when walked,
   is the chain's head, and its expiry replaces [head_expires]. *)
let walk_links ?cache ~tally ?revocation ?hook ~now ~flavor ~first_idx
    ?(check_head = fun _ -> Ok ()) ~start_key ~acc ~serials ~head_expires ~expires blobs =
  let open Wire in
  let rec go key acc serials head_expires expires idx = function
    | [] -> Ok (key, acc, List.rev serials, head_expires, expires)
    | blob :: rest ->
        let link () =
          let* body, proxy_key = open_link ?cache ~tally ~now ~sealing_key:key blob in
          let* () = check_window ~now body in
          let* () = check_revocation ?revocation ~tally body in
          let* () = if idx = first_idx then check_head body else Ok () in
          Ok (body, proxy_key)
        in
        let* body, proxy_key =
          match hook with
          | None -> link ()
          | Some h ->
              h.wrap ~name:"verify.cert"
                ~attrs:[ ("flavor", flavor); ("index", string_of_int idx) ]
                link
        in
        go proxy_key
          (acc @ body.Proxy_cert.restrictions)
          (body.Proxy_cert.serial :: serials)
          (if idx = 0 then body.Proxy_cert.expires else head_expires)
          (min expires body.Proxy_cert.expires)
          (idx + 1) rest
  in
  go start_key acc (List.rev serials) head_expires expires first_idx blobs

let verify_conventional ~open_base ?(tally = no_tally) ?cache ?revocation ?hook ~now
    (chain : Proxy.conventional_chain) =
  let open Wire in
  let* () = stale_gate ?revocation ~tally ~now () in
  let* base = open_base chain.Proxy.base in
  if base.base_expires <= now then Error "base credentials expired"
  else if chain.Proxy.cert_blobs = [] then
    Error "a bare ticket is not a proxy: no certificates presented"
  else
    let check_head (body : Proxy_cert.body) =
      if Principal.equal body.Proxy_cert.grantor base.base_client then Ok ()
      else Error "head certificate grantor does not match base credentials"
    in
    let* key, restrictions, serials, head_expires, expires =
      walk_links ?cache ~tally ?revocation ?hook ~now ~flavor:"conventional" ~first_idx:0
        ~check_head ~start_key:base.base_session_key ~acc:base.base_restrictions ~serials:[]
        ~head_expires:base.base_expires ~expires:base.base_expires chain.Proxy.cert_blobs
    in
    Ok
      {
        grantor = base.base_client;
        restrictions;
        expires;
        head_expires;
        commitment = Presentation.Sym_commit key;
        chain_length = List.length chain.Proxy.cert_blobs;
        serials;
      }

let verify_pk ~lookup ?(tally = no_tally) ?cache ?revocation ?hook ~now certs =
  let open Wire in
  let* () = stale_gate ?revocation ~tally ~now () in
  match certs with
  | [] -> Error "empty certificate chain"
  | head :: _ ->
      let signer_key ~prev (cert : Proxy_cert.pk_cert) =
        match (cert.Proxy_cert.pk_signer, prev) with
        | Proxy_cert.By_grantor_key, None -> (
            match lookup cert.Proxy_cert.pk_body.Proxy_cert.grantor with
            | Some pub -> Ok pub
            | None ->
                Error
                  (Printf.sprintf "no public key known for grantor %s"
                     (Principal.to_string cert.Proxy_cert.pk_body.Proxy_cert.grantor)))
        | Proxy_cert.By_grantor_key, Some _ ->
            Error "only the head certificate may be signed by the grantor key"
        | Proxy_cert.By_proxy_key, Some (prev_cert : Proxy_cert.pk_cert) -> (
            match prev_cert.Proxy_cert.proxy_pub with
            | Some pub -> Ok pub
            | None -> Error "proxy-key signature after a key-less certificate")
        | Proxy_cert.By_proxy_key, None ->
            Error "head certificate cannot be signed by a proxy key"
        | Proxy_cert.By_principal p, Some prev_cert -> (
            (* Delegate cascade: the signing intermediate must be a named
               grantee of the previous certificate. *)
            match Proxy.classify prev_cert.Proxy_cert.pk_body.Proxy_cert.restrictions with
            | `Bearer ->
                Error "delegate cascade on a bearer certificate (no grantees named)"
            | `Delegate grantees ->
                if not (List.exists (Principal.equal p) grantees) then
                  Error
                    (Printf.sprintf "%s is not a named grantee of the preceding certificate"
                       (Principal.to_string p))
                else (
                  match lookup p with
                  | Some pub -> Ok pub
                  | None ->
                      Error
                        (Printf.sprintf "no public key known for intermediate %s"
                           (Principal.to_string p))))
        | Proxy_cert.By_principal _, None ->
            Error "head certificate must be signed by the grantor key"
      in
      (* [pending_grantees] holds the previous certificate's Grantee
         restrictions: a delegate-cascade signature by a named grantee
         discharges them (the delegation is the exercise); any other
         continuation re-imposes them on the final presenters. *)
      let is_grantee = function Restriction.Grantee _ -> true | _ -> false in
      let rec walk prev acc_restrictions pending_grantees acc_serials expires idx = function
        | [] ->
            let last = Option.get prev in
            Ok
              {
                grantor = head.Proxy_cert.pk_body.Proxy_cert.grantor;
                restrictions = acc_restrictions @ pending_grantees;
                expires;
                head_expires = head.Proxy_cert.pk_body.Proxy_cert.expires;
                commitment =
                  (match last.Proxy_cert.proxy_pub with
                  | Some pub -> Presentation.Pk_commit pub
                  | None -> Presentation.No_commit);
                chain_length = List.length certs;
                serials = List.rev acc_serials;
              }
        | (cert : Proxy_cert.pk_cert) :: rest ->
            (* One span per certificate: the signer-key lookup (which may go
               to the resolver, nesting its span underneath), the signature
               check (RSA or cache hit), and the window check — so the span's
               costs say exactly what this link of the cascade charged. *)
            let link () =
              let* () = Proxy_cert.keyless_names_grantee cert in
              let* pub = signer_key ~prev cert in
              let* () =
                verify_signature ?cache ~tally ~now ~pub
                  ~check:(fun c ~signer -> Verify_cache.check_cert c ~now ~signer cert)
                  ~signed_bytes:(fun () -> Proxy_cert.pk_signed_bytes cert)
                  ~signature:cert.Proxy_cert.signature
                  (fun () -> Proxy_cert.verify_pk_signature pub cert)
              in
              let* () = check_window ~now cert.Proxy_cert.pk_body in
              check_revocation ?revocation ~tally cert.Proxy_cert.pk_body
            in
            let* () =
              match hook with
              | None -> link ()
              | Some h ->
                  h.wrap ~name:"verify.cert"
                    ~attrs:
                      [
                        ("flavor", "pk");
                        ("index", string_of_int idx);
                        ("serial", short_serial cert.Proxy_cert.pk_body.Proxy_cert.serial);
                      ]
                    link
            in
            let discharged =
              match cert.Proxy_cert.pk_signer with
              | Proxy_cert.By_principal _ -> []
              | Proxy_cert.By_grantor_key | Proxy_cert.By_proxy_key -> pending_grantees
            in
            let grantee_rs, other_rs =
              List.partition is_grantee cert.Proxy_cert.pk_body.Proxy_cert.restrictions
            in
            walk (Some cert)
              (acc_restrictions @ discharged @ other_rs)
              grantee_rs
              (cert.Proxy_cert.pk_body.Proxy_cert.serial :: acc_serials)
              (min expires cert.Proxy_cert.pk_body.Proxy_cert.expires)
              (idx + 1) rest
      in
      walk None [] [] [] max_int 0 certs

let verify_hybrid ~lookup ~decrypt ?me ?(tally = no_tally) ?cache ?revocation
    ?hook ~now ((head, blobs) : Proxy_cert.hybrid_cert * string list) =
  let open Wire in
  let grantor = head.Proxy_cert.h_body.Proxy_cert.grantor in
  let* () = stale_gate ?revocation ~tally ~now () in
  let* () =
    match me with
    | Some me when not (Principal.equal me head.Proxy_cert.h_end_server) ->
        Error
          (Printf.sprintf "hybrid proxy is for %s, not this server"
             (Principal.to_string head.Proxy_cert.h_end_server))
    | Some _ | None -> Ok ()
  in
  let* grantor_pub =
    match lookup grantor with
    | Some pub -> Ok pub
    | None ->
        Error (Printf.sprintf "no public key known for grantor %s" (Principal.to_string grantor))
  in
  let open_head () =
    let signed_bytes = Proxy_cert.hybrid_signed_bytes head
    and signature = head.Proxy_cert.h_signature in
    let* () =
      verify_signature ?cache ~tally ~now ~pub:grantor_pub
        ~check:(fun c ~signer -> Verify_cache.check c ~now ~signed_bytes ~signature ~signer)
        ~signed_bytes:(fun () -> signed_bytes)
        ~signature
        (fun () -> Proxy_cert.verify_hybrid_signature grantor_pub head)
    in
    let* () = check_window ~now head.Proxy_cert.h_body in
    let* () = check_revocation ?revocation ~tally head.Proxy_cert.h_body in
    tally "crypto.rsa_decrypt";
    Proxy_cert.open_hybrid_key ~decrypt head
  in
  let* head_key =
    match hook with
    | None -> open_head ()
    | Some h ->
        h.wrap ~name:"verify.cert"
          ~attrs:
            [
              ("flavor", "hybrid-head");
              ("index", "0");
              ("serial", short_serial head.Proxy_cert.h_body.Proxy_cert.serial);
            ]
          open_head
  in
  let* final_key, restrictions, serials, head_expires, expires =
    walk_links ?cache ~tally ?revocation ?hook ~now ~flavor:"hybrid-cascade" ~first_idx:1
      ~start_key:head_key
      ~acc:head.Proxy_cert.h_body.Proxy_cert.restrictions
      ~serials:[ head.Proxy_cert.h_body.Proxy_cert.serial ]
      ~head_expires:head.Proxy_cert.h_body.Proxy_cert.expires
      ~expires:head.Proxy_cert.h_body.Proxy_cert.expires blobs
  in
  Ok
    {
      grantor;
      restrictions;
      expires;
      head_expires;
      commitment = Presentation.Sym_commit final_key;
      chain_length = 1 + List.length blobs;
      serials;
    }

let no_decrypt _ = None

let verify ~open_base ~lookup ?(decrypt = no_decrypt) ?me ?tally ?cache ?revocation ?hook
    ~now = function
  | Proxy.Conventional chain ->
      verify_conventional ~open_base ?tally ?cache ?revocation ?hook ~now chain
  | Proxy.Public_key certs -> verify_pk ~lookup ?tally ?cache ?revocation ?hook ~now certs
  | Proxy.Hybrid (head, blobs) ->
      verify_hybrid ~lookup ~decrypt ?me ?tally ?cache ?revocation ?hook ~now (head, blobs)

(* A binding's verdict is memoized like a certificate's: after the first
   request over a ticket, every later one costs one cache lookup. *)
let check_binding ?cache ~tally ~now commitment ~server ~ticket binding =
  let signed_bytes = Presentation.signed_bytes ~server ~ticket in
  let memo ~cost ~key verify =
    memoized ?cache ~tally ~cost
      ~find:(fun c ->
        if Verify_cache.check_binding c ~now ~signed_bytes ~binding ~key then Some () else None)
      ~record:(fun c () -> Verify_cache.record_binding c ~now ~signed_bytes ~binding ~key)
      (fun () -> if verify () then Ok () else Error "session binding: invalid")
  in
  match commitment with
  | Presentation.No_commit -> Error "session binding: a key-less proxy has no proxy key"
  | Presentation.Pk_commit pub ->
      memo ~cost:"crypto.rsa_verify" ~key:(Crypto.Rsa.public_to_bytes pub) (fun () ->
          Crypto.Rsa.verify pub ~msg:signed_bytes ~signature:binding)
  | Presentation.Sym_commit k ->
      memo ~cost:"crypto.mac" ~key:k (fun () ->
          Crypto.Hmac.verify ~key:k ~msg:signed_bytes ~tag:binding)

let authorize ?(tally = no_tally) ?cache ~held verified ~req ~ticket ~binding =
  let open Wire in
  let* () =
    if verified.expires <= req.Restriction.time then Error "proxy expired" else Ok ()
  in
  let* records = Restriction.check_all ~held verified.restrictions req in
  match Proxy.classify verified.restrictions with
  | `Delegate _ ->
      (* Identity-based: the Grantee restriction already validated the
         presenters; a binding is welcome but not checked. *)
      Ok records
  | `Bearer -> (
      match (binding, ticket) with
      | None, _ -> Error "bearer proxy requires proof of possession"
      | Some _, None -> Error "session binding: the request rode no ticket"
      | Some b, Some ticket -> (
          match
            check_binding ?cache ~tally ~now:req.Restriction.time verified.commitment
              ~server:req.Restriction.server ~ticket b
          with
          | Ok () -> Ok records
          | Error _ as e -> e))

(* Cross-realm public-key resolution: route each principal's lookup to its
   home realm's directory. Federation never merges key directories — realm
   B verifies a chain whose grantor lives in realm A with A's published
   keys, resolved across the boundary — so an unknown realm answers None
   (the chain walk then fails closed on the unresolvable grantor). *)
let lookup_by_realm routes p =
  match List.assoc_opt p.Principal.realm routes with
  | None -> None
  | Some lookup -> lookup p
