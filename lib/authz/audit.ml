type link = {
  position : int;
  kind : string;
  signer : Principal.t option;
  serial : string option;
  restriction_count : int option;
}

let pk_link i (c : Proxy_cert.pk_cert) =
  let kind, signer =
    match c.Proxy_cert.pk_signer with
    | Proxy_cert.By_grantor_key ->
        ("signed-by-grantor", Some c.Proxy_cert.pk_body.Proxy_cert.grantor)
    | Proxy_cert.By_proxy_key -> ("signed-by-proxy-key", None)
    | Proxy_cert.By_principal p -> ("signed-by-intermediate", Some p)
  in
  {
    position = i;
    kind;
    signer;
    serial = Some c.Proxy_cert.pk_body.Proxy_cert.serial;
    restriction_count = Some (List.length c.Proxy_cert.pk_body.Proxy_cert.restrictions);
  }

let sealed_link i =
  { position = i; kind = "sealed"; signer = None; serial = None; restriction_count = None }

let chain_of_presentation = function
  | Proxy.Conventional { base = _; cert_blobs } ->
      {
        position = 0;
        kind = "ticket-base";
        signer = None;
        serial = None;
        restriction_count = None;
      }
      :: List.mapi (fun i _ -> sealed_link (i + 1)) cert_blobs
  | Proxy.Public_key certs -> List.mapi pk_link certs
  | Proxy.Hybrid (head, blobs) ->
      {
        position = 0;
        kind = "hybrid-head";
        signer = Some head.Proxy_cert.h_body.Proxy_cert.grantor;
        serial = Some head.Proxy_cert.h_body.Proxy_cert.serial;
        restriction_count = Some (List.length head.Proxy_cert.h_body.Proxy_cert.restrictions);
      }
      :: List.mapi (fun i _ -> sealed_link (i + 1)) blobs

let identified_intermediates pres =
  List.filter_map
    (fun l -> if l.kind = "signed-by-intermediate" then l.signer else None)
    (chain_of_presentation pres)

let pp_link fmt l =
  Format.fprintf fmt "#%d %-22s%a%a%a" l.position l.kind
    (fun fmt -> function
      | Some p -> Format.fprintf fmt " by %a" Principal.pp p
      | None -> ())
    l.signer
    (fun fmt -> function
      | Some s -> Format.fprintf fmt " serial=%s" (String.sub s 0 (min 8 (String.length s)))
      | None -> ())
    l.serial
    (fun fmt -> function
      | Some n -> Format.fprintf fmt " (%d restrictions)" n
      | None -> Format.fprintf fmt " (opaque)")
    l.restriction_count

let pp_chain fmt chain =
  Format.pp_print_list ~pp_sep:Format.pp_print_newline pp_link fmt chain
