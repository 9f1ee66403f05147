(** Audit: structural inspection of delegation chains.

    Section 3.4's delegate-proxy design "leaves an audit trail since the new
    proxy identifies the intermediate server". This module renders that
    trail from a presentation without any keys: who signed each link, which
    serials are involved, and how many restrictions each link added.
    Conventionally-sealed links are opaque by design (their contents are
    confidential to the end-server), and are reported as such. *)

type link = {
  position : int;  (** 0 = head *)
  kind : string;  (** "ticket-base", "sealed", "signed-by-grantor", ... *)
  signer : Principal.t option;
      (** the identified intermediate, when the link names one *)
  serial : string option;
  restriction_count : int option;  (** None when the link is opaque *)
}

val chain_of_presentation : Proxy.presentation -> link list

val identified_intermediates : Proxy.presentation -> Principal.t list
(** Every intermediate the chain identifies — the audit trail proper.
    Bearer cascades contribute nothing here, which is exactly the paper's
    contrast between the two cascade styles. *)

val pp_chain : Format.formatter -> link list -> unit
