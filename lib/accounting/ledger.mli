(** Accounts and balances (paper Section 4).

    "At a minimum, each account contains a unique name, an
    access-control-list, and a collection of records, each record specifying
    a currency and a balance." The ACL half lives in the accounting server's
    guard; the ledger holds the records. Multiple currencies are first-class
    — monetary or resource-specific (disk blocks, CPU cycles, printer
    pages).

    Holds implement certified checks and quotas: funds move from the
    available balance into a named hold, so the sum available+held is what
    conservation tests check. *)

type t

(** The primitive ledger mutations, as data. Every successful state change
    is journalled as a sequence of these (compound operations decompose into
    their primitive steps), so shipping the journal to a replica and
    {!apply}ing it in order reconstructs the exact balances and holds —
    the replication substrate for sharded accounting clusters. *)
type op =
  | Op_open of Principal.t * string  (** owner, account name *)
  | Op_credit of string * string * int  (** name, currency, amount *)
  | Op_debit of string * string * int
  | Op_hold_put of string * string * string * int
      (** name, hold id, currency, amount — installs the hold record only;
          the funds movement is a separately journalled [Op_debit] *)
  | Op_take of string * string  (** name, hold id *)

val create : unit -> t

val set_journal : t -> (op -> unit) option -> unit
(** Install (or clear) the journal hook: called once per primitive
    mutation, after it has been applied. *)

val apply : t -> op -> (unit, string) result
(** Replay one journalled operation (replica side). *)

val open_account : t -> owner:Principal.t -> name:string -> (unit, string) result
val owner : t -> name:string -> Principal.t option
val accounts : t -> string list

val balance : t -> name:string -> currency:string -> int
(** Available balance; 0 for unknown account or currency. *)

val held : t -> name:string -> currency:string -> int
(** Sum of live holds; saturates at [max_int] rather than wrapping. *)

val mint : t -> name:string -> currency:string -> int -> (unit, string) result
(** Create funds from nothing (bootstrap / resource provisioning). *)

val credit : t -> name:string -> currency:string -> int -> (unit, string) result
(** Checked: a credit that would overflow the native-int balance is refused
    with [Error "balance overflow"] and the balance is unchanged. *)

val debit : t -> name:string -> currency:string -> int -> (unit, string) result
(** Fails on insufficient available funds — overdrafts are refused, the
    paper's "checks returned for insufficient resources". *)

val transfer :
  t -> from_:string -> to_:string -> currency:string -> int -> (unit, string) result

val hold :
  t -> name:string -> id:string -> currency:string -> int -> (unit, string) result
(** Move funds from available into a hold named [id] (certified check). *)

val take_hold : t -> name:string -> id:string -> (string * int, string) result
(** Consume a hold entirely (the certified check cleared); returns its
    currency and amount. *)

val find_hold : t -> name:string -> id:string -> (string * int) option

val currencies : t -> string list
(** Every currency with a balance or hold anywhere in the ledger, sorted. *)

val total : t -> currency:string -> int
(** available + held across all accounts: the conserved quantity. Saturates
    at [max_int] rather than wrapping. *)
