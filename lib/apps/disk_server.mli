(** A disk server with accounting-backed block quotas.

    The paper's resource-specific currencies in action: a user's quota is a
    balance of "blocks" in its account. The user attaches a standing debit
    authority (a restricted delegate proxy) to the disk server; each write
    draws blocks into the server's escrow account, each delete releases
    them. The disk server never sees the user's other funds — the authority
    is limited to the blocks currency, the user's account, and this server's
    accounting server. *)

type t

val create :
  Sim.Net.t ->
  me:Principal.t ->
  my_key:string ->
  kdc:Principal.t ->
  bank:Principal.t ->
  escrow_account:string ->
  (t, string) result
(** [escrow_account] at [bank] must exist and be owned by [me]; blocks
    drawn from users accumulate there. A block is 512 bytes. *)

val install : t -> unit
val blocks_currency : string

(** {2 Client operations} *)

val attach :
  Sim.Net.t -> creds:Ticket.credentials -> authority:Standing.t -> (unit, string) result
(** Register a standing authority; subsequent writes by the caller are
    charged against it. The authority must name this disk server as
    holder. *)

val write_file :
  Sim.Net.t -> creds:Ticket.credentials -> path:string -> string -> (int, string) result
(** Store a file; returns the blocks charged. Fails (storing nothing) when
    the quota is exhausted. Overwrites release the old blocks first. *)

val read_file : Sim.Net.t -> creds:Ticket.credentials -> path:string -> (string, string) result
(** Owners read their own files. *)

val delete_file : Sim.Net.t -> creds:Ticket.credentials -> path:string -> (int, string) result
(** Remove a file; returns the blocks released back to the owner. *)

val usage : Sim.Net.t -> creds:Ticket.credentials -> (int, string) result
(** Blocks currently charged to the caller. *)
