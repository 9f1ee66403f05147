(** A print server that charges for pages through the accounting service —
    the paper's motivating "printer pages" currency (Section 4).

    Payment arrives as a check. Two modes, exactly the paper's two transfer
    mechanisms:

    - ordinary check: the server prints first, then endorses and deposits;
      a bounced check is the out-of-band problem the paper acknowledges
      (reported as an error, job traced as unpaid);
    - certified check: the client attaches the certification proxy, as
      its presentation (a certification is key-less); the server verifies
      the guarantee {e offline} before committing the pages. *)

type t

val create :
  Sim.Net.t ->
  me:Principal.t ->
  my_key:string ->
  kdc:Principal.t ->
  bank:Principal.t ->
  account:string ->
  signing_key:Crypto.Rsa.private_ ->
  lookup:(Principal.t -> Crypto.Rsa.public option) ->
  (t, string) result
(** [account] must already exist at [bank] and be owned by [me]. A page
    is 1000 bytes and costs 2 usd. *)

val install : t -> unit
val pages_printed : t -> int

val price :
  Sim.Net.t -> creds:Ticket.credentials -> content_length:int -> (int, string) result
(** Ask the server what a job costs. *)

val print :
  Sim.Net.t ->
  creds:Ticket.credentials ->
  document:string ->
  content:string ->
  check:Check.t ->
  ?certification:Proxy.t ->
  unit ->
  (int, string) result
(** Submit a job with payment; returns pages printed. *)
