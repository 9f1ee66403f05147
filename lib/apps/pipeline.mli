(** A processing service that exercises cascaded authorization (paper
    Section 3.4, Figure 4).

    The client hands the service a capability for the file server (a full
    proxy transfer, protected by the secure channel). Acting as the
    intermediate server, the pipeline {e adds} restrictions before
    exercising it — read-only, single-use, this-file-only — so that the
    presented chain carries the least privilege the subordinate request
    needs, and the file server sees a depth-2 cascade. *)

type t

val create :
  Sim.Net.t ->
  me:Principal.t ->
  my_key:string ->
  kdc:Principal.t ->
  fileserver:Principal.t ->
  (t, string) result

val install : t -> unit

val word_count :
  Sim.Net.t ->
  creds:Ticket.credentials ->
  path:string ->
  capability:Proxy.t ->
  (int, string) result
(** Ask the service to count words in [path], delegating access with
    [capability] (which must permit reading [path] at the file server). *)
