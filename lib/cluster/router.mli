(** Client-side shard router.

    Resolves account names to shards through the {!Ring}, holds per-shard
    credentials, and orders each shard's physical replicas for the
    transport: primary first, standby as fallback, sticky standby-first
    after an observed failover. Every operation opens a ["cluster.route"]
    span tagged with the account and owning shard. *)

type endpoint = {
  ep_logical : Principal.t;  (** the shard's logical service identity *)
  ep_primary : string;  (** primary replica's network node *)
  ep_standby : string;  (** standby replica's network node *)
}

val mesh : (string * Shard.t) list -> ((string * endpoint) list, string) result
(** The clearing mesh of a cluster's installed shards, keyed by shard id:
    for every ordered pair of distinct shards, route the drawer's
    clearing to the drawee through both of its replicas and warm that
    route's credentials on both of the drawer's replicas, pair by pair in
    list order; then list every shard's endpoint, in list order. The
    first warm-up that fails is the error. *)

type t

val create :
  Sim.Net.t ->
  ring:Ring.t ->
  endpoints:(string * endpoint) list ->
  creds_for:(Principal.t -> (Ticket.credentials, string) result) ->
  ?retry:Sim.Retry.policy ->
  unit ->
  t
(** One router per client. [creds_for] obtains that client's credentials
    for a shard's logical identity (cached per shard thereafter). [retry]
    is the {!Secure_rpc.call} policy of every routed operation (none: one
    attempt per replica). *)

val shard_of : t -> string -> string
(** Owning shard id for an account name. *)

val open_account : t -> name:string -> (unit, string) result
val balance : t -> name:string -> currency:string -> (int * int, string) result

val transfer :
  t -> from_:string -> to_:string -> currency:string -> amount:int ->
  (unit, string) result
(** Both accounts must live on the same shard; cross-shard movement
    travels by check ([Error] otherwise). *)

val deposit :
  t ->
  endorser_key:Crypto.Rsa.private_ ->
  check:Check.t ->
  to_account:string ->
  (int, string) result
