(** Signed cumulative epoch artifacts and the subscriber state that applies
    them.

    An issuer periodically publishes its {e full} state — a revocation
    list ({!Revocation}), a membership table ({!Membership}) — as a signed
    artifact with a strictly increasing epoch and an [issued_at] freshness
    anchor. The signature covers a kind-tagged encoding of everything but
    itself, so an artifact re-serialized by a relay still verifies; being
    cumulative and self-authenticating, artifacts can travel over any
    channel and arrive in any order.

    A subscriber holds the issuer's key, a staleness bound, and the epoch
    and [as_of] of the newest artifact it applied. Applying checks the
    issuer, then the signature, then that the epoch is strictly newer, and
    only then rebuilds the kind's lookup state:

    - {b bounded inconsistency}: within the staleness bound the subscriber
      answers from the last applied artifact;
    - {b fail closed beyond the bound}: once [now - as_of] exceeds it,
      {!S.gate} refuses until a fresh artifact arrives. *)

(** What distinguishes one artifact kind from another: its tag, the words
    its errors use, its item codec, and the lookup state it rebuilds. *)
module type KIND = sig
  type item

  type view
  (** Lookup state, rebuilt from each applied artifact. *)

  type report
  (** What a rebuild found new, relative to the previous view. *)

  val tag : string
  (** Wire tag and signature domain, e.g. ["revocation-bulletin"]. Read
      with spaces for dashes it is the noun in error messages, and its
      last word names the artifact in an issuer mismatch. *)

  val owner : string
  (** The module named in [invalid_arg] messages. *)

  val issuer_role : string
  (** Names the expected issuer in a mismatch error. *)

  val subscriber : string
  (** Names the subscriber in its fail-closed error. *)

  val item_to_wire : item -> Wire.t
  val item_of_wire : Wire.t -> (item, string) result
  val empty : unit -> view
  val rebuild : view -> item list -> view * report
end

module type S = sig
  type item
  type report

  type artifact = {
    issuer : Principal.t;
    epoch : int;  (** strictly increasing across publications; [>= 1] *)
    issued_at : int;  (** freshness anchor for the staleness bound *)
    items : item list;  (** the {e full} cumulative content *)
    signature : string;  (** issuer's RSA signature over the rest *)
  }

  val sign :
    key:Crypto.Rsa.private_ ->
    issuer:Principal.t ->
    epoch:int ->
    issued_at:int ->
    item list ->
    artifact

  val verify : Crypto.Rsa.public -> artifact -> (unit, string) result
  (** Signature check only; epoch ordering is {!apply}'s business. *)

  val to_wire : artifact -> Wire.t
  val of_wire : Wire.t -> (artifact, string) result

  (** {2 Subscriber state} *)

  type t

  val default_staleness_bound_us : int
  (** 30 simulated minutes. *)

  val create :
    issuer:Principal.t ->
    issuer_pub:Crypto.Rsa.public ->
    ?staleness_bound_us:int ->
    now:int ->
    unit ->
    t
  (** Fresh state at epoch 0 with [as_of = now]: a just-created subscriber
      is considered fresh for one staleness window, giving it time to
      fetch its first artifact before failing closed. *)

  type applied =
    | Applied of report  (** the epoch advanced and the view was rebuilt *)
    | Ignored  (** valid signature but epoch not newer than what is held *)

  val apply : t -> artifact -> (applied, string) result
  (** Verify issuer identity and signature, then advance if the epoch is
      strictly newer. [Error] means the artifact is not authentic (wrong
      issuer or bad signature); replays and reordered old artifacts are
      [Ok Ignored]. *)

  val issuer : t -> Principal.t
  val epoch : t -> int
  val as_of : t -> int
  val staleness_bound_us : t -> int

  val stale : t -> now:int -> bool
  (** [now - as_of > staleness_bound_us]. *)

  val gate : t -> now:int -> (unit, string) result
  (** The fail-closed gate: [Ok ()] while fresh, an error once {!stale}. *)
end

module Make (K : KIND) : sig
  include S with type item := K.item and type report := K.report

  val view : t -> K.view
end = struct
  type artifact = {
    issuer : Principal.t;
    epoch : int;
    issued_at : int;
    items : K.item list;
    signature : string;
  }

  let noun = String.map (function '-' -> ' ' | c -> c) K.tag
  let short = List.hd (List.rev (String.split_on_char '-' K.tag))

  (* The signature covers exactly these fields; keeping them apart from the
     full wire form means an artifact re-serialized by a relay still
     verifies. *)
  let signed_fields a =
    [ Wire.S K.tag; Principal.to_wire a.issuer; Wire.I a.epoch; Wire.I a.issued_at;
      Wire.L (List.map K.item_to_wire a.items) ]

  let signed_bytes a = Wire.encode (Wire.L (signed_fields a))

  let sign ~key ~issuer ~epoch ~issued_at items =
    let a = { issuer; epoch; issued_at; items; signature = "" } in
    { a with signature = Crypto.Rsa.sign key (signed_bytes a) }

  let verify pub a =
    if Crypto.Rsa.verify pub ~msg:(signed_bytes a) ~signature:a.signature then Ok ()
    else Error (noun ^ ": bad signature")

  let to_wire a = Wire.L (signed_fields a @ [ Wire.S a.signature ])

  let of_wire v =
    let open Wire in
    let* tag = Result.bind (field v 0) to_string in
    if tag <> K.tag then Error ("not a " ^ noun)
    else
      let* issuer = Result.bind (field v 1) Principal.of_wire in
      let* epoch = Result.bind (field v 2) to_int in
      let* issued_at = Result.bind (field v 3) to_int in
      let* items_w = Result.bind (field v 4) to_list in
      let* items = map_all K.item_of_wire items_w in
      let* signature = Result.bind (field v 5) to_string in
      if epoch < 1 then Error (noun ^ ": epoch must be positive")
      else Ok { issuer; epoch; issued_at; items; signature }

  type t = {
    from : Principal.t;
    from_pub : Crypto.Rsa.public;
    bound : int;
    mutable held_epoch : int;
    mutable held_as_of : int;
    mutable held_view : K.view;
  }

  let default_staleness_bound_us = 30 * 60 * 1_000_000

  let create ~issuer ~issuer_pub ?(staleness_bound_us = default_staleness_bound_us) ~now () =
    if staleness_bound_us < 1 then invalid_arg (K.owner ^ ".create: bound must be positive");
    {
      from = issuer;
      from_pub = issuer_pub;
      bound = staleness_bound_us;
      held_epoch = 0;
      held_as_of = now;
      held_view = K.empty ();
    }

  type applied = Applied of K.report | Ignored

  let apply t a =
    if not (Principal.equal a.issuer t.from) then
      Error
        (Printf.sprintf "%s from %s, expected %s %s" short (Principal.to_string a.issuer)
           K.issuer_role (Principal.to_string t.from))
    else
      match verify t.from_pub a with
      | Error _ as e -> e
      | Ok () ->
          if a.epoch <= t.held_epoch then Ok Ignored
          else begin
            (* Artifacts are cumulative: the view is rebuilt from scratch,
               and the kind reports what extends the previous one. *)
            let view, report = K.rebuild t.held_view a.items in
            t.held_view <- view;
            t.held_epoch <- a.epoch;
            t.held_as_of <- max t.held_as_of a.issued_at;
            Ok (Applied report)
          end

  let issuer t = t.from
  let epoch t = t.held_epoch
  let as_of t = t.held_as_of
  let staleness_bound_us t = t.bound
  let view t = t.held_view
  let stale t ~now = now - t.held_as_of > t.bound

  let gate t ~now =
    if stale t ~now then
      Error
        (Printf.sprintf "%s stale (as of %d, bound %dus): failing closed" K.subscriber
           t.held_as_of t.bound)
    else Ok ()
end
