(** Ledger conservation checking (Section 4).

    Checks and transfers move value; they never create or destroy it. For
    any set of cooperating accounting servers, the sum of available + held
    balances per currency is therefore constant across any run — including
    a chaos run where messages are dropped, duplicated, and retried. A
    violation means a partial transfer survived a failure: money debited
    but never credited (vanished) or credited twice (minted by a replay).

    Capture a snapshot before the run, [check] after; only {!Ledger.mint}
    legitimately changes the totals. *)

type snapshot

val capture : Ledger.t list -> snapshot
(** Per-currency grand totals (available + held) across all the ledgers. *)

val check : snapshot -> Ledger.t list -> (unit, string) result
(** Recompute the totals over the union of currencies (captured plus any
    that have appeared since) and compare. [Error] names every currency
    whose total drifted, with the delta. *)
