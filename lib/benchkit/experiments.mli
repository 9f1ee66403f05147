(** The experiment harness: one experiment per figure/claim of the paper.

    Each experiment returns its rows; see DESIGN.md section 4 for the id →
    figure mapping and EXPERIMENTS.md for paper-vs-measured. *)

val all : (string * string * (unit -> Benchout.row list)) list
(** (id, title, rows) for every experiment. *)

val run : string list -> unit
(** Run the named experiments ([[]] = all); {!Benchout.emit} prints each
    one's tables and writes its artifact. *)
