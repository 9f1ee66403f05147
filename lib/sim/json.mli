(** The JSON subset this repository emits — bench artifacts and span
    exports: objects, arrays, strings, numbers, null. *)

type t = Obj of (string * t) list | Arr of t list | Str of string | Num of float | Null

val parse : string -> (t, string) result
(** [Error] names the first malformed byte; never raises. *)

val valid : string -> (unit, string) result
(** Syntax check only: {!parse} with the value dropped. *)
