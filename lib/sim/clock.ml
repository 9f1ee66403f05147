type t = { mutable now : int }

let create () = { now = 0 }
let now t = t.now

let advance t us =
  if us < 0 then invalid_arg "Clock.advance: negative step";
  t.now <- t.now + us
