module Map = Stdlib.Map.Make (struct
  type t = Principal.t

  let compare = Principal.compare
end)

type entry = { mutable sym : string option; mutable pub : Crypto.Rsa.public option }
type t = { mutable entries : entry Map.t }

let create () = { entries = Map.empty }

let entry t p =
  match Map.find_opt p t.entries with
  | Some e -> e
  | None ->
      let e = { sym = None; pub = None } in
      t.entries <- Map.add p e t.entries;
      e

let add_symmetric t p key = (entry t p).sym <- Some key
let symmetric t p = Option.bind (Map.find_opt p t.entries) (fun e -> e.sym)
let add_public t p pub = (entry t p).pub <- Some pub
let public t p = Option.bind (Map.find_opt p t.entries) (fun e -> e.pub)
