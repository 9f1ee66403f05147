(* Tags: 0x01 int (8-byte big-endian two's complement), 0x02 bytes
   (u32 length + data), 0x03 list (u32 count + encoded items). Lengths are
   bounded during decode so a hostile 4-byte length cannot trigger a huge
   allocation. *)

type t = I of int | S of string | L of t list

let rec encode_into buf v =
  match v with
  | I n ->
      Buffer.add_char buf '\x01';
      for i = 7 downto 0 do
        Buffer.add_char buf (Char.chr ((n asr (8 * i)) land 0xff))
      done
  | S s ->
      Buffer.add_char buf '\x02';
      add_u32 buf (String.length s);
      Buffer.add_string buf s
  | L items ->
      Buffer.add_char buf '\x03';
      add_u32 buf (List.length items);
      List.iter (encode_into buf) items

and add_u32 buf n =
  for i = 3 downto 0 do
    Buffer.add_char buf (Char.chr ((n lsr (8 * i)) land 0xff))
  done

let encode v =
  let buf = Buffer.create 64 in
  encode_into buf v;
  Buffer.contents buf

exception Bad of string

(* Decoding recurses on list nesting, so a hostile message nested thousands
   of lists deep would otherwise exhaust the stack of whatever server parses
   it. No legitimate structure in this system nests more than ~15 levels. *)
let max_depth = 64

let decode s =
  let len = String.length s in
  let pos = ref 0 in
  let byte () =
    if !pos >= len then raise (Bad "truncated");
    let c = Char.code s.[!pos] in
    incr pos;
    c
  in
  let u32 () =
    let a = byte () in
    let b = byte () in
    let c = byte () in
    let d = byte () in
    (a lsl 24) lor (b lsl 16) lor (c lsl 8) lor d
  in
  let rec value depth =
    if depth > max_depth then raise (Bad "nesting too deep");
    match byte () with
    | 0x01 ->
        (* Sign-extend the leading byte, then accumulate the remaining 7. *)
        let b0 = byte () in
        let n = ref (if b0 >= 0x80 then b0 - 256 else b0) in
        for _ = 1 to 7 do
          n := (!n lsl 8) lor byte ()
        done;
        I !n
    | 0x02 ->
        let n = u32 () in
        if n > len - !pos then raise (Bad "string length exceeds input");
        let str = String.sub s !pos n in
        pos := !pos + n;
        S str
    | 0x03 ->
        let n = u32 () in
        if n > len - !pos then raise (Bad "list count exceeds input");
        let rec items k acc =
          if k = 0 then List.rev acc else items (k - 1) (value (depth + 1) :: acc)
        in
        L (items n [])
    | t -> raise (Bad (Printf.sprintf "unknown tag 0x%02x" t))
  in
  match value 0 with
  | v -> if !pos = len then Ok v else Error "trailing bytes"
  | exception Bad msg -> Error msg

let rec equal a b =
  match (a, b) with
  | I x, I y -> x = y
  | S x, S y -> String.equal x y
  | L x, L y -> List.length x = List.length y && List.for_all2 equal x y
  | (I _ | S _ | L _), _ -> false

let rec pp fmt = function
  | I n -> Format.fprintf fmt "%d" n
  | S s ->
      if String.for_all (fun c -> c >= ' ' && c < '\x7f') s && String.length s <= 32 then
        Format.fprintf fmt "%S" s
      else Format.fprintf fmt "<%d bytes>" (String.length s)
  | L items ->
      Format.fprintf fmt "[@[<hov>%a@]]"
        (Format.pp_print_list ~pp_sep:(fun f () -> Format.fprintf f ";@ ") pp)
        items

let to_int = function I n -> Ok n | S _ | L _ -> Error "expected int"
let to_string = function S s -> Ok s | I _ | L _ -> Error "expected bytes"
let to_list = function L l -> Ok l | I _ | S _ -> Error "expected list"

let field v i =
  match v with
  | L l -> ( match List.nth_opt l i with Some x -> Ok x | None -> Error "missing field")
  | I _ | S _ -> Error "expected list"

let ( let* ) = Result.bind

let map_all f items =
  List.fold_left
    (fun acc w ->
      let* acc = acc in
      let* x = f w in
      Ok (x :: acc))
    (Ok []) items
  |> Result.map List.rev
