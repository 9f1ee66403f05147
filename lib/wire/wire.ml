(* Tags: 0x01 int (8-byte big-endian two's complement), 0x02 bytes
   (u32 length + data), 0x03 list (u32 count + encoded items). Lengths are
   bounded during decode so a hostile 4-byte length cannot trigger a huge
   allocation. *)

type t = I of int | S of string | L of t list

(* Encoding sizes the value, then writes one buffer of that size, each
   length before its content (DER's definite-length form, X.690 §8.1.3). *)
let rec size = function
  | I _ -> 9
  | S s -> 5 + String.length s
  | L items -> List.fold_left (fun n v -> n + size v) 5 items

(* Write [v] at [pos]; the offset just past it. *)
let rec write b pos v =
  match v with
  | I n ->
      Bytes.set b pos '\x01';
      Bytes.set_int64_be b (pos + 1) (Int64.of_int n);
      pos + 9
  | S s ->
      let n = String.length s in
      Bytes.set b pos '\x02';
      Bytes.set_int32_be b (pos + 1) (Int32.of_int n);
      Bytes.blit_string s 0 b (pos + 5) n;
      pos + 5 + n
  | L items ->
      Bytes.set b pos '\x03';
      Bytes.set_int32_be b (pos + 1) (Int32.of_int (List.length items));
      write_all b (pos + 5) items

and write_all b pos = function [] -> pos | v :: rest -> write_all b (write b pos v) rest

let encode v =
  let b = Bytes.create (size v) in
  ignore (write b 0 v);
  Bytes.unsafe_to_string b

exception Bad of string

(* Decoding recurses on list nesting, so a hostile message nested thousands
   of lists deep would otherwise exhaust the stack of whatever server parses
   it. No legitimate structure in this system nests more than ~15 levels. *)
let max_depth = 64

let decode s =
  let len = String.length s in
  let pos = ref 0 in
  (* The offset of the next [n] bytes, which the input must hold. *)
  let take n =
    let p = !pos in
    if n > len - p then raise (Bad "truncated");
    pos := p + n;
    p
  in
  let u32 () = Int32.to_int (String.get_int32_be s (take 4)) land 0xffffffff in
  let rec value depth =
    if depth > max_depth then raise (Bad "nesting too deep");
    match s.[take 1] with
    | '\x01' -> I (Int64.to_int (String.get_int64_be s (take 8)))
    | '\x02' ->
        let n = u32 () in
        if n > len - !pos then raise (Bad "string length exceeds input");
        S (String.sub s (take n) n)
    | '\x03' ->
        let n = u32 () in
        if n > len - !pos then raise (Bad "list count exceeds input");
        let rec items k acc =
          if k = 0 then List.rev acc else items (k - 1) (value (depth + 1) :: acc)
        in
        L (items n [])
    | t -> raise (Bad (Printf.sprintf "unknown tag 0x%02x" (Char.code t)))
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

let ( let* ) = Result.bind

let map_all f items =
  List.fold_left
    (fun acc w ->
      let* acc = acc in
      let* x = f w in
      Ok (x :: acc))
    (Ok []) items
  |> Result.map List.rev
