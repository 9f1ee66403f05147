(* Prints a Montgomery multiply and squaring for exactly n limbs of w
   bits, n and w given as the two arguments: mont9.ml (9 limbs of 29
   bits, the limbs of a 233- to 259-bit modulus) and mont19.ml (19 limbs
   of 28 bits, 505 to 530 bits). Each is straight-line code over limbs
   held in unboxed [Int64] locals. Column k of the product adds the limb
   products [column] lists, exactly those of [Nat.mont_mul]'s and
   [Nat.mont_sqr]'s column k, so their headroom argument holds unchanged
   (a column sum stays below 2^63). Only the order of the adds differs:
   a column first sums, as a balanced tree, the products that are ready
   before the previous column ends; then it adds q_(k-1)*m_1, the one
   product that waits on the previous column's quotient limb; and then
   that column's carry. Only those last two adds wait on the previous
   column, where a sum begun from the carry would put every add of the
   kernel in one chain. Every term is non-negative, so each partial sum
   stays at or below its column's total. Neither function takes the
   final conditional subtraction (see [Nat.mont_pow]). *)

let n = int_of_string Sys.argv.(1)
let w = int_of_string Sys.argv.(2)
let v c i = Printf.sprintf "%c%d" c i

(* Column k's limb products, as pairs of local names: the multiply's
   x_j*y_(k-j) and q_j*m_(k-j), or the squaring's pairs i < k-i, whose
   x_i*x_(k-i) are summed in [twice] and doubled, with the square
   x_(k/2)^2 of an even column once. q_k*m_0 is never listed: below
   column n it is added once q_k is fixed, above it q_k does not exist. *)
let column ~square k =
  let lo = max 0 (k - n + 1) and hi = min k (n - 1) in
  let range a b = List.init (max 0 (b - a + 1)) (fun i -> a + i) in
  let qm j = if j = k then [] else [ (v 'q' j, v 'm' (k - j)) ] in
  if not square then
    ([], List.concat_map (fun j -> (v 'x' j, v 'y' (k - j)) :: qm j) (range lo hi))
  else
    let pairs = range lo (((k + 1) / 2) - 1) in
    let half = if k land 1 = 0 then (v 'x' (k / 2), v 'x' (k / 2)) :: qm (k / 2) else [] in
    ( List.map (fun i -> (v 'x' i, v 'x' (k - i))) pairs,
      List.concat_map (fun i -> qm i @ qm (k - i)) pairs @ half )

let products = List.map (fun (a, b) -> Printf.sprintf "(mul %s %s)" a b)

let rec tree = function
  | [] -> invalid_arg "tree"
  | [ t ] -> t
  | ts ->
      let h = List.length ts / 2 in
      let l = List.filteri (fun i _ -> i < h) ts and r = List.filteri (fun i _ -> i >= h) ts in
      Printf.sprintf "(add %s %s)" (tree l) (tree r)

let kernel ~square =
  let name, operands = if square then ("sqr", [ 'x' ]) else ("mul", [ 'x'; 'y' ]) in
  let args = String.concat " " (List.map (String.make 1) operands) in
  Printf.printf "\nlet %s ~neg_inv m %s dst =\n" name args;
  Printf.printf "  if Array.length m <> %d || Array.length dst <> %d%s then\n" n n
    (String.concat "" (List.map (fun c -> Printf.sprintf " || Array.length %c <> %d" c n) operands));
  print_string "    invalid_arg \"Nat.mod_pow: Montgomery operand width\";\n";
  Printf.printf "  let open Int64 in\n  let mask = 0x%xL and neg_inv = of_int neg_inv in\n"
    ((1 lsl w) - 1);
  List.iter
    (fun c ->
      for i = 0 to n - 1 do
        Printf.printf "  let %c%d = of_int (Array.unsafe_get %c %d) in\n" c i c i
      done)
    (operands @ [ 'm' ]);
  for k = 0 to (2 * n) - 2 do
    let twice, once = column ~square k in
    let late, ready = List.partition (fun (q, _) -> q = v 'q' (k - 1)) once in
    let ready =
      (if twice = [] then [] else [ Printf.sprintf "(shift_left %s 1)" (tree (products twice)) ])
      @ products ready
    in
    let s = List.fold_left (Printf.sprintf "(add %s %s)") (tree ready) (products late) in
    Printf.printf "  let s = %s in\n" (if k = 0 then s else Printf.sprintf "(add %s c)" s);
    if k < n then begin
      Printf.printf "  let q%d = logand (mul s neg_inv) mask in\n" k;
      Printf.printf "  let c = shift_right_logical (add s (mul q%d m0)) %d in\n" k w
    end
    else begin
      Printf.printf "  Array.unsafe_set dst %d (to_int (logand s mask));\n" (k - n);
      if k < (2 * n) - 2 then Printf.printf "  let c = shift_right_logical s %d in\n" w
      else Printf.printf "  Array.unsafe_set dst %d (to_int (shift_right_logical s %d))\n" (n - 1) w
    end
  done

let () =
  print_string "(* Generated by gen_mont.ml; do not edit. *)\n\n";
  Printf.printf "let limbs = %d\nlet width = %d\n" n w;
  kernel ~square:false;
  kernel ~square:true
