(* Prints mont9.ml: a Montgomery multiply and squaring for exactly n = 9
   limbs of w = 29 bits, the limbs of a 233- to 259-bit modulus. Each is
   straight-line code over limbs held in unboxed [Int64] locals: column k
   of the product is one sum of the limb products [column] lists, in the
   same column order as [Nat.mont_mul] and [Nat.mont_sqr], so each column
   adds exactly what theirs does and their headroom argument holds
   unchanged (a column sum stays below 2^63). Neither takes the final
   conditional subtraction (see [Nat.mont_pow]). *)

let n = 9
let w = 29

(* Column k's limb products, as pairs of local names: the multiply's
   x_j*y_(k-j) and q_j*m_(k-j), or the squaring's pairs i < k-i, whose
   x_i*x_(k-i) are summed in [twice] and doubled, with the square
   x_(k/2)^2 of an even column once. q_k*m_0 is never listed: below
   column n it is added once q_k is fixed, above it q_k does not exist. *)
let column ~square k =
  let lo = max 0 (k - n + 1) and hi = min k (n - 1) in
  let range a b = List.init (max 0 (b - a + 1)) (fun i -> a + i) in
  let v c i = Printf.sprintf "%c%d" c i in
  let qm j = if j = k then [] else [ (v 'q' j, v 'm' (k - j)) ] in
  if not square then
    ([], List.concat_map (fun j -> (v 'x' j, v 'y' (k - j)) :: qm j) (range lo hi))
  else
    let pairs = range lo (((k + 1) / 2) - 1) in
    let half = if k land 1 = 0 then (v 'x' (k / 2), v 'x' (k / 2)) :: qm (k / 2) else [] in
    ( List.map (fun i -> (v 'x' i, v 'x' (k - i))) pairs,
      List.concat_map (fun i -> qm i @ qm (k - i)) pairs @ half )

let products = List.map (fun (a, b) -> Printf.sprintf "(mul %s %s)" a b)

let sum = function
  | [] -> invalid_arg "sum"
  | t :: ts -> List.fold_left (Printf.sprintf "(add %s %s)") t ts

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
    let terms =
      (if k = 0 then [] else [ "c" ])
      @ products once
      @ if twice = [] then [] else [ Printf.sprintf "(shift_left %s 1)" (sum (products twice)) ]
    in
    Printf.printf "  let s = %s in\n" (sum terms);
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
  print_string "(* Generated by gen_mont9.ml; do not edit. *)\n\n";
  Printf.printf "let limbs = %d\nlet width = %d\n" n w;
  kernel ~square:false;
  kernel ~square:true
