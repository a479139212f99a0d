let p =
  Bignum.sub (Bignum.shift_left Bignum.one 255) (Bignum.of_int 19)

let n = Bignum.sub p Bignum.one
let g = Bignum.of_int 2

(* x mod (2^255 - c): fold the high part down as hi*c + lo until the value
   fits in 255 bits, then subtract the modulus while it is still too big.
   A 512-bit input converges in three folds. *)
let fold_mod ~c m x =
  let x = ref x in
  while Bignum.bit_length !x > 255 do
    let hi = Bignum.shift_right !x 255 in
    let lo = Bignum.mask_bits !x 255 in
    x := Bignum.add (Bignum.mul_small hi c) lo
  done;
  while Bignum.compare !x m >= 0 do
    x := Bignum.sub !x m
  done;
  !x

let reduce x = fold_mod ~c:19 p x
let reduce_scalar x = fold_mod ~c:20 n x

(* Elements cross into the fixed-width field through their 32-byte
   encoding; every exponentiation below runs on Fe with a scratch buffer
   of its own, so calls on different domains share nothing mutable. *)
let fe_of b = Fe.of_bytes (Bignum.to_bytes_be_fixed 32 b)
let bignum_of_fe x = Bignum.of_bytes_be (Fe.to_bytes x)

let mul a b =
  let x = fe_of a in
  Fe.mul (Fe.scratch ()) x x (fe_of b);
  bignum_of_fe x

(* Exponent bits, least significant first, from the big-endian bytes. *)
let bit e_bytes i =
  let k = String.length e_bytes - 1 - (i / 8) in
  k >= 0 && (Char.code e_bytes.[k] lsr (i land 7)) land 1 = 1

(* Fixed-base comb (Lim-Lee): a 256-bit exponent is read as 8 rows of 32
   bits, row i covering bits 32i..32i+31. The table holds, for every 8-bit
   mask v, the product of base^(2^(32i)) over the rows i set in v. Column j
   of the exponent then selects one entry, and

     base^e = prod_j table[column j]^(2^j)

   costs 32 squarings and at most 32 multiplications, against ~128
   multiplications for a table of base^(2^i). Building it takes 224
   squarings and 247 multiplications. Tables are immutable after build,
   so domains can share them. *)
type table = Fe.t array

let rows = 8
let cols = 32

let make_table base =
  let s = Fe.scratch () in
  let table = Array.make (1 lsl rows) (Fe.one ()) in
  table.(1) <- fe_of base;
  for i = 1 to rows - 1 do
    let x = Fe.copy table.(1 lsl (i - 1)) in
    for _ = 1 to cols do
      Fe.sqr s x x
    done;
    table.(1 lsl i) <- x;
    for v = 1 to (1 lsl i) - 1 do
      let y = Fe.copy x in
      Fe.mul s y y table.(v);
      table.((1 lsl i) lor v) <- y
    done
  done;
  table

let g_table = make_table g

(* Combs of several bases share the one 32-step squaring chain. *)
let multi_pow_table pairs =
  let s = Fe.scratch () and acc = Fe.one () in
  let combs =
    List.map
      (fun (table, e) ->
        if Bignum.bit_length e > rows * cols then
          invalid_arg "Group.multi_pow_table: exponent too wide";
        (table, Bignum.to_bytes_be e))
      pairs
  in
  for j = cols - 1 downto 0 do
    Fe.sqr s acc acc;
    List.iter
      (fun (table, e_bytes) ->
        let v = ref 0 in
        for i = rows - 1 downto 0 do
          v := (!v lsl 1) lor if bit e_bytes ((cols * i) + j) then 1 else 0
        done;
        if !v <> 0 then Fe.mul s acc acc table.(!v))
      combs
  done;
  bignum_of_fe acc

let pow_table table e = multi_pow_table [ (table, e) ]
let pow_g e = pow_table g_table e

(* Straus shared-window multi-exponentiation: prod_i b_i^(e_i) with one
   squaring chain shared across all bases and 4-bit windows. Per base the
   precomputation is 14 multiplications (b^2..b^15); the scan then costs
   4 squarings per window plus at most one multiplication per base per
   window, so the 256 squarings are paid once, not per base. *)
let multi_pow pairs =
  let w = 4 in
  let s = Fe.scratch () in
  let windows =
    List.map
      (fun (b, e) ->
        let tbl = Array.make 16 (fe_of b) in
        for d = 2 to 15 do
          let x = Fe.copy tbl.(d - 1) in
          Fe.mul s x x tbl.(1);
          tbl.(d) <- x
        done;
        (tbl, Bignum.to_bytes_be e))
      pairs
  in
  let nbits = List.fold_left (fun acc (_, e) -> max acc (Bignum.bit_length e)) 0 pairs in
  let nwin = (nbits + w - 1) / w in
  let acc = Fe.one () in
  for win = nwin - 1 downto 0 do
    if win < nwin - 1 then
      for _ = 1 to w do
        Fe.sqr s acc acc
      done;
    List.iter
      (fun (tbl, e_bytes) ->
        let d = ref 0 in
        for b = w - 1 downto 0 do
          d := (!d lsl 1) lor if bit e_bytes ((win * w) + b) then 1 else 0
        done;
        if !d <> 0 then Fe.mul s acc acc tbl.(!d))
      windows
  done;
  bignum_of_fe acc

let pow b e = multi_pow [ (b, e) ]
let scalar_of_bytes s = reduce_scalar (Bignum.of_bytes_be s)

let element_of_bytes s =
  if String.length s <> 32 then None
  else begin
    let v = Bignum.of_bytes_be s in
    if Bignum.is_zero v || Bignum.compare v p >= 0 then None else Some v
  end

let element_to_bytes v = Bignum.to_bytes_be_fixed 32 v
