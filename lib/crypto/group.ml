let p =
  Bignum.sub (Bignum.shift_left Bignum.one 255) (Bignum.of_int 19)

let n = Bignum.sub p Bignum.one

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

(* Scalars stay 32-byte big-endian strings: String.compare orders such
   strings as the numbers they encode. *)
let p_bytes = Bignum.to_bytes_be_fixed 32 p
let n_bytes = Bignum.to_bytes_be_fixed 32 n

(* [a - b] for 32-byte [a >= b]. *)
let sub_be a b =
  let r = Bytes.create 32 and borrow = ref 0 in
  for i = 31 downto 0 do
    let d = Char.code a.[i] - Char.code b.[i] - !borrow in
    borrow := if d < 0 then 1 else 0;
    Bytes.set r i (Char.unsafe_chr (d land 0xff))
  done;
  Bytes.unsafe_to_string r

(* A 256-bit value is below 2^256 = 2n + 40, so two subtractions reduce
   it. *)
let scalar_of_bytes s =
  if String.length s <> 32 then invalid_arg "Group.scalar_of_bytes: need 32 bytes";
  let rec go s = if String.compare s n_bytes >= 0 then go (sub_be s n_bytes) else s in
  go s

let is_scalar s = String.length s = 32 && String.compare s n_bytes < 0
let scalar_neg e = sub_be n_bytes e
let g = Fe.of_bytes (Bignum.to_bytes_be_fixed 32 (Bignum.of_int 2))
let zero_bytes = String.make 32 '\000'

let element_of_bytes s =
  if String.length s = 32 && s <> zero_bytes && String.compare s p_bytes < 0 then
    Some (Fe.of_bytes s)
  else None

let exponent e =
  if String.length e <> 32 then invalid_arg "Group.multi_pow: need 32-byte exponents";
  e

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
  let table = Array.make (1 lsl rows) (Fe.one ()) in
  table.(1) <- Fe.copy base;
  for i = 1 to rows - 1 do
    let x = Fe.copy table.(1 lsl (i - 1)) in
    for _ = 1 to cols do
      Fe.sqr x x
    done;
    table.(1 lsl i) <- x;
    for v = 1 to (1 lsl i) - 1 do
      let y = Fe.copy x in
      Fe.mul y y table.(v);
      table.((1 lsl i) lor v) <- y
    done
  done;
  table

let g_table = make_table g

(* The table index of every column: bit i of column j is bit 32i + j of
   the exponent. *)
let comb_columns e =
  let c = Array.make cols 0 in
  for i = 0 to rows - 1 do
    let row = Int32.to_int (String.get_int32_be e (28 - (4 * i))) land 0xffff_ffff in
    for j = 0 to cols - 1 do
      c.(j) <- c.(j) lor (((row lsr j) land 1) lsl i)
    done
  done;
  c

(* b^0..b^15 for 4-bit windows: 14 multiplications. *)
let window_table b =
  let tbl = Array.make 16 b in
  for d = 2 to 15 do
    let x = Fe.copy tbl.(d - 1) in
    Fe.mul x x b;
    tbl.(d) <- x
  done;
  tbl

(* One squaring chain, one bit per step, serves every base. Straus:
   a windowed base multiplies in its 4-bit digit at every fourth bit, so
   per base that is at most 64 multiplications after its 14 of set-up.
   A tabled base multiplies in its comb column at each of the last 32
   bits; with no windowed base the chain is 32 squarings long. Bits
   above the first nonzero digit cost nothing. *)
let multi_pow ?(tables = []) pairs =
  let windows =
    List.map (fun (b, e) -> (window_table b, exponent e)) pairs
  in
  let combs =
    List.map (fun (t, e) -> (t, comb_columns (exponent e))) tables
  in
  let acc = Fe.one () and started = ref false in
  let mul x =
    Fe.mul acc acc x;
    started := true
  in
  for bit = (if windows = [] then cols - 1 else 255) downto 0 do
    if !started then Fe.sqr acc acc;
    if bit land 3 = 0 then begin
      (* Window w is bits 4w..4w+3: a nibble of byte 31 - w/2. *)
      let w = bit lsr 2 in
      List.iter
        (fun (tbl, e) ->
          let d = (Char.code e.[31 - (w lsr 1)] lsr ((w land 1) * 4)) land 15 in
          if d <> 0 then mul tbl.(d))
        windows
    end;
    if bit < cols then
      List.iter
        (fun (table, columns) ->
          let v = columns.(bit) in
          if v <> 0 then mul table.(v))
        combs
  done;
  Fe.to_bytes acc

let pow b e = multi_pow [ (b, e) ]
let pow_table table e = multi_pow ~tables:[ (table, e) ] []
let pow_g e = pow_table g_table e

external muladd : bytes -> string -> string -> string -> unit = "caml_iaccf_scalar_muladd"
[@@noalloc]

let scalar_muladd e x k =
  if String.length e <> 32 || String.length x <> 32 || String.length k <> 32 then
    invalid_arg "Group.scalar_muladd: need 32-byte scalars";
  let out = Bytes.create 32 in
  muladd out e x k;
  Bytes.unsafe_to_string out
