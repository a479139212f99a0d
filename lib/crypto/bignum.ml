(* Limbs are little-endian, base 2^24, stored in normalized arrays (no
   leading zero limbs; zero is the empty array). 24-bit limbs keep every
   intermediate product (48 bits) and carry chain within a 63-bit int. *)

let base_bits = 24
let limb_mask = 0xFFFFFF

type t = int array

let zero : t = [||]
let one : t = [| 1 |]

let normalize a =
  let n = ref (Array.length a) in
  while !n > 0 && a.(!n - 1) = 0 do
    decr n
  done;
  if !n = Array.length a then a else Array.sub a 0 !n

let of_int x =
  if x < 0 then invalid_arg "Bignum.of_int: negative";
  let rec limbs x = if x = 0 then [] else (x land limb_mask) :: limbs (x lsr base_bits) in
  Array.of_list (limbs x)

let to_int_opt a =
  (* At most 62 bits fit safely. *)
  if Array.length a > 3 then None
  else begin
    let v = ref 0 in
    for i = Array.length a - 1 downto 0 do
      v := (!v lsl base_bits) lor a.(i)
    done;
    Some !v
  end

let is_zero a = Array.length a = 0

let compare a b =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Stdlib.compare la lb
  else begin
    let rec go i =
      if i < 0 then 0
      else if a.(i) <> b.(i) then Stdlib.compare a.(i) b.(i)
      else go (i - 1)
    in
    go (la - 1)
  end

let equal a b = compare a b = 0

let add a b =
  let la = Array.length a and lb = Array.length b in
  let n = max la lb in
  let out = Array.make (n + 1) 0 in
  let carry = ref 0 in
  for i = 0 to n - 1 do
    let s = (if i < la then a.(i) else 0) + (if i < lb then b.(i) else 0) + !carry in
    out.(i) <- s land limb_mask;
    carry := s lsr base_bits
  done;
  out.(n) <- !carry;
  normalize out

let sub a b =
  if compare a b < 0 then invalid_arg "Bignum.sub: negative result";
  let la = Array.length a and lb = Array.length b in
  let out = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let d = a.(i) - (if i < lb then b.(i) else 0) - !borrow in
    if d < 0 then begin
      out.(i) <- d + limb_mask + 1;
      borrow := 1
    end
    else begin
      out.(i) <- d;
      borrow := 0
    end
  done;
  normalize out

let mul a b =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then zero
  else begin
    let out = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let carry = ref 0 in
      let ai = a.(i) in
      for j = 0 to lb - 1 do
        let v = out.(i + j) + (ai * b.(j)) + !carry in
        out.(i + j) <- v land limb_mask;
        carry := v lsr base_bits
      done;
      let k = ref (i + lb) in
      while !carry <> 0 do
        let v = out.(!k) + !carry in
        out.(!k) <- v land limb_mask;
        carry := v lsr base_bits;
        incr k
      done
    done;
    normalize out
  end

let mul_small a m =
  if m < 0 || m >= 1 lsl 30 then invalid_arg "Bignum.mul_small: multiplier range";
  if m = 0 || Array.length a = 0 then zero
  else begin
    let la = Array.length a in
    let out = Array.make (la + 2) 0 in
    let carry = ref 0 in
    for i = 0 to la - 1 do
      let v = (a.(i) * m) + !carry in
      out.(i) <- v land limb_mask;
      carry := v lsr base_bits
    done;
    let k = ref la in
    while !carry <> 0 do
      out.(!k) <- !carry land limb_mask;
      carry := !carry lsr base_bits;
      incr k
    done;
    normalize out
  end

let bit_length a =
  let n = Array.length a in
  if n = 0 then 0
  else begin
    let top = a.(n - 1) in
    let rec width x = if x = 0 then 0 else 1 + width (x lsr 1) in
    ((n - 1) * base_bits) + width top
  end

let test_bit a i =
  let limb = i / base_bits and off = i mod base_bits in
  limb < Array.length a && (a.(limb) lsr off) land 1 = 1

let shift_left a n =
  if n < 0 then invalid_arg "Bignum.shift_left";
  if is_zero a || n = 0 then a
  else begin
    let limbs = n / base_bits and bits = n mod base_bits in
    let la = Array.length a in
    let out = Array.make (la + limbs + 1) 0 in
    for i = 0 to la - 1 do
      let v = a.(i) lsl bits in
      out.(i + limbs) <- out.(i + limbs) lor (v land limb_mask);
      out.(i + limbs + 1) <- v lsr base_bits
    done;
    normalize out
  end

let shift_right a n =
  if n < 0 then invalid_arg "Bignum.shift_right";
  if is_zero a || n = 0 then a
  else begin
    let limbs = n / base_bits and bits = n mod base_bits in
    let la = Array.length a in
    if limbs >= la then zero
    else begin
      let ln = la - limbs in
      let out = Array.make ln 0 in
      for i = 0 to ln - 1 do
        let lo = a.(i + limbs) lsr bits in
        let hi =
          if bits = 0 || i + limbs + 1 >= la then 0
          else (a.(i + limbs + 1) lsl (base_bits - bits)) land limb_mask
        in
        out.(i) <- lo lor hi
      done;
      normalize out
    end
  end

let mask_bits a n =
  if n < 0 then invalid_arg "Bignum.mask_bits";
  let limbs = n / base_bits and bits = n mod base_bits in
  let la = Array.length a in
  if bit_length a <= n then a
  else begin
    let ln = min la (limbs + if bits > 0 then 1 else 0) in
    let out = Array.sub a 0 ln in
    if bits > 0 && limbs < ln then out.(limbs) <- out.(limbs) land ((1 lsl bits) - 1);
    normalize out
  end

let set_bit a i =
  let limb = i / base_bits and off = i mod base_bits in
  let la = Array.length a in
  let out = Array.make (max la (limb + 1)) 0 in
  Array.blit a 0 out 0 la;
  out.(limb) <- out.(limb) lor (1 lsl off);
  out

(* Binary long division: O(bit_length a - bit_length b) subtract/compare
   steps. Operands in this codebase are close in size (modular reductions),
   so the loop count is small. *)
let divmod a b =
  if is_zero b then raise Division_by_zero;
  if compare a b < 0 then (zero, a)
  else begin
    let shift = bit_length a - bit_length b in
    let q = ref zero and r = ref a and d = ref (shift_left b shift) in
    for i = shift downto 0 do
      if compare !r !d >= 0 then begin
        r := sub !r !d;
        q := set_bit !q i
      end;
      d := shift_right !d 1
    done;
    (!q, !r)
  end

let rem a b = snd (divmod a b)

let mod_pow b e m =
  if is_zero m then raise Division_by_zero;
  if equal m one then zero
  else begin
    let result = ref one and base = ref (rem b m) in
    let nbits = bit_length e in
    for i = 0 to nbits - 1 do
      if test_bit e i then result := rem (mul !result !base) m;
      if i < nbits - 1 then base := rem (mul !base !base) m
    done;
    !result
  end

(* A 24-bit limb is exactly three bytes, so bytes pack straight into
   limbs from the least significant end. *)
let of_bytes_be s =
  let n = String.length s in
  let out = Array.make ((n + 2) / 3) 0 in
  for i = 0 to n - 1 do
    let limb = i / 3 in
    out.(limb) <- out.(limb) lor (Char.code s.[n - 1 - i] lsl (8 * (i mod 3)))
  done;
  normalize out

let to_bytes_be_fixed len a =
  if (bit_length a + 7) / 8 > len then invalid_arg "Bignum.to_bytes_be_fixed: value too large";
  let out = Bytes.make len '\x00' in
  Array.iteri
    (fun l limb ->
      for k = 0 to 2 do
        let i = (3 * l) + k in
        if i < len then Bytes.set out (len - 1 - i) (Char.chr ((limb lsr (8 * k)) land 0xff))
      done)
    a;
  Bytes.unsafe_to_string out

let to_bytes_be a = to_bytes_be_fixed (max 1 ((bit_length a + 7) / 8)) a

let of_hex h =
  let h = if String.length h mod 2 = 1 then "0" ^ h else h in
  of_bytes_be (Iaccf_util.Hex.decode h)

let to_hex a = Iaccf_util.Hex.encode (to_bytes_be a)
let pp ppf a = Format.pp_print_string ppf (to_hex a)
