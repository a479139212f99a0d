(* Ten little-endian 26-bit limbs. 260 bits hold a 255-bit element with
   room to stay loose, and 2^260 = 2^5 * 2^255 = 32 * 19 = 608 (mod p),
   so the high half of a product folds down with one small multiply.

   Bounds, with every input limb below 2^27: a product column sums at
   most ten 54-bit terms, below 2^58, so columns and carries fit a 63-bit
   int. Such inputs are below 2^262, so the carried 20-limb product is
   below 2^524, its top limb below 2^30 and each folded limb below 2^40.
   The carry out of limb 9 is then below 2^14; folding it into limb 0
   carries at most 1 into limb 1, so results keep every limb below 2^27. *)

type t = int array
type scratch = int array

let limbs = 10
let mask = (1 lsl 26) - 1
let top_mask = (1 lsl 21) - 1 (* limb 9 holds bits 234..254 of a canonical value *)

(* Every [t] has exactly [limbs] entries and every scratch 20, by
   construction, so the hot loops index without bounds checks. *)
external ( .!() ) : int array -> int -> int = "%array_unsafe_get"
external ( .!()<- ) : int array -> int -> int -> unit = "%array_unsafe_set"

let scratch () = Array.make (2 * limbs) 0

let one () =
  let r = Array.make limbs 0 in
  r.(0) <- 1;
  r

let copy = Array.copy

(* [s] holds a carried 20-limb product; fold limbs 10..19 down by 608
   into [r], then fold the carry out of limb 9 once more. *)
let fold s r =
  let c = ref 0 in
  for i = 0 to limbs - 1 do
    let v = s.!(i) + (608 * s.!(i + limbs)) + !c in
    r.!(i) <- v land mask;
    c := v asr 26
  done;
  let v = r.!(0) + (608 * !c) in
  r.!(0) <- v land mask;
  r.!(1) <- r.!(1) + (v asr 26)

(* Stores the low 26 bits of column [k] and returns its carry. *)
let[@inline] put s k v =
  s.!(k) <- v land mask;
  v asr 26

(* Schoolbook product, unrolled by column: column k sums a_i * b_(k-i)
   plus the carry out of column k-1, so [s] ends fully carried. *)
let mul s r a b =
  let a0 = a.!(0) and a1 = a.!(1) and a2 = a.!(2) and a3 = a.!(3) and a4 = a.!(4) in
  let a5 = a.!(5) and a6 = a.!(6) and a7 = a.!(7) and a8 = a.!(8) and a9 = a.!(9) in
  let b0 = b.!(0) and b1 = b.!(1) and b2 = b.!(2) and b3 = b.!(3) and b4 = b.!(4) in
  let b5 = b.!(5) and b6 = b.!(6) and b7 = b.!(7) and b8 = b.!(8) and b9 = b.!(9) in
  let c = put s 0 (a0 * b0) in
  let c = put s 1 (c + (a0 * b1) + (a1 * b0)) in
  let c = put s 2 (c + (a0 * b2) + (a1 * b1) + (a2 * b0)) in
  let c = put s 3 (c + (a0 * b3) + (a1 * b2) + (a2 * b1) + (a3 * b0)) in
  let c = put s 4 (c + (a0 * b4) + (a1 * b3) + (a2 * b2) + (a3 * b1) + (a4 * b0)) in
  let c = put s 5 (c + (a0 * b5) + (a1 * b4) + (a2 * b3) + (a3 * b2) + (a4 * b1)
      + (a5 * b0)) in
  let c = put s 6 (c + (a0 * b6) + (a1 * b5) + (a2 * b4) + (a3 * b3) + (a4 * b2)
      + (a5 * b1) + (a6 * b0)) in
  let c = put s 7 (c + (a0 * b7) + (a1 * b6) + (a2 * b5) + (a3 * b4) + (a4 * b3)
      + (a5 * b2) + (a6 * b1) + (a7 * b0)) in
  let c = put s 8 (c + (a0 * b8) + (a1 * b7) + (a2 * b6) + (a3 * b5) + (a4 * b4)
      + (a5 * b3) + (a6 * b2) + (a7 * b1) + (a8 * b0)) in
  let c = put s 9 (c + (a0 * b9) + (a1 * b8) + (a2 * b7) + (a3 * b6) + (a4 * b5)
      + (a5 * b4) + (a6 * b3) + (a7 * b2) + (a8 * b1) + (a9 * b0)) in
  let c = put s 10 (c + (a1 * b9) + (a2 * b8) + (a3 * b7) + (a4 * b6) + (a5 * b5)
      + (a6 * b4) + (a7 * b3) + (a8 * b2) + (a9 * b1)) in
  let c = put s 11 (c + (a2 * b9) + (a3 * b8) + (a4 * b7) + (a5 * b6) + (a6 * b5)
      + (a7 * b4) + (a8 * b3) + (a9 * b2)) in
  let c = put s 12 (c + (a3 * b9) + (a4 * b8) + (a5 * b7) + (a6 * b6) + (a7 * b5)
      + (a8 * b4) + (a9 * b3)) in
  let c = put s 13 (c + (a4 * b9) + (a5 * b8) + (a6 * b7) + (a7 * b6) + (a8 * b5)
      + (a9 * b4)) in
  let c = put s 14 (c + (a5 * b9) + (a6 * b8) + (a7 * b7) + (a8 * b6) + (a9 * b5)) in
  let c = put s 15 (c + (a6 * b9) + (a7 * b8) + (a8 * b7) + (a9 * b6)) in
  let c = put s 16 (c + (a7 * b9) + (a8 * b8) + (a9 * b7)) in
  let c = put s 17 (c + (a8 * b9) + (a9 * b8)) in
  let c = put s 18 (c + (a9 * b9)) in
  s.!(19) <- c;
  fold s r

(* As [mul], with each cross term a_i * a_j (i < j) taken once and
   doubled: 55 multiplies instead of 100. *)
let sqr s r a =
  let a0 = a.!(0) and a1 = a.!(1) and a2 = a.!(2) and a3 = a.!(3) and a4 = a.!(4) in
  let a5 = a.!(5) and a6 = a.!(6) and a7 = a.!(7) and a8 = a.!(8) and a9 = a.!(9) in
  let c = put s 0 (a0 * a0) in
  let c = put s 1 (c + (2 * (a0 * a1))) in
  let c = put s 2 (c + (2 * (a0 * a2)) + (a1 * a1)) in
  let c = put s 3 (c + (2 * ((a0 * a3) + (a1 * a2)))) in
  let c = put s 4 (c + (2 * ((a0 * a4) + (a1 * a3))) + (a2 * a2)) in
  let c = put s 5 (c + (2 * ((a0 * a5) + (a1 * a4) + (a2 * a3)))) in
  let c = put s 6 (c + (2 * ((a0 * a6) + (a1 * a5) + (a2 * a4))) + (a3 * a3)) in
  let c = put s 7 (c + (2 * ((a0 * a7) + (a1 * a6) + (a2 * a5) + (a3 * a4)))) in
  let c = put s 8 (c
      + (2 * ((a0 * a8) + (a1 * a7) + (a2 * a6) + (a3 * a5)))
      + (a4 * a4)) in
  let c = put s 9 (c
      + (2 * ((a0 * a9) + (a1 * a8) + (a2 * a7) + (a3 * a6) + (a4 * a5)))) in
  let c = put s 10 (c
      + (2 * ((a1 * a9) + (a2 * a8) + (a3 * a7) + (a4 * a6)))
      + (a5 * a5)) in
  let c = put s 11 (c + (2 * ((a2 * a9) + (a3 * a8) + (a4 * a7) + (a5 * a6)))) in
  let c = put s 12 (c + (2 * ((a3 * a9) + (a4 * a8) + (a5 * a7))) + (a6 * a6)) in
  let c = put s 13 (c + (2 * ((a4 * a9) + (a5 * a8) + (a6 * a7)))) in
  let c = put s 14 (c + (2 * ((a5 * a9) + (a6 * a8))) + (a7 * a7)) in
  let c = put s 15 (c + (2 * ((a6 * a9) + (a7 * a8)))) in
  let c = put s 16 (c + (2 * (a7 * a9)) + (a8 * a8)) in
  let c = put s 17 (c + (2 * (a8 * a9))) in
  let c = put s 18 (c + (a9 * a9)) in
  s.!(19) <- c;
  fold s r

let of_bytes s =
  if String.length s <> 32 then invalid_arg "Fe.of_bytes: need 32 bytes";
  let r = Array.make limbs 0 in
  let acc = ref 0 and bits = ref 0 and limb = ref 0 in
  for i = 31 downto 0 do
    acc := !acc lor (Char.code s.[i] lsl !bits);
    bits := !bits + 8;
    if !bits >= 26 then begin
      r.(!limb) <- !acc land mask;
      acc := !acc lsr 26;
      bits := !bits - 26;
      incr limb
    end
  done;
  (* 256 bits fill nine limbs and leave 22 bits for the top one. *)
  r.(limbs - 1) <- !acc;
  r

(* Carry limbs 0..8 down to 26 bits; the excess lands in limb 9. *)
let carry r =
  for i = 0 to limbs - 2 do
    let v = r.(i) in
    r.(i) <- v land mask;
    r.(i + 1) <- r.(i + 1) + (v lsr 26)
  done

let to_bytes a =
  let r = Array.copy a in
  carry r;
  (* Fold bits 255 and up as 2^255 = 19 until the value is below 2^255. *)
  while r.(limbs - 1) lsr 21 <> 0 do
    let hi = r.(limbs - 1) lsr 21 in
    r.(limbs - 1) <- r.(limbs - 1) land top_mask;
    r.(0) <- r.(0) + (19 * hi);
    carry r
  done;
  (* Below 2^255, the value is at least p exactly when adding 19 reaches
     2^255; then that sum with bit 255 cleared is the value minus p. *)
  let t = Array.copy r in
  t.(0) <- t.(0) + 19;
  carry t;
  let r =
    if t.(limbs - 1) lsr 21 <> 0 then begin
      t.(limbs - 1) <- t.(limbs - 1) land top_mask;
      t
    end
    else r
  in
  let out = Bytes.create 32 in
  let acc = ref 0 and bits = ref 0 and limb = ref 0 in
  for i = 31 downto 0 do
    if !bits < 8 then begin
      acc := !acc lor (r.(!limb) lsl !bits);
      bits := !bits + 26;
      incr limb
    end;
    Bytes.set out i (Char.chr (!acc land 0xff));
    acc := !acc lsr 8;
    bits := !bits - 8
  done;
  Bytes.unsafe_to_string out

let of_limbs l =
  if Array.length l <> limbs || Array.exists (fun v -> v < 0 || v >= 1 lsl 27) l then
    invalid_arg "Fe.of_limbs: need ten limbs in [0, 2^27)";
  Array.copy l
