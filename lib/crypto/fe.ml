(* The limbs live in the bytes themselves, read and written by the C
   kernel in fe_stubs.c; OCaml only allocates and checks lengths. *)

type t = bytes

let kernel = "c-5x51"

let limbs = 5
let size = 8 * limbs

external mul : t -> t -> t -> unit = "caml_iaccf_fe_mul" [@@noalloc]
external sqr : t -> t -> unit = "caml_iaccf_fe_sqr" [@@noalloc]
external load : t -> string -> unit = "caml_iaccf_fe_of_bytes" [@@noalloc]
external store : bytes -> t -> unit = "caml_iaccf_fe_to_bytes" [@@noalloc]

let of_limbs_unchecked l =
  let r = Bytes.create size in
  Array.iteri (fun i v -> Bytes.set_int64_ne r (8 * i) (Int64.of_int v)) l;
  r

let one () = of_limbs_unchecked [| 1; 0; 0; 0; 0 |]
let copy = Bytes.copy

let of_bytes s =
  if String.length s <> 32 then invalid_arg "Fe.of_bytes: need 32 bytes";
  let r = Bytes.create size in
  load r s;
  r

let to_bytes a =
  let out = Bytes.create 32 in
  store out a;
  Bytes.unsafe_to_string out

let of_limbs l =
  if Array.length l <> limbs || Array.exists (fun v -> v < 0 || v >= 1 lsl 54) l then
    invalid_arg "Fe.of_limbs: need five limbs in [0, 2^54)";
  of_limbs_unchecked l
