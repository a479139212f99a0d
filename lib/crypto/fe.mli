(** Field elements modulo [p = 2^255 - 19] in fixed width.

    An element is five 51-bit limbs, little-endian, held unboxed as
    [uint64_t]s in a 40-byte buffer, and loosely reduced: {!mul} and
    {!sqr} accept limbs below [2^54] and return limbs below [2^52], so
    their results are only congruent to the element mod [p]. Only
    {!to_bytes} reduces fully. The arithmetic is C ([fe_stubs.c]) on
    [unsigned __int128] products; the calls allocate nothing and never
    release the runtime lock.

    Nothing here is shared: each caller owns its elements, so domains
    running in parallel never touch the same buffer. *)

type t

val kernel : string
(** The kernel's name for benchmark reports: ["c-5x51"]. *)

val one : unit -> t
(** A fresh element holding 1. *)

val copy : t -> t

external mul : t -> t -> t -> unit = "caml_iaccf_fe_mul" [@@noalloc]
(** [mul dst a b] sets [dst] to [a * b]; [dst] may alias [a] or [b]. *)

external sqr : t -> t -> unit = "caml_iaccf_fe_sqr" [@@noalloc]
(** [sqr dst a] sets [dst] to [a * a]; [dst] may alias [a]. *)

val of_bytes : string -> t
(** Any 32-byte big-endian value, reduced or not.
    @raise Invalid_argument if the string is not 32 bytes. *)

val to_bytes : t -> string
(** The canonical 32-byte big-endian encoding, in [\[0, p)]. *)

val of_limbs : int array -> t
(** The element with exactly these five limbs (loose ones included).
    @raise Invalid_argument unless there are five, each in [\[0, 2^54)]. *)
