(** Field elements modulo [p = 2^255 - 19] in fixed width.

    An element is ten 26-bit limbs over native ints, little-endian and
    loosely reduced: every limb is below [2^27], so the value is below
    [2^262] and only congruent to the element mod [p]. {!mul} and {!sqr}
    write a schoolbook product into caller-owned {!scratch}, carry it, and
    fold the high half down by [2^260 ≡ 608 (mod p)]; they allocate
    nothing. Only {!to_bytes} reduces fully.

    Nothing here is shared: each caller owns its elements and scratch, so
    domains running in parallel never touch the same buffer. *)

type t

type scratch
(** Room for one 19-limb wide product. *)

val scratch : unit -> scratch

val one : unit -> t
(** A fresh element holding 1. *)

val copy : t -> t

val mul : scratch -> t -> t -> t -> unit
(** [mul s dst a b] sets [dst] to [a * b]; [dst] may alias [a] or [b]. *)

val sqr : scratch -> t -> t -> unit
(** [sqr s dst a] sets [dst] to [a * a]; [dst] may alias [a]. *)

val of_bytes : string -> t
(** Any 32-byte big-endian value, reduced or not.
    @raise Invalid_argument if the string is not 32 bytes. *)

val to_bytes : t -> string
(** The canonical 32-byte big-endian encoding, in [\[0, p)]. *)

val of_limbs : int array -> t
(** The element with exactly these ten limbs (loose ones included).
    @raise Invalid_argument unless there are ten, each in [\[0, 2^27)]. *)
