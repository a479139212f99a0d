(** The multiplicative group used by {!Schnorr}.

    Arithmetic modulo the pseudo-Mersenne prime [p = 2^255 - 19]. Elements
    are {!Bignum}s at this interface; every product and power runs on the
    fixed-width {!Fe} limbs. Exponents live modulo the group exponent
    [n = p - 1 = 2^255 - 20]. Simulation substitute for the paper's
    secp256k1: same 256-bit modular cost profile. *)

val p : Bignum.t
(** The field prime, [2^255 - 19]. *)

val n : Bignum.t
(** The exponent modulus, [p - 1]. *)

val g : Bignum.t
(** The fixed generator (2). *)

val reduce : Bignum.t -> Bignum.t
(** [reduce x] is [x mod p] on {!Bignum}s, folding [2^255 ≡ 19 (mod p)]; the
    reference the fixed-width field is tested against. *)

val reduce_scalar : Bignum.t -> Bignum.t
(** [reduce_scalar x] is [x mod n], folding [2^255 ≡ 20 (mod n)]. *)

(** The functions below take elements and bases below [2^256] (any
    32-byte value; they need not be reduced) and return reduced elements.
    @raise Invalid_argument on a wider base. *)

val mul : Bignum.t -> Bignum.t -> Bignum.t
(** Product mod [p]. *)

val pow : Bignum.t -> Bignum.t -> Bignum.t
(** [pow b e] is [b^e mod p] ({!multi_pow} with one base). *)

type table
(** A fixed-base table for one base. Immutable once built, so domains may
    share it. *)

val make_table : Bignum.t -> table
(** [make_table b] precomputes a 256-entry fixed-base comb (224
    squarings and 247 multiplications). With it, [pow_table] costs 32
    squarings and at most 32 multiplications, against 252 squarings and
    about 74 multiplications for {!pow}. *)

val pow_table : table -> Bignum.t -> Bignum.t
(** [pow_table t e] is [b^e mod p] for the base [t] was built from.
    [e] must be reduced mod {!n}. *)

val g_table : table
(** The table of {!g}, built at start-up. *)

val pow_g : Bignum.t -> Bignum.t
(** [pow_g e] is [pow_table g_table e]; used by signing. *)

val multi_pow_table : (table * Bignum.t) list -> Bignum.t
(** [multi_pow_table [(t1, e1); ...]] is [prod bi^ei mod p] for the bases
    the tables were built from; the products share one squaring chain.
    Every [ei] must be reduced mod {!n}. *)

val multi_pow : (Bignum.t * Bignum.t) list -> Bignum.t
(** [multi_pow [(b1, e1); ...]] is [prod bi^ei mod p] by Straus
    shared-window (4-bit) multi-exponentiation: the squaring chain is paid
    once for the whole product. Empty list yields [one]. *)

val scalar_of_bytes : string -> Bignum.t
(** Interpret bytes big-endian and reduce mod [n]. *)

val element_of_bytes : string -> Bignum.t option
(** Decode a 32-byte group element; [None] if out of range or zero. *)

val element_to_bytes : Bignum.t -> string
(** Fixed 32-byte big-endian encoding. *)
