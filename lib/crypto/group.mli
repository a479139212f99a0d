(** The multiplicative group used by {!Schnorr}.

    Arithmetic modulo the pseudo-Mersenne prime [p = 2^255 - 19], on the
    fixed-width {!Fe} limbs. Exponents live modulo the group exponent
    [n = p - 1 = 2^255 - 20]. Simulation substitute for the paper's
    secp256k1: same 256-bit modular cost profile.

    Exponents and scalars are 32-byte big-endian strings, the form
    signatures carry them in; powers return the result's canonical
    32-byte encoding. {!Bignum} appears only as the reference the tests
    check against. *)

val p : Bignum.t
(** The field prime, [2^255 - 19]. *)

val n : Bignum.t
(** The exponent modulus, [p - 1]. *)

val reduce : Bignum.t -> Bignum.t
(** [reduce x] is [x mod p] on {!Bignum}s, folding [2^255 ≡ 19 (mod p)]; the
    reference the fixed-width field is tested against. *)

val reduce_scalar : Bignum.t -> Bignum.t
(** [reduce_scalar x] is [x mod n], folding [2^255 ≡ 20 (mod n)]. *)

(** {1 Scalars} *)

val scalar_of_bytes : string -> string
(** [scalar_of_bytes s] is the 32-byte value [s] reduced mod [n].
    @raise Invalid_argument if [s] is not 32 bytes. *)

val is_scalar : string -> bool
(** Whether the string is 32 bytes encoding a value below [n]. *)

val scalar_neg : string -> string
(** [scalar_neg e] is [n - e] for a scalar [e] (see {!is_scalar}). *)

val scalar_muladd : string -> string -> string -> string
(** [scalar_muladd e x k] is [e * x + k mod n] for 32-byte values (the
    signer's [s]), on the {!Fe} kernel's limbs with [2^255 ≡ 20 (mod n)].
    @raise Invalid_argument unless all three are 32 bytes. *)

(** {1 Powers}

    Exponents are 32-byte big-endian strings; they need not be reduced
    mod [n].
    @raise Invalid_argument on an exponent of another length. *)

val g : Fe.t
(** The fixed generator (2). *)

val element_of_bytes : string -> Fe.t option
(** Decode a 32-byte group element; [None] if out of range or zero. *)

val pow : Fe.t -> string -> string
(** [pow b e] is [b^e mod p] ({!multi_pow} with one base). *)

type table
(** A fixed-base table for one base. Immutable once built, so domains may
    share it. *)

val make_table : Fe.t -> table
(** [make_table b] precomputes a 256-entry fixed-base comb: 224 squarings
    and 247 multiplications, about 23 us on one Xeon core
    ([precompute_wall_s] in BENCH_crypto.json times 8 builds). With it, a
    power of [b] costs 32 squarings and at most 32 multiplications,
    against 252 squarings and about 78 multiplications without. *)

val g_table : table
(** The table of {!g}, built at start-up. *)

val multi_pow : ?tables:(table * string) list -> (Fe.t * string) list -> string
(** [multi_pow ~tables pairs] is [prod bi^ei mod p] over the [(bi, ei)] of
    [pairs] and the bases the [tables] were built from, on one shared
    squaring chain: Straus 4-bit windows for [pairs], fixed-base combs
    for [tables]. With [pairs] empty the chain is 32 squarings long.
    Empty lists yield [one]. *)

val pow_table : table -> string -> string
(** [pow_table t e] is [b^e mod p] for the base [t] was built from. *)

val pow_g : string -> string
(** [pow_g e] is [pow_table g_table e]; used by signing. *)
