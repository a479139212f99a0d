(** SHA-256 (FIPS 180-4).

    Substitute for the EverCrypt SHA functions used by the paper's
    prototype. Like EverCrypt, it picks its block kernel at run time: when
    the module initialises, CPUID decides between a C stub using the x86
    SHA extensions (SHA-NI, with SSSE3 and SSE4.1) and a portable OCaml
    kernel. The OCaml kernel is the only one on other CPUs and
    architectures, and the reference the native one is tested against.
    Both give the same digests; only speed differs. There is no knob:
    {!Kernel} reaches each kernel explicitly for tests and benchmarks.
    Tested against the NIST test vectors. *)

type ctx

val init : unit -> ctx
val feed : ctx -> string -> unit

val finalize : ctx -> string
(** 32-byte digest. The context must not be reused afterwards. *)

(** {1 Snapshots}

    A snapshot is the state a context reached after some input: the 8
    chaining words, the fed bytes past the last whole block (at most 63)
    and the total length fed, so it is small enough to keep per pending
    request. Resuming a snapshot and feeding [b] hashes [a ^ b]
    for the [a] the snapshot absorbed, compressing only the blocks past
    [a]'s whole ones. A snapshot is immutable: it can be resumed any
    number of times. *)

type snapshot

val snapshot : ctx -> snapshot
(** The state of [ctx] so far; [ctx] stays usable. *)

val resume : snapshot -> ctx
(** A fresh context in the snapshot's state. *)

val blocks_compressed : unit -> int
(** Blocks compressed by every context in this process since it started
    (a read-only counter for hashing-budget tests). *)

val digest : string -> string
(** [digest s] is the 32-byte SHA-256 digest of [s]. *)

val digest_concat : string list -> string
(** [digest_concat parts] hashes the concatenation of [parts] without
    building the intermediate string. *)

(** {1 Kernels}

    The two block kernels, for tests that compare them and benchmarks
    that time each. Everything above uses {!Kernel.selected}. *)

module Kernel : sig
  type t

  val ocaml_blocks : t
  (** The portable OCaml kernel. Always available. *)

  val native_blocks : t
  (** The SHA-NI kernel. Usable only when {!native_available}. *)

  val native_available : bool
  (** Whether this CPU has the SHA extensions (and SSSE3 and SSE4.1);
      always [false] off x86-64. Read once from CPUID at start-up. *)

  val selected : t
  (** [native_blocks] when {!native_available}, else [ocaml_blocks]. *)

  val name : t -> string
  (** ["sha-ni"] or ["ocaml"]. *)

  val init : t -> ctx
  (** A fresh context compressing with the given kernel.
      @raise Invalid_argument for [native_blocks] when it is not
      available. *)

  val resume : t -> snapshot -> ctx
  (** {!resume} with the given kernel. Snapshots do not depend on the
      kernel that took them. *)
end
