(** SHA-256 (FIPS 180-4), pure OCaml.

    Substitute for the EverCrypt SHA functions used by the paper's prototype;
    tested against the NIST test vectors. *)

type ctx

val init : unit -> ctx
val feed : ctx -> string -> unit

val finalize : ctx -> string
(** 32-byte digest. The context must not be reused afterwards. *)

(** {1 Snapshots}

    A snapshot is the state a context reached after some input: the 8
    chaining words, the fed bytes past the last whole block (at most 63)
    and the total length fed. It omits the context's 64-word message
    schedule, which is scratch space, so it is small enough to keep per
    pending request. Resuming a snapshot and feeding [b] hashes [a ^ b]
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
