(** Strictly-serializable transactional key-value store with per-transaction
    roll-back (§2 of the paper).

    Transactions execute one at a time against the current map; each commit
    records a snapshot plus the transaction's write set, so any suffix of
    committed transactions can be rolled back (needed when a speculatively
    executed batch fails to prepare, Appx. A, Lemma 1). The write-set hash is
    part of the result [o] stored in the ledger, letting auditors compare
    replayed execution against recorded execution without replaying the
    reads. *)

type t

type tx
(** An open transaction handle. *)

type write = Put of string | Delete
(** One write in a transaction's write set: the value installed under a
    key, or a tombstone. *)

val create : unit -> t
val of_map : Hamt.t -> t

val map : t -> Hamt.t
(** Current committed state. *)

val version : t -> int
(** Number of committed transactions since creation / last [reset]. *)

val preload : t -> Hamt.t -> unit
(** Replace the state wholesale before any transaction has committed —
    bench/test setup that models app state present at genesis.
    @raise Invalid_argument once transactions have run. *)

val begin_tx : t -> tx
(** @raise Invalid_argument if a transaction is already open. *)

val get : tx -> string -> string option
val put : tx -> string -> string -> unit
val delete : tx -> string -> unit

val commit : tx -> Iaccf_crypto.Digest32.t
(** Commit the transaction; the result is the write-set hash
    [H(sorted (k, 1 ‖ L(k,v) | 0))]: per key written, its leaf digest
    [L(k,v)] ({!Hamt.leaf_digest}) or a tombstone. [L] is read from the
    committed leaf's memo, so each written value is hashed once, here, and
    a later {!state_digest} does not hash it again. *)

val commit_with_writes : tx -> Iaccf_crypto.Digest32.t * (string * write) list
(** Like {!commit}, additionally returning the normalized write set (one
    entry per key, sorted) whose digest is the write-set hash. A party
    holding the write set can recompute the hash with {!write_set_hash}
    and check key membership — the basis for verifiable observer reads. *)

val normalize_writes : (string * write) list -> (string * write) list
(** Canonical form of a raw (newest-first) write list: last write per key
    wins, sorted by key. Idempotent. *)

val write_set_hash : (string * write) list -> Iaccf_crypto.Digest32.t
(** The digest {!commit} returns, computed from an explicit write list
    (normalized first), hashing each written value to [L(k,v)]. *)

val abort : tx -> unit

val reset_to : t -> Hamt.t -> unit
(** Replace the state wholesale (checkpoint installation during replica
    bootstrap); discards the roll-back log and resets the version to 0. *)

val rollback : t -> int -> unit
(** [rollback t version] restores the state as of the given committed
    version. @raise Invalid_argument if the version is ahead of the present
    or has been pruned. *)

val prune_rollback_log : t -> keep:int -> unit
(** Drop roll-back ability for all but the last [keep] versions. *)

val state_digest : t -> Iaccf_crypto.Digest32.t
(** Merkle root of the committed state ({!Hamt.digest}): equal states give
    equal digests however they were reached, and only nodes written since
    the last digest are hashed. {!Checkpoint.digest} binds it to a
    sequence number as [d_C]. *)
