(** Persistent hash-array-mapped trie from string keys to string values.

    Stands in for CCF's CHAMP map [58]: immutable (snapshots are O(1), which
    gives the roll-back log its cheap per-transaction snapshots), with
    32-way branching and log32-time access.

    The trie's shape depends only on its key set, never on the order of
    insertions and removals, so it doubles as a Merkle tree: {!digest} is
    the root of digests over the trie's own nodes, with each node's digest
    computed once and kept in the node. Consecutive versions share all
    unchanged nodes, so digesting a new version hashes only the nodes on
    paths written since. Node digests, with [H] = SHA-256 and [k], [v]
    length-prefixed (u32, big-endian):
    - leaf [L(k,v) = H(0x00 ‖ k ‖ v)];
    - collision node (keys with equal full hashes)
      [H(0x01 ‖ L(k,v)… in key order)];
    - branch [H(0x02 ‖ u32 bitmap ‖ child digests in slot order)];
    - empty trie [H(0x03)]. *)

module type S = sig
  type t

  val empty : t
  val is_empty : t -> bool
  val cardinal : t -> int
  val find : string -> t -> string option
  val mem : string -> t -> bool
  val add : string -> string -> t -> t
  val remove : string -> t -> t

  val to_sorted_list : t -> (string * string) list
  (** All bindings in ascending key order. *)

  val of_list : (string * string) list -> t
  val equal : t -> t -> bool

  val digest : t -> Iaccf_crypto.Digest32.t
  (** Merkle root of the trie. Equal bindings give equal digests, however
      the tries were built. *)

  val binding_digest : string -> t -> Iaccf_crypto.Digest32.t option
  (** [L(k,v)] of [k]'s binding, if any; a leaf's digest is kept in the
      leaf, so a later {!digest} does not hash [v] again. *)
end

include S

val leaf_digest : string -> string -> Iaccf_crypto.Digest32.t
(** [leaf_digest k v] is [L(k,v)], computed from the pair itself. *)

(**/**)

(** Test seam, not part of the API: the same trie over a caller-chosen key
    hash (only its low 60 bits are used), so tests can force full-hash
    collisions. *)
module With_hash (_ : sig
  val hash : string -> int
end) : S
