(** Key-value store checkpoints (§3.4).

    A checkpoint serializes the committed map at a sequence number; its
    digest [d_C] is recorded in a later checkpoint transaction so replicas,
    clients, and auditors agree on the state without exchanging it. Auditors
    load a checkpoint to replay a ledger fragment (Alg. 4, replayLedger). *)

type t = {
  seqno : int;  (** sequence number the checkpoint was taken at *)
  state : Hamt.t;
}

val make : seqno:int -> Hamt.t -> t

val digest : t -> Iaccf_crypto.Digest32.t
(** [d_C = H(u64 seqno ‖ root)], where [root] is the Merkle root
    {!Hamt.digest} of [state]. Only trie nodes not digested before are
    hashed, so a checkpoint costs what changed since the previous one, not
    the size of the state. *)

val serialize : t -> string
val deserialize : string -> t
(** @raise Iaccf_util.Codec.Decode_error on malformed input. *)

val genesis : t
(** The empty checkpoint at sequence number 0. *)
