(* A persistent HAMT with 5-bit (32-way) branching on a 60-bit key hash.
   The trie's shape is a function of its key set alone (see [shrink] and
   [join]), so every node can carry a Merkle digest that any two tries with
   equal bindings agree on. Collision nodes hold keys whose full hashes are
   equal; they are exercised in tests through [With_hash] with a degenerate
   hash. *)

module D = Iaccf_crypto.Digest32
module Sha256 = Iaccf_crypto.Sha256
module Codec = Iaccf_util.Codec

let bits = 5
let mask_bits = (1 lsl bits) - 1
let hash_mask = (1 lsl 60) - 1

(* Digest memos hold raw 32-byte digests; [""] means not yet computed. *)
type node =
  | Empty
  | Leaf of { hash : int; key : string; value : string; mutable ld : string }
  | Collision of { hash : int; kvs : (string * string) list (* sorted by key *) }
  | Branch of { bitmap : int; children : node array (* compressed *); mutable bd : string }

type trie = { root : node; card : int }

let leaf hash key value = Leaf { hash; key; value; ld = "" }
let branch bitmap children = Branch { bitmap; children; bd = "" }

(* FNV-1a; [With_hash] keeps the low 60 bits so shifts stay in range. *)
let hash_key k =
  let h = ref 0x3bf29ce484222325 in
  String.iter
    (fun c ->
      h := !h lxor Char.code c;
      h := !h * 0x100000001b3)
    k;
  !h

let empty = { root = Empty; card = 0 }
let is_empty t = t.card = 0
let cardinal t = t.card

let index_of h depth = (h lsr (depth * bits)) land mask_bits
let popcount_below bitmap i =
  let below = bitmap land ((1 lsl i) - 1) in
  let rec count x acc = if x = 0 then acc else count (x lsr 1) (acc + (x land 1)) in
  count below 0

(* --- Digests: tag-prefixed, with length-prefixed keys and values --- *)

let leaf_raw k v =
  let ctx = Sha256.init () in
  Sha256.feed ctx
    (Codec.encode (fun w ->
         Codec.W.u8 w 0x00;
         Codec.W.bytes w k;
         Codec.W.u32 w (String.length v)));
  Sha256.feed ctx v;
  Sha256.finalize ctx

let leaf_digest k v = D.of_raw (leaf_raw k v)
let empty_raw = Sha256.digest "\x03"

let rec node_raw = function
  | Empty -> empty_raw
  | Leaf l ->
      if l.ld = "" then l.ld <- leaf_raw l.key l.value;
      l.ld
  | Collision c ->
      (* Not memoised: a full 60-bit hash collision is rare. *)
      Sha256.digest_concat ("\x01" :: List.map (fun (k, v) -> leaf_raw k v) c.kvs)
  | Branch b ->
      if b.bd = "" then begin
        let n = Array.length b.children in
        let buf = Bytes.create (5 + (D.size * n)) in
        Bytes.set buf 0 '\x02';
        Bytes.set_int32_be buf 1 (Int32.of_int b.bitmap);
        Array.iteri
          (fun i c -> Bytes.blit_string (node_raw c) 0 buf (5 + (D.size * i)) D.size)
          b.children;
        b.bd <- Sha256.digest (Bytes.unsafe_to_string buf)
      end;
      b.bd

let digest t = D.of_raw (node_raw t.root)

(* --- Operations on nodes, given the key's hash --- *)

let rec find_node h k node depth =
  match node with
  | Empty -> None
  | Leaf l -> if h = l.hash && String.equal k l.key then Some node else None
  | Collision c -> if h = c.hash && List.mem_assoc k c.kvs then Some node else None
  | Branch b ->
      let i = index_of h depth in
      if b.bitmap land (1 lsl i) = 0 then None
      else find_node h k b.children.(popcount_below b.bitmap i) (depth + 1)

let rec insert_sorted k v = function
  | [] -> [ (k, v) ]
  | ((k', _) as kv) :: rest ->
      let c = String.compare k k' in
      if c < 0 then (k, v) :: kv :: rest
      else if c = 0 then (k, v) :: rest
      else kv :: insert_sorted k v rest

(* Place two nodes with distinct hashes below fresh branches, down to the
   first depth where the hashes part. *)
let rec join depth h1 n1 h2 n2 =
  let i1 = index_of h1 depth and i2 = index_of h2 depth in
  if i1 = i2 then branch (1 lsl i1) [| join (depth + 1) h1 n1 h2 n2 |]
  else
    branch ((1 lsl i1) lor (1 lsl i2)) (if i1 < i2 then [| n1; n2 |] else [| n2; n1 |])

(* Returns the new node and whether the key was fresh. *)
let rec add_node h k v node depth =
  match node with
  | Empty -> (leaf h k v, true)
  | Leaf l ->
      if h <> l.hash then (join depth h (leaf h k v) l.hash node, true)
      else if String.equal k l.key then (leaf h k v, false)
      else (Collision { hash = h; kvs = insert_sorted k v [ (l.key, l.value) ] }, true)
  | Collision c ->
      if h <> c.hash then (join depth h (leaf h k v) c.hash node, true)
      else
        (Collision { hash = h; kvs = insert_sorted k v c.kvs }, not (List.mem_assoc k c.kvs))
  | Branch { bitmap; children; _ } ->
      let i = index_of h depth in
      let pos = popcount_below bitmap i in
      if bitmap land (1 lsl i) = 0 then begin
        let children' = Array.make (Array.length children + 1) Empty in
        Array.blit children 0 children' 0 pos;
        children'.(pos) <- leaf h k v;
        Array.blit children pos children' (pos + 1) (Array.length children - pos);
        (branch (bitmap lor (1 lsl i)) children', true)
      end
      else begin
        let child, fresh = add_node h k v children.(pos) (depth + 1) in
        let children' = Array.copy children in
        children'.(pos) <- child;
        (branch bitmap children', fresh)
      end

(* The node for a branch's children: a lone leaf or collision node moves up
   in place of the branch, so the shape never depends on removal history. *)
let shrink bitmap children =
  match children with
  | [||] -> Empty
  | [| (Leaf _ | Collision _) as only |] -> only
  | _ -> branch bitmap children

(* Returns the new node and whether a key was removed. *)
let rec remove_node h k node depth =
  match node with
  | Empty -> (node, false)
  | Leaf l -> if h = l.hash && String.equal k l.key then (Empty, true) else (node, false)
  | Collision c ->
      if h = c.hash && List.mem_assoc k c.kvs then begin
        match List.remove_assoc k c.kvs with
        | [ (k1, v1) ] -> (leaf h k1 v1, true)
        | kvs -> (Collision { hash = h; kvs }, true)
      end
      else (node, false)
  | Branch { bitmap; children; _ } ->
      let i = index_of h depth in
      if bitmap land (1 lsl i) = 0 then (node, false)
      else begin
        let pos = popcount_below bitmap i in
        let child, removed = remove_node h k children.(pos) (depth + 1) in
        if not removed then (node, false)
        else begin
          match child with
          | Empty ->
              let n = Array.length children - 1 in
              let children' = Array.make n Empty in
              Array.blit children 0 children' 0 pos;
              Array.blit children (pos + 1) children' pos (n - pos);
              (shrink (bitmap land lnot (1 lsl i)) children', true)
          | _ ->
              let children' = Array.copy children in
              children'.(pos) <- child;
              (shrink bitmap children', true)
        end
      end

let rec iter_node f = function
  | Empty -> ()
  | Leaf l -> f l.key l.value
  | Collision c -> List.iter (fun (k, v) -> f k v) c.kvs
  | Branch b -> Array.iter (iter_node f) b.children

let to_sorted_list t =
  let acc = ref [] in
  iter_node (fun k v -> acc := (k, v) :: !acc) t.root;
  List.sort (fun (k1, _) (k2, _) -> String.compare k1 k2) !acc

let equal a b =
  a.card = b.card && to_sorted_list a = to_sorted_list b

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
  val of_list : (string * string) list -> t
  val equal : t -> t -> bool
  val digest : t -> D.t
  val binding_digest : string -> t -> D.t option
end

module With_hash (H : sig
  val hash : string -> int
end) =
struct
  type t = trie

  let empty = empty
  let is_empty = is_empty
  let cardinal = cardinal
  let to_sorted_list = to_sorted_list
  let equal = equal
  let digest = digest
  let hash k = H.hash k land hash_mask
  let find_binding k t = find_node (hash k) k t.root 0

  let find k t =
    match find_binding k t with
    | Some (Leaf l) -> Some l.value
    | Some (Collision c) -> List.assoc_opt k c.kvs
    | _ -> None

  let mem k t = Option.is_some (find_binding k t)

  let binding_digest k t =
    match find_binding k t with
    | Some (Leaf _ as node) -> Some (D.of_raw (node_raw node))
    | Some (Collision c) -> Some (leaf_digest k (List.assoc k c.kvs))
    | _ -> None

  let add k v t =
    let root, fresh = add_node (hash k) k v t.root 0 in
    { root; card = (if fresh then t.card + 1 else t.card) }

  let remove k t =
    let root, removed = remove_node (hash k) k t.root 0 in
    if removed then { root; card = t.card - 1 } else t

  let of_list l = List.fold_left (fun t (k, v) -> add k v t) empty l
end

include With_hash (struct
  let hash = hash_key
end)
