module D = Iaccf_crypto.Digest32
module Codec = Iaccf_util.Codec

type t = {
  mutable current : Hamt.t;
  mutable version : int;
  mutable log : (int * Hamt.t) list; (* committed (version, pre-state), newest first *)
  mutable open_tx : bool;
}

type write = Put of string | Delete

type tx = {
  store : t;
  base : Hamt.t;
  mutable working : Hamt.t;
  mutable writes : (string * write) list; (* newest first, may repeat keys *)
  mutable live : bool;
}

let create () = { current = Hamt.empty; version = 0; log = []; open_tx = false }
let of_map m = { current = m; version = 0; log = []; open_tx = false }
let map t = t.current
let version t = t.version

let preload t m =
  if t.version <> 0 || t.open_tx then invalid_arg "Store.preload: already in use";
  t.current <- m

let begin_tx store =
  if store.open_tx then invalid_arg "Store.begin_tx: transaction already open";
  store.open_tx <- true;
  { store; base = store.current; working = store.current; writes = []; live = true }

let check_live tx = if not tx.live then invalid_arg "Store: transaction is closed"

let get tx k =
  check_live tx;
  Hamt.find k tx.working

let put tx k v =
  check_live tx;
  tx.working <- Hamt.add k v tx.working;
  tx.writes <- (k, Put v) :: tx.writes

let delete tx k =
  check_live tx;
  tx.working <- Hamt.remove k tx.working;
  tx.writes <- (k, Delete) :: tx.writes

let normalize_writes writes =
  (* Last write per key wins; canonical order by key. The raw list is
     newest-first, so the first occurrence of a key is its final write. *)
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (k, w) -> if not (Hashtbl.mem tbl k) then Hashtbl.add tbl k w)
    writes;
  let entries = Hashtbl.fold (fun k w acc -> (k, w) :: acc) tbl [] in
  List.sort (fun (k1, _) (k2, _) -> String.compare k1 k2) entries

(* The digest of sorted (k, 1 ‖ L(k,v) | 0) entries, given each written
   key's leaf digest, or [None] for a tombstone. *)
let hash_entries entries =
  D.of_string
    (Codec.encode (fun w ->
         Codec.W.list w
           (fun (k, l) ->
             Codec.W.bytes w k;
             match l with
             | Some l ->
                 Codec.W.u8 w 1;
                 Codec.W.raw w (D.to_raw l)
             | None -> Codec.W.u8 w 0)
           entries))

let write_set_hash writes =
  hash_entries
    (List.map
       (fun (k, w) ->
         (k, match w with Put v -> Some (Hamt.leaf_digest k v) | Delete -> None))
       (normalize_writes writes))

let commit_with_writes tx =
  check_live tx;
  tx.live <- false;
  let store = tx.store in
  store.open_tx <- false;
  store.log <- (store.version, tx.base) :: store.log;
  store.current <- tx.working;
  store.version <- store.version + 1;
  let writes = normalize_writes tx.writes in
  (* Each written value is hashed once, into its committed leaf's digest;
     a later checkpoint digest reuses it. *)
  let leaves =
    List.map
      (fun (k, w) ->
        (k, match w with Put _ -> Hamt.binding_digest k tx.working | Delete -> None))
      writes
  in
  (hash_entries leaves, writes)

let commit tx = fst (commit_with_writes tx)

let abort tx =
  check_live tx;
  tx.live <- false;
  tx.store.open_tx <- false

let reset_to t m =
  if t.open_tx then invalid_arg "Store.reset_to: transaction open";
  t.current <- m;
  t.version <- 0;
  t.log <- []

let rollback t target =
  if t.open_tx then invalid_arg "Store.rollback: transaction open";
  if target > t.version then invalid_arg "Store.rollback: version in the future";
  if target = t.version then ()
  else begin
    match List.find_opt (fun (v, _) -> v = target) t.log with
    | None -> invalid_arg "Store.rollback: version pruned"
    | Some (_, state) ->
        t.current <- state;
        t.version <- target;
        t.log <- List.filter (fun (v, _) -> v < target) t.log
  end

let prune_rollback_log t ~keep =
  let rec take n = function
    | [] -> []
    | _ when n = 0 -> []
    | x :: rest -> x :: take (n - 1) rest
  in
  t.log <- take keep t.log

let state_digest t = Hamt.digest t.current
