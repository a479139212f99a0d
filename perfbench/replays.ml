(* Layer replays on a run's own data: each layer's public functions timed
   in isolation over the ledger the run just produced, so a change to one
   layer has a per-layer baseline made of realistic inputs. *)

module Ledger = Iaccf_ledger.Ledger
module Entry = Iaccf_ledger.Entry
module Tree = Iaccf_merkle.Tree
module Sha256 = Iaccf_crypto.Sha256
module Schnorr = Iaccf_crypto.Schnorr
module Kv = Iaccf_kv.Store
module Store = Iaccf_storage.Store
module Package = Iaccf_storage.Package
module Request = Iaccf_types.Request
module Batch = Iaccf_types.Batch

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let requests ledger =
  List.filter_map
    (function _, Entry.Tx tx -> Some tx.Batch.request | _ -> None)
    (Ledger.entries ledger ())

(* Spread [k] picks evenly over a list. *)
let sample k xs =
  let a = Array.of_list xs in
  let n = Array.length a in
  if n <= k then xs else List.init k (fun i -> a.(i * n / k))

type ledger_shape = { entries : int; txs : int; bytes : int }

let shape ledger =
  {
    entries = Ledger.length ledger;
    txs = List.length (requests ledger);
    bytes = Ledger.total_bytes ledger;
  }

(* ns per 64-byte block of SHA-256 over every serialized entry. *)
let sha256_ns_per_64b ledger =
  let blobs = List.map (fun (_, e) -> Entry.serialize e) (Ledger.entries ledger ()) in
  let bytes = List.fold_left (fun s b -> s + String.length b) 0 blobs in
  let (), dt = time (fun () -> List.iter (fun b -> ignore (Sha256.digest b)) blobs) in
  (dt *. 1e9 /. (float_of_int bytes /. 64.0), bytes)

(* µs per [Tree.append] rebuilding the ledger's Merkle tree, and per
   [Tree.verify_path] over up to 256 of its leaves. *)
let merkle ledger =
  let leaves =
    List.filter_map
      (fun (_, e) -> if Entry.in_merkle_tree e then Some (Entry.leaf_digest e) else None)
      (Ledger.entries ledger ())
  in
  let tree = Tree.create () in
  let (), dt = time (fun () -> List.iter (Tree.append tree) leaves) in
  let n = Tree.size tree and root = Tree.root tree in
  let picks = sample 256 (List.init n Fun.id) in
  let paths = List.map (fun i -> (i, Tree.leaf tree i, Tree.path tree i)) picks in
  let ok, dv =
    time (fun () ->
        List.for_all
          (fun (index, leaf, path) -> Tree.verify_path ~leaf ~index ~size:n ~path ~root)
          paths)
  in
  if not ok then failwith "merkle replay: a path of the run's own tree did not verify";
  let np = List.length paths in
  (dt *. 1e6 /. float_of_int (max 1 n), n, dv *. 1e6 /. float_of_int (max 1 np), np)

(* ms for one state digest of a replica's key-value store. *)
let state_digest_ms store =
  let _, dt = time (fun () -> Kv.state_digest store) in
  dt *. 1e3

(* Append every entry into a fresh store: µs per append, bytes on disk. *)
let storage ~dir ledger =
  let entries = Ledger.entries ledger () in
  let s = Store.open_store { (Store.default_config ~dir) with Store.fsync = Store.No_fsync } in
  let (), dt = time (fun () -> List.iter (fun (_, e) -> ignore (Store.append s e)) entries) in
  let bytes = Store.disk_bytes s in
  Store.close s;
  let n = List.length entries in
  (dt *. 1e6 /. float_of_int (max 1 n), n, bytes)

(* Seconds to read back a package of the ledger. *)
let package_read_s ~path ledger =
  Package.write_file path (Package.of_ledger ledger);
  let _, dt = time (fun () -> Package.read_file path) in
  Sys.remove path;
  dt

let verify_request (r : Request.t) pk =
  let payload =
    Request.signing_payload ~proc:r.Request.proc ~args:r.Request.args
      ~client_pk:r.Request.client_pk ~service:r.Request.service
      ~min_index:r.Request.min_index ~client_seqno:r.Request.client_seqno
  in
  Schnorr.verify pk (Iaccf_crypto.Digest32.to_raw payload) ~signature:r.Request.signature

(* Fresh copy of a key: no fixed-base table, whatever the run built. *)
let fresh_key pk = Option.get (Schnorr.public_key_of_bytes (Schnorr.public_key_to_bytes pk))

(* µs per client-signature check over (up to 2000) requests of the
   ledger, as an auditor meets them: each key fresh, without a table. *)
let client_verify_us ledger =
  let reqs = sample 2000 (requests ledger) in
  let keyed = List.map (fun r -> (r, fresh_key r.Request.client_pk)) reqs in
  let ok, dt = time (fun () -> List.for_all (fun (r, pk) -> verify_request r pk) keyed) in
  if not ok then failwith "client-signature replay: a ledger request did not verify";
  let n = List.length keyed in
  (dt *. 1e6 /. float_of_int (max 1 n), n)

(* µs per verify of the same 64 requests with a fixed-base table for each
   key (built untimed) and without. *)
let verify_table_vs_not ledger =
  let reqs = sample 64 (requests ledger) in
  let bare = List.map (fun r -> (r, fresh_key r.Request.client_pk)) reqs in
  let tabled =
    List.map
      (fun r ->
        let pk = fresh_key r.Request.client_pk in
        Schnorr.precompute pk;
        (r, pk))
      reqs
  in
  let run keyed = time (fun () -> List.for_all (fun (r, pk) -> verify_request r pk) keyed) in
  let ok1, d_bare = run bare and ok2, d_tab = run tabled in
  if not (ok1 && ok2) then failwith "verify replay: a ledger request did not verify";
  let n = float_of_int (max 1 (List.length reqs)) in
  (d_tab *. 1e6 /. n, d_bare *. 1e6 /. n, List.length reqs)
