open Iaccf_kv
module D = Iaccf_crypto.Digest32

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest
let digest_testable = Alcotest.testable D.pp_full D.equal

(* --- HAMT --- *)

let test_hamt_basic () =
  let m = Hamt.(empty |> add "a" "1" |> add "b" "2") in
  check Alcotest.(option string) "find a" (Some "1") (Hamt.find "a" m);
  check Alcotest.(option string) "find b" (Some "2") (Hamt.find "b" m);
  check Alcotest.(option string) "find c" None (Hamt.find "c" m);
  check Alcotest.int "cardinal" 2 (Hamt.cardinal m)

let test_hamt_overwrite () =
  let m = Hamt.(empty |> add "k" "v1" |> add "k" "v2") in
  check Alcotest.(option string) "overwrites" (Some "v2") (Hamt.find "k" m);
  check Alcotest.int "cardinal unchanged" 1 (Hamt.cardinal m)

let test_hamt_remove () =
  let m = Hamt.(empty |> add "a" "1" |> add "b" "2" |> remove "a") in
  check Alcotest.(option string) "removed" None (Hamt.find "a" m);
  check Alcotest.(option string) "kept" (Some "2") (Hamt.find "b" m);
  check Alcotest.int "cardinal" 1 (Hamt.cardinal m);
  let m2 = Hamt.remove "missing" m in
  check Alcotest.int "remove missing noop" 1 (Hamt.cardinal m2)

let test_hamt_persistence () =
  let m1 = Hamt.(empty |> add "k" "old") in
  let m2 = Hamt.add "k" "new" m1 in
  check Alcotest.(option string) "old version intact" (Some "old") (Hamt.find "k" m1);
  check Alcotest.(option string) "new version" (Some "new") (Hamt.find "k" m2)

let test_hamt_sorted_list () =
  let m = Hamt.of_list [ ("c", "3"); ("a", "1"); ("b", "2"); ("ab", "4"); ("", "0") ] in
  check
    Alcotest.(list (pair string string))
    "ascending key order"
    [ ("", "0"); ("a", "1"); ("ab", "4"); ("b", "2"); ("c", "3") ]
    (Hamt.to_sorted_list m)

let test_hamt_many_keys () =
  let n = 5000 in
  let m =
    List.fold_left
      (fun m i -> Hamt.add (Printf.sprintf "key-%05d" i) (string_of_int i) m)
      Hamt.empty (List.init n Fun.id)
  in
  check Alcotest.int "cardinal" n (Hamt.cardinal m);
  check Alcotest.(option string) "spot check" (Some "4321")
    (Hamt.find "key-04321" m);
  let m =
    List.fold_left
      (fun m i -> Hamt.remove (Printf.sprintf "key-%05d" i) m)
      m
      (List.init (n / 2) (fun i -> 2 * i))
  in
  check Alcotest.int "after removals" (n / 2) (Hamt.cardinal m);
  check Alcotest.(option string) "even gone" None (Hamt.find "key-00042" m);
  check Alcotest.(option string) "odd kept" (Some "43") (Hamt.find "key-00043" m)

module SMap = Map.Make (String)

let apply_ops_hamt ops =
  List.fold_left
    (fun m -> function
      | `Add (k, v) -> Hamt.add k v m
      | `Remove k -> Hamt.remove k m)
    Hamt.empty ops

let apply_ops_map ops =
  List.fold_left
    (fun m -> function
      | `Add (k, v) -> SMap.add k v m
      | `Remove k -> SMap.remove k m)
    SMap.empty ops

let arb_ops =
  let open QCheck in
  let key = Gen.map (Printf.sprintf "k%d") (Gen.int_bound 40) in
  let op =
    Gen.frequency
      [
        (3, Gen.map2 (fun k v -> `Add (k, Printf.sprintf "v%d" v)) key (Gen.int_bound 100));
        (1, Gen.map (fun k -> `Remove k) key);
      ]
  in
  make
    ~print:(fun ops ->
      String.concat ";"
        (List.map
           (function
             | `Add (k, v) -> Printf.sprintf "+%s=%s" k v
             | `Remove k -> Printf.sprintf "-%s" k)
           ops))
    (Gen.list_size (Gen.int_range 0 200) op)

let prop_hamt_matches_map =
  QCheck.Test.make ~name:"HAMT matches Map oracle" ~count:200 arb_ops (fun ops ->
      let h = apply_ops_hamt ops and m = apply_ops_map ops in
      Hamt.to_sorted_list h = SMap.bindings m
      && Hamt.cardinal h = SMap.cardinal m)

let prop_hamt_find_matches_map =
  QCheck.Test.make ~name:"find matches Map oracle" ~count:200 arb_ops (fun ops ->
      let h = apply_ops_hamt ops and m = apply_ops_map ops in
      List.for_all
        (fun i ->
          let k = Printf.sprintf "k%d" i in
          Hamt.find k h = SMap.find_opt k m)
        (List.init 41 Fun.id))

(* The trie's shape, and so its digest, depends only on its bindings:
   an incrementally built trie must digest like one built afresh from the
   same bindings in another order (what a replica installing the state by
   state transfer would build). *)
let prop_hamt_digest_history_independent =
  QCheck.Test.make ~name:"digest independent of history" ~count:1000 arb_ops
    (fun ops ->
      let t = apply_ops_hamt ops in
      D.equal (Hamt.digest t)
        (Hamt.digest (Hamt.of_list (List.rev (Hamt.to_sorted_list t)))))

(* A degenerate hash, keyed by the text before ':' in the key, so tests
   choose full-hash collisions and how deep two hashes first part. *)
module Hc = Hamt.With_hash (struct
  let hash k = int_of_string (List.hd (String.split_on_char ':' k))
end)

let test_hamt_collisions () =
  let hi = string_of_int (1 lsl 55) in
  (* a1/a2 collide on hash 0; b shares all but the last 5 bits with them;
     c parts from them at the root. *)
  let a1 = "0:a1" and a2 = "0:a2" and b = hi ^ ":b" and c = "1:c" in
  let canonical t = Hc.digest (Hc.of_list (List.rev (Hc.to_sorted_list t))) in
  let same_as_fresh msg t = check digest_testable msg (canonical t) (Hc.digest t) in
  let only_leaf msg k v t = check digest_testable msg (Hamt.leaf_digest k v) (Hc.digest t) in
  (* A leaf meets a colliding key: a collision node. *)
  let t = Hc.(empty |> add a1 "1" |> add a2 "2") in
  check Alcotest.int "collision cardinal" 2 (Hc.cardinal t);
  check Alcotest.(option string) "find a1" (Some "1") (Hc.find a1 t);
  check Alcotest.(option string) "find a2" (Some "2") (Hc.find a2 t);
  check (Alcotest.option digest_testable) "collision binding digest"
    (Some (Hamt.leaf_digest a2 "2")) (Hc.binding_digest a2 t);
  same_as_fresh "collision node" t;
  (* The collision node meets a key with a different hash: it is split
     below a chain of branches, like two leaves. *)
  let t = Hc.add b "3" t in
  check Alcotest.int "split cardinal" 3 (Hc.cardinal t);
  List.iter
    (fun (k, v) -> check Alcotest.(option string) ("find " ^ k) (Some v) (Hc.find k t))
    [ (a1, "1"); (a2, "2"); (b, "3") ];
  same_as_fresh "collision split" t;
  let t = Hc.add c "4" t in
  same_as_fresh "collision beside a leaf" t;
  (* Removals collapse back to the shape a fresh build would have. *)
  let t = Hc.remove b t in
  same_as_fresh "after removing the split key" t;
  let t = Hc.remove a1 t in
  same_as_fresh "collision shrunk to a leaf" t;
  let t = Hc.remove c t in
  check Alcotest.(option string) "a2 kept" (Some "2") (Hc.find a2 t);
  only_leaf "lone leaf moves up to the root" a2 "2" t;
  (* A two-leaf branch loses a child: the other leaf replaces it. *)
  only_leaf "sibling collapse" c "4" Hc.(empty |> add a1 "1" |> add c "4" |> remove a1);
  only_leaf "deep sibling collapse" b "3" Hc.(empty |> add a1 "1" |> add b "3" |> remove a1);
  check digest_testable "empty again" (Hc.digest Hc.empty)
    (Hc.digest Hc.(empty |> add a1 "1" |> add a2 "2" |> remove a1 |> remove a2))

(* Random histories over few distinct hashes: collisions, deep chains and
   collapses on every path. *)
let prop_hamt_collision_histories =
  (* Key "k<i>" gets one of six full hashes, chosen by i. *)
  let collide k =
    let i = int_of_string (String.sub k 1 (String.length k - 1)) in
    Printf.sprintf "%d:%s" (((i mod 3) lsl 50) lor (i / 3 mod 2)) k
  in
  QCheck.Test.make ~name:"collision histories match Map oracle" ~count:300 arb_ops
    (fun ops ->
      let ops =
        List.map
          (function `Add (k, v) -> `Add (collide k, v) | `Remove k -> `Remove (collide k))
          ops
      in
      let t =
        List.fold_left
          (fun t -> function `Add (k, v) -> Hc.add k v t | `Remove k -> Hc.remove k t)
          Hc.empty ops
      in
      let m = apply_ops_map ops in
      Hc.to_sorted_list t = SMap.bindings m
      && Hc.cardinal t = SMap.cardinal m
      && SMap.for_all (fun k v -> Hc.find k t = Some v) m
      && D.equal (Hc.digest t) (Hc.digest (Hc.of_list (SMap.bindings m))))

(* --- Store --- *)

let test_store_tx_commit () =
  let s = Store.create () in
  let tx = Store.begin_tx s in
  Store.put tx "alice" "100";
  Store.put tx "bob" "50";
  let _ = Store.commit tx in
  check Alcotest.(option string) "committed" (Some "100") (Hamt.find "alice" (Store.map s));
  check Alcotest.int "version" 1 (Store.version s)

let test_store_tx_abort () =
  let s = Store.create () in
  let tx = Store.begin_tx s in
  Store.put tx "alice" "100";
  Store.abort tx;
  check Alcotest.bool "not committed" true (Hamt.is_empty (Store.map s));
  check Alcotest.int "version" 0 (Store.version s)

let test_store_reads_own_writes () =
  let s = Store.create () in
  let tx = Store.begin_tx s in
  Store.put tx "k" "v";
  check Alcotest.(option string) "reads own write" (Some "v") (Store.get tx "k");
  Store.delete tx "k";
  check Alcotest.(option string) "reads own delete" None (Store.get tx "k");
  Store.abort tx

let test_store_single_open_tx () =
  let s = Store.create () in
  let tx = Store.begin_tx s in
  Alcotest.check_raises "second tx"
    (Invalid_argument "Store.begin_tx: transaction already open") (fun () ->
      ignore (Store.begin_tx s));
  Store.abort tx

let test_store_rollback () =
  let s = Store.create () in
  let run k v =
    let tx = Store.begin_tx s in
    Store.put tx k v;
    ignore (Store.commit tx)
  in
  run "a" "1";
  run "b" "2";
  run "c" "3";
  Store.rollback s 1;
  check Alcotest.(option string) "a kept" (Some "1") (Hamt.find "a" (Store.map s));
  check Alcotest.(option string) "b rolled back" None (Hamt.find "b" (Store.map s));
  check Alcotest.int "version" 1 (Store.version s);
  (* Re-execute from there. *)
  run "b" "2'";
  check Alcotest.(option string) "re-executed" (Some "2'") (Hamt.find "b" (Store.map s))

let test_store_rollback_errors () =
  let s = Store.create () in
  Alcotest.check_raises "future" (Invalid_argument "Store.rollback: version in the future")
    (fun () -> Store.rollback s 5);
  let tx = Store.begin_tx s in
  Store.put tx "x" "1";
  ignore (Store.commit tx);
  Store.prune_rollback_log s ~keep:0;
  Alcotest.check_raises "pruned" (Invalid_argument "Store.rollback: version pruned")
    (fun () -> Store.rollback s 0)

let test_write_set_hash_deterministic () =
  let run () =
    let s = Store.create () in
    let tx = Store.begin_tx s in
    Store.put tx "b" "2";
    Store.put tx "a" "1";
    Store.commit tx
  in
  check digest_testable "same writes, same hash" (run ()) (run ());
  (* Write order must not matter; only final values per key. *)
  let s = Store.create () in
  let tx = Store.begin_tx s in
  Store.put tx "a" "0";
  Store.put tx "a" "1";
  Store.put tx "b" "2";
  check digest_testable "last write wins" (run ()) (Store.commit tx)

let test_write_set_hash_differs () =
  let run v =
    let s = Store.create () in
    let tx = Store.begin_tx s in
    Store.put tx "a" v;
    Store.commit tx
  in
  check Alcotest.bool "different writes differ" false (D.equal (run "1") (run "2"))

let test_state_digest () =
  let s1 = Store.of_map (Hamt.of_list [ ("a", "1"); ("b", "2") ]) in
  let s2 = Store.of_map (Hamt.of_list [ ("b", "2"); ("a", "1") ]) in
  check digest_testable "insertion order irrelevant" (Store.state_digest s1)
    (Store.state_digest s2);
  let s3 = Store.of_map (Hamt.of_list [ ("a", "1"); ("b", "3") ]) in
  check Alcotest.bool "value change detected" false
    (D.equal (Store.state_digest s1) (Store.state_digest s3))

(* Any sequence of puts and deletes, overwrites included, over a store
   that already holds some of the keys. *)
let arb_tx =
  let open QCheck in
  let key = Gen.map (Printf.sprintf "k%d") (Gen.int_bound 12) in
  let op =
    Gen.frequency
      [
        (3, Gen.map2 (fun k v -> (k, Store.Put (Printf.sprintf "v%d" v))) key (Gen.int_bound 5));
        (1, Gen.map (fun k -> (k, Store.Delete)) key);
      ]
  in
  make
    ~print:(fun (pre, ops) ->
      Printf.sprintf "pre=%d ops=%s" pre
        (String.concat ";"
           (List.map
              (function
                | k, Store.Put v -> Printf.sprintf "+%s=%s" k v
                | k, Store.Delete -> "-" ^ k)
              ops)))
    Gen.(pair (int_bound 12) (list_size (int_range 0 30) op))

let prop_write_set_hash_matches_commit =
  QCheck.Test.make ~name:"write-set hash of explicit writes matches commit" ~count:300
    arb_tx (fun (pre, ops) ->
      let s =
        Store.of_map
          (Hamt.of_list (List.init pre (fun i -> (Printf.sprintf "k%d" i, "old"))))
      in
      let tx = Store.begin_tx s in
      List.iter
        (function k, Store.Put v -> Store.put tx k v | k, Store.Delete -> Store.delete tx k)
        ops;
      D.equal (Store.commit tx) (Store.write_set_hash (List.rev ops)))

(* Known answers, pinning the encodings: L(k,v) = H(0x00 ‖ k ‖ v), a
   branch H(0x02 ‖ bitmap ‖ children), the empty trie H(0x03),
   d_C = H(u64 seqno ‖ root), and the write-set hash over sorted
   (k, 1 ‖ L(k,v) | 0). The values come from a separate implementation of
   these definitions, not from this one. *)
let test_digest_known_answers () =
  let hex = Alcotest.testable Fmt.string String.equal in
  (* judy and peggy share a root slot, so the root has a branch child. *)
  let state =
    Hamt.of_list
      [ ("alice", "100"); ("bob", "50"); ("carol", "7"); ("judy", "12"); ("peggy", "3") ]
  in
  check hex "leaf" "70ba0e8d59864935222d6010b3a358dbf0825a31a3b34874a55db612c9db1011"
    (D.to_hex (Hamt.leaf_digest "alice" "100"));
  check hex "empty checkpoint"
    "82fb554be6daa0d95dc223559e94803ea5b2d437806933f3e69ade8e1e86f55f"
    (D.to_hex (Checkpoint.digest Checkpoint.genesis));
  check hex "checkpoint" "759d83279b44bb17b0c5f476b816b9d93d4cdb1ababa8d45583f7d1f4795efb4"
    (D.to_hex (Checkpoint.digest (Checkpoint.make ~seqno:42 state)));
  check hex "write-set hash"
    "fcbefe959be70bd9adae0579b08c4007d8d9303f67ff7ad7cd80f903b15d10fc"
    (D.to_hex (Store.write_set_hash [ ("bob", Store.Delete); ("alice", Store.Put "100") ]))

(* --- Checkpoint --- *)

let test_checkpoint_roundtrip () =
  let cp = Checkpoint.make ~seqno:100 (Hamt.of_list [ ("k", "v"); ("x", "y") ]) in
  let cp' = Checkpoint.deserialize (Checkpoint.serialize cp) in
  check Alcotest.int "seqno" 100 cp'.Checkpoint.seqno;
  check digest_testable "digest stable" (Checkpoint.digest cp) (Checkpoint.digest cp')

let test_checkpoint_digest_binds_seqno () =
  let state = Hamt.of_list [ ("k", "v") ] in
  let a = Checkpoint.digest (Checkpoint.make ~seqno:1 state) in
  let b = Checkpoint.digest (Checkpoint.make ~seqno:2 state) in
  check Alcotest.bool "seqno bound" false (D.equal a b)

let test_checkpoint_genesis () =
  check Alcotest.int "genesis seqno" 0 Checkpoint.genesis.Checkpoint.seqno;
  check Alcotest.bool "genesis empty" true (Hamt.is_empty Checkpoint.genesis.Checkpoint.state)

let prop_checkpoint_roundtrip =
  QCheck.Test.make ~name:"checkpoint serialize roundtrip" ~count:100
    QCheck.(list (pair small_string small_string))
    (fun kvs ->
      let cp = Checkpoint.make ~seqno:7 (Hamt.of_list kvs) in
      let cp' = Checkpoint.deserialize (Checkpoint.serialize cp) in
      D.equal (Checkpoint.digest cp) (Checkpoint.digest cp')
      && Hamt.equal cp.Checkpoint.state cp'.Checkpoint.state)

let () =
  Alcotest.run "iaccf_kv"
    [
      ( "hamt",
        [
          Alcotest.test_case "basic" `Quick test_hamt_basic;
          Alcotest.test_case "overwrite" `Quick test_hamt_overwrite;
          Alcotest.test_case "remove" `Quick test_hamt_remove;
          Alcotest.test_case "persistence" `Quick test_hamt_persistence;
          Alcotest.test_case "to_sorted_list order" `Quick test_hamt_sorted_list;
          Alcotest.test_case "many keys" `Quick test_hamt_many_keys;
          qtest prop_hamt_matches_map;
          qtest prop_hamt_find_matches_map;
          qtest prop_hamt_digest_history_independent;
          Alcotest.test_case "collisions" `Quick test_hamt_collisions;
          qtest prop_hamt_collision_histories;
        ] );
      ( "store",
        [
          Alcotest.test_case "commit" `Quick test_store_tx_commit;
          Alcotest.test_case "abort" `Quick test_store_tx_abort;
          Alcotest.test_case "reads own writes" `Quick test_store_reads_own_writes;
          Alcotest.test_case "single open tx" `Quick test_store_single_open_tx;
          Alcotest.test_case "rollback" `Quick test_store_rollback;
          Alcotest.test_case "rollback errors" `Quick test_store_rollback_errors;
          Alcotest.test_case "write-set hash deterministic" `Quick
            test_write_set_hash_deterministic;
          Alcotest.test_case "write-set hash differs" `Quick test_write_set_hash_differs;
          Alcotest.test_case "state digest" `Quick test_state_digest;
          qtest prop_write_set_hash_matches_commit;
          Alcotest.test_case "digest known answers" `Quick test_digest_known_answers;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "roundtrip" `Quick test_checkpoint_roundtrip;
          Alcotest.test_case "binds seqno" `Quick test_checkpoint_digest_binds_seqno;
          Alcotest.test_case "genesis" `Quick test_checkpoint_genesis;
          qtest prop_checkpoint_roundtrip;
        ] );
    ]
