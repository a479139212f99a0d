open Iaccf_crypto
module Hex = Iaccf_util.Hex

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest
let hex_digest s = Hex.encode (Sha256.digest s)

(* --- SHA-256 against FIPS 180-4 / NIST vectors --- *)

(* Each check runs through [digest]: the selected kernel via
   [Sha256.digest], or one kernel named explicitly. *)
let sha256_vectors digest () =
  let hex_digest s = Hex.encode (digest s) in
  check Alcotest.string "empty"
    "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    (hex_digest "");
  check Alcotest.string "abc"
    "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    (hex_digest "abc");
  check Alcotest.string "448-bit"
    "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
    (hex_digest "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq");
  check Alcotest.string "896-bit"
    "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"
    (hex_digest
       "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno\
        ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu")

let sha256_million_a digest () =
  check Alcotest.string "1M a"
    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (Hex.encode (digest (String.make 1_000_000 'a')))

(* --- The two block kernels: each one explicitly, and against each other --- *)

module Kernel = Sha256.Kernel

let kernel_digest kernel s =
  let ctx = Kernel.init kernel in
  Sha256.feed ctx s;
  Sha256.finalize ctx

(* A case for [kernel]; the SHA-NI ones skip, and say so, on a CPU
   without the extensions. *)
let kernel_case name speed kernel f =
  let name = Printf.sprintf "%s, %s kernel" name (Kernel.name kernel) in
  Alcotest.test_case name speed (fun () ->
      if kernel == Kernel.native_blocks && not Kernel.native_available then
        Alcotest.skip ()
      else f (kernel_digest kernel) ())

(* Hash [s] with [kernel], fed in pieces cut at [cuts] (positions in
   [0, len]); at [snap_at] take a snapshot and go on from it with
   [resumer]'s kernel, so the midstate crosses from one kernel to the
   other. *)
let split_digest kernel ~resumer s ~cuts ~snap_at =
  let len = String.length s in
  let cuts = List.sort_uniq compare (snap_at :: cuts @ [ len ]) in
  let ctx = ref (Kernel.init kernel) and pos = ref 0 in
  List.iter
    (fun c ->
      Sha256.feed !ctx (String.sub s !pos (c - !pos));
      pos := c;
      if c = snap_at then ctx := Kernel.resume resumer (Sha256.snapshot !ctx))
    cuts;
  Sha256.finalize !ctx

let prop_sha256_kernels_agree =
  let gen =
    QCheck.Gen.(
      int_bound 5000 >>= fun len ->
      let pos = int_bound len in
      (* Snapshots land on, just before and just after block edges too. *)
      let edge = map (fun b -> min len (64 * b)) (int_bound (len / 64)) in
      quad (return len) (list_size (int_bound 6) pos)
        (oneof
           [ pos; edge; map (fun e -> max 0 (e - 1)) edge; map (fun e -> min len (e + 1)) edge ])
        (string_size ~gen:char (return len)))
  in
  let print (len, cuts, snap_at, _) =
    Printf.sprintf "len=%d cuts=[%s] snap_at=%d" len
      (String.concat ";" (List.map string_of_int cuts))
      snap_at
  in
  QCheck.Test.make ~name:"sha-ni and ocaml kernels agree" ~count:300
    (QCheck.make ~print gen)
    (fun (_, cuts, snap_at, s) ->
      let reference = kernel_digest Kernel.ocaml_blocks s in
      List.for_all
        (fun (kernel, resumer) ->
          split_digest kernel ~resumer s ~cuts ~snap_at = reference)
        Kernel.
          [
            (native_blocks, native_blocks);
            (native_blocks, ocaml_blocks);
            (ocaml_blocks, native_blocks);
            (ocaml_blocks, ocaml_blocks);
          ]
      && Sha256.digest s = reference)

let test_sha256_kernels_agree =
  let name, speed, run = qtest prop_sha256_kernels_agree in
  Alcotest.test_case name speed (fun () ->
      if Kernel.native_available then run () else Alcotest.skip ())

let test_sha256_block_boundaries () =
  (* 55/56/63/64/65 bytes exercise every padding branch. *)
  let expected =
    [
      (55, "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318");
      (56, "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a");
      (63, "7d3e74a05d7db15bce4ad9ec0658ea98e3f06eeecf16b4c6fff2da457ddc2f34");
      (64, "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb");
      (65, "635361c48bb9eab14198e76ea8ab7f1a41685d6ad62aa9146d301d4f17eb0ae0");
    ]
  in
  List.iter
    (fun (n, hexpect) ->
      check Alcotest.string (string_of_int n) hexpect (hex_digest (String.make n 'a')))
    expected

let test_sha256_incremental () =
  let whole = Sha256.digest "the quick brown fox jumps over the lazy dog" in
  let ctx = Sha256.init () in
  Sha256.feed ctx "the quick brown ";
  Sha256.feed ctx "";
  Sha256.feed ctx "fox jumps over the lazy dog";
  check Alcotest.string "incremental = one-shot" (Hex.encode whole)
    (Hex.encode (Sha256.finalize ctx))

let prop_sha256_incremental_split =
  QCheck.Test.make ~name:"incremental feeding matches one-shot" ~count:100
    QCheck.(pair string small_nat)
    (fun (s, k) ->
      let k = if String.length s = 0 then 0 else k mod (String.length s + 1) in
      let ctx = Sha256.init () in
      Sha256.feed ctx (String.sub s 0 k);
      Sha256.feed ctx (String.sub s k (String.length s - k));
      Sha256.finalize ctx = Sha256.digest s)

(* Resuming a snapshot taken after [a] and feeding [b] hashes [a ^ b],
   for prefixes on every padding branch and block edge. *)
let prop_sha256_snapshot_resume =
  QCheck.Test.make ~name:"snapshot resume matches one-shot digest" ~count:100
    QCheck.(pair (oneofl [ 0; 55; 56; 63; 64; 65; 4096 ]) string)
    (fun (k, b) ->
      let a = String.init k (fun i -> Char.chr ((i * 7) land 0xff)) in
      let ctx = Sha256.init () in
      Sha256.feed ctx a;
      let snap = Sha256.snapshot ctx in
      let resumed () =
        let c = Sha256.resume snap in
        Sha256.feed c b;
        Sha256.finalize c
      in
      let first = resumed () in
      first = Sha256.digest (a ^ b)
      && resumed () = first
      && Sha256.finalize ctx = Sha256.digest a)

let test_sha256_block_counter () =
  let before = Sha256.blocks_compressed () in
  ignore (Sha256.digest (String.make 119 'x'));
  check Alcotest.int "119 bytes pad to two blocks" 2 (Sha256.blocks_compressed () - before);
  (* Whole blocks go to the kernel in one call, which counts all of them. *)
  List.iter
    (fun kernel ->
      if kernel != Kernel.native_blocks || Kernel.native_available then begin
        let before = Sha256.blocks_compressed () in
        ignore (kernel_digest kernel (String.make 4096 'x'));
        check Alcotest.int (Kernel.name kernel ^ ": 4096 bytes are 65 blocks") 65
          (Sha256.blocks_compressed () - before)
      end)
    [ Kernel.ocaml_blocks; Kernel.native_blocks ]

(* --- HMAC-SHA256 against RFC 4231 vectors --- *)

let test_hmac_rfc4231 () =
  let mac_hex ~key msg = Hex.encode (Hmac.mac ~key msg) in
  check Alcotest.string "case 1"
    "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
    (mac_hex ~key:(String.make 20 '\x0b') "Hi There");
  check Alcotest.string "case 2"
    "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
    (mac_hex ~key:"Jefe" "what do ya want for nothing?");
  check Alcotest.string "case 3"
    "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
    (mac_hex ~key:(String.make 20 '\xaa') (String.make 50 '\xdd'));
  (* case 6: key longer than a block *)
  check Alcotest.string "case 6"
    "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
    (mac_hex
       ~key:(String.make 131 '\xaa')
       "Test Using Larger Than Block-Size Key - Hash Key First")

let test_hmac_verify () =
  let key = "secret" and msg = "payload" in
  let m = Hmac.mac ~key msg in
  check Alcotest.bool "accepts" true (Hmac.verify ~key msg ~mac:m);
  check Alcotest.bool "rejects tamper" false (Hmac.verify ~key "payload!" ~mac:m);
  check Alcotest.bool "rejects short" false (Hmac.verify ~key msg ~mac:"short")

(* --- Bignum --- *)

let bn = Bignum.of_int
let bn_testable = Alcotest.testable Bignum.pp Bignum.equal

let test_bignum_basics () =
  check bn_testable "add" (bn 579) (Bignum.add (bn 123) (bn 456));
  check bn_testable "sub" (bn 111) (Bignum.sub (bn 234) (bn 123));
  check bn_testable "mul" (bn 56088) (Bignum.mul (bn 123) (bn 456));
  check Alcotest.bool "zero" true (Bignum.is_zero (Bignum.sub (bn 5) (bn 5)));
  check Alcotest.(option int) "to_int" (Some 123456789)
    (Bignum.to_int_opt (bn 123456789))

let test_bignum_sub_negative () =
  Alcotest.check_raises "negative" (Invalid_argument "Bignum.sub: negative result")
    (fun () -> ignore (Bignum.sub (bn 1) (bn 2)))

let test_bignum_hex () =
  let v = Bignum.of_hex "ffffffffffffffffffffffffffffffff" in
  check Alcotest.string "hex roundtrip" "ffffffffffffffffffffffffffffffff"
    (Bignum.to_hex v);
  check bn_testable "of_hex small" (bn 255) (Bignum.of_hex "ff");
  (* 2^128 - 1 + 1 = 2^128 *)
  check Alcotest.string "carry across limbs" "0100000000000000000000000000000000"
    (Bignum.to_hex (Bignum.add v Bignum.one))

let test_bignum_divmod_known () =
  let a = Bignum.of_hex "deadbeefdeadbeefdeadbeefdeadbeef" in
  let b = Bignum.of_hex "1234567890abcdef" in
  let q, r = Bignum.divmod a b in
  check bn_testable "a = q*b + r" a (Bignum.add (Bignum.mul q b) r);
  check Alcotest.bool "r < b" true (Bignum.compare r b < 0)

let test_bignum_shift () =
  let v = bn 1 in
  check bn_testable "1 << 100 >> 100" v
    (Bignum.shift_right (Bignum.shift_left v 100) 100);
  check Alcotest.int "bit_length 2^100" 101 (Bignum.bit_length (Bignum.shift_left v 100));
  check Alcotest.bool "test_bit" true (Bignum.test_bit (Bignum.shift_left v 100) 100)

let test_bignum_mask () =
  let v = Bignum.of_hex "ffff" in
  check bn_testable "mask 8" (bn 0xff) (Bignum.mask_bits v 8);
  check bn_testable "mask 20" v (Bignum.mask_bits v 20)

let test_bignum_bytes () =
  let s = "\x01\x02\x03\x04" in
  check Alcotest.string "roundtrip" s (Bignum.to_bytes_be (Bignum.of_bytes_be s));
  check Alcotest.string "fixed pad" "\x00\x00\x01\x00"
    (Bignum.to_bytes_be_fixed 4 (bn 256));
  Alcotest.check_raises "too large"
    (Invalid_argument "Bignum.to_bytes_be_fixed: value too large") (fun () ->
      ignore (Bignum.to_bytes_be_fixed 1 (bn 256)))

let test_bignum_mod_pow () =
  (* 3^20 mod 1000 = 3486784401 mod 1000 = 401 *)
  check bn_testable "3^20 mod 1000" (bn 401)
    (Bignum.mod_pow (bn 3) (bn 20) (bn 1000));
  (* Fermat: 2^(p-1) = 1 mod p for prime p = 1000003 *)
  check bn_testable "fermat" Bignum.one
    (Bignum.mod_pow (bn 2) (bn 1000002) (bn 1000003))

let arb_small_pair = QCheck.(pair (map abs int) (map abs int))

let prop_bignum_add_commutes =
  QCheck.Test.make ~name:"add commutes/matches int" ~count:300 arb_small_pair
    (fun (a, b) ->
      let s = Bignum.add (bn a) (bn b) in
      Bignum.equal s (Bignum.add (bn b) (bn a))
      && Bignum.to_int_opt s = Some (a + b))

let prop_bignum_mul_matches_int =
  QCheck.Test.make ~name:"mul matches int" ~count:300
    QCheck.(pair (int_bound 0xFFFFFFF) (int_bound 0xFFFFFFF))
    (fun (a, b) -> Bignum.to_int_opt (Bignum.mul (bn a) (bn b)) = Some (a * b))

let prop_bignum_divmod =
  QCheck.Test.make ~name:"divmod invariant" ~count:300
    QCheck.(pair (map abs int) (map (fun x -> (abs x mod 1000000) + 1) int))
    (fun (a, b) ->
      let q, r = Bignum.divmod (bn a) (bn b) in
      Bignum.to_int_opt q = Some (a / b) && Bignum.to_int_opt r = Some (a mod b))

let arb_big =
  QCheck.make
    ~print:(fun v -> Bignum.to_hex v)
    (QCheck.Gen.map
       (fun s -> Bignum.of_bytes_be (String.concat "" s))
       QCheck.Gen.(list_size (int_range 0 40) (map (String.make 1) char)))

let prop_bignum_bytes_roundtrip =
  QCheck.Test.make ~name:"bytes roundtrip big" ~count:200 arb_big (fun v ->
      Bignum.equal v (Bignum.of_bytes_be (Bignum.to_bytes_be v)))

let prop_bignum_divmod_big =
  QCheck.Test.make ~name:"divmod invariant big" ~count:100
    (QCheck.pair arb_big arb_big)
    (fun (a, b) ->
      QCheck.assume (not (Bignum.is_zero b));
      let q, r = Bignum.divmod a b in
      Bignum.equal a (Bignum.add (Bignum.mul q b) r) && Bignum.compare r b < 0)

let prop_bignum_shift_mul =
  QCheck.Test.make ~name:"shift_left n = mul 2^n" ~count:100
    (QCheck.pair arb_big (QCheck.int_bound 100))
    (fun (a, n) ->
      Bignum.equal (Bignum.shift_left a n)
        (Bignum.mul a (Bignum.mod_pow (bn 2) (bn n) (Bignum.shift_left Bignum.one 200))))

(* --- Group --- *)

(* Group speaks 32-byte big-endian strings; the reference speaks Bignum. *)
let enc v = Bignum.to_bytes_be_fixed 32 v
let fe_of v = Fe.of_bytes (enc v)
let elt = Alcotest.testable (fun ppf s -> Format.pp_print_string ppf (Hex.encode s)) String.equal

let group_mul a b =
  let x = Fe.of_bytes a in
  Fe.mul x x (Fe.of_bytes b);
  Fe.to_bytes x

let test_group_reduce_matches_rem () =
  let x = Bignum.of_hex (String.concat "" (List.init 16 (fun _ -> "deadbeef"))) in
  check bn_testable "reduce = rem" (Bignum.rem x Group.p) (Group.reduce x)

let test_group_pow_matches_mod_pow () =
  let b = bn 12345 and e = bn 6789 in
  check elt "pow = mod_pow" (enc (Bignum.mod_pow b e Group.p)) (Group.pow (fe_of b) (enc e))

let test_group_fermat () =
  (* g^n = 1 (mod p) since n = p - 1 and p is prime. *)
  check elt "g^(p-1) = 1" (enc Bignum.one) (Group.pow Group.g (enc Group.n))

let test_group_element_bytes () =
  check Alcotest.(option elt) "roundtrip" (Some (enc (bn 42)))
    (Option.map Fe.to_bytes (Group.element_of_bytes (enc (bn 42))));
  check Alcotest.(option elt) "p - 1" (Some (enc (Bignum.sub Group.p Bignum.one)))
    (Option.map Fe.to_bytes (Group.element_of_bytes (enc (Bignum.sub Group.p Bignum.one))));
  check Alcotest.bool "rejects zero" true
    (Group.element_of_bytes (String.make 32 '\x00') = None);
  check Alcotest.bool "rejects p" true (Group.element_of_bytes (enc Group.p) = None);
  check Alcotest.bool "rejects >= p" true
    (Group.element_of_bytes (String.make 32 '\xff') = None);
  check Alcotest.bool "rejects 31 bytes" true
    (Group.element_of_bytes (String.make 31 '\x01') = None)

let prop_group_pow_homomorphism =
  QCheck.Test.make ~name:"g^a * g^b = g^(a+b)" ~count:20
    QCheck.(pair (int_bound 100000) (int_bound 100000))
    (fun (a, b) ->
      let pow_g k = Group.pow Group.g (enc (bn k)) in
      String.equal (group_mul (pow_g a) (pow_g b)) (pow_g (a + b)))

let test_group_table_pow () =
  let base = fe_of (bn 987654321) in
  let table = Group.make_table base in
  List.iter
    (fun e ->
      check elt (Printf.sprintf "base^%d" e) (Group.pow base (enc (bn e)))
        (Group.pow_table table (enc (bn e))))
    [ 0; 1; 2; 255; 1 lsl 30 ];
  (* A full-width exponent exercises every table entry the value touches. *)
  let e = enc (Bignum.sub Group.n Bignum.one) in
  check elt "base^(n-1)" (Group.pow base e) (Group.pow_table table e);
  check elt "g_table consistent" (Group.pow Group.g e) (Group.pow_g e);
  let a = enc (Bignum.of_int 0xdeadbeef) in
  let expect = group_mul (Group.pow Group.g a) (Group.pow base e) in
  check elt "g^a * base^e on one chain" expect
    (Group.multi_pow ~tables:[ (Group.g_table, a); (table, e) ] []);
  check elt "comb and windows on one chain" expect
    (Group.multi_pow ~tables:[ (Group.g_table, a) ] [ (base, e) ]);
  List.iter
    (fun e ->
      Alcotest.check_raises "exponent not 32 bytes"
        (Invalid_argument "Group.multi_pow: need 32-byte exponents") (fun () ->
          ignore (Group.pow_table table e)))
    [ Bignum.to_bytes_be (Bignum.shift_left Bignum.one 256); "\xff" ]

let prop_group_multi_pow =
  QCheck.Test.make ~name:"multi_pow = product of pows" ~count:15
    QCheck.(triple (int_bound 1_000_000) (int_bound 1_000_000) (int_bound 100000))
    (fun (a, b, c) ->
      let y = Fe.of_bytes (Group.pow_g (enc (bn c))) in
      let expect = group_mul (Group.pow Group.g (enc (bn a))) (Group.pow y (enc (bn b))) in
      String.equal expect (Group.multi_pow [ (Group.g, enc (bn a)); (y, enc (bn b)) ])
      && String.equal expect (Group.multi_pow ~tables:[ (Group.g_table, enc (bn a)) ] [ (y, enc (bn b)) ]))

(* --- Fe: the fixed-width field against the Bignum reference --- *)

let fe_hex x = Hex.encode (Fe.to_bytes x)
let ref_hex v = Hex.encode (enc (Group.reduce v))
let two_pow k = Bignum.shift_left Bignum.one k

(* The value of five raw 51-bit limbs, as the reference sees it. *)
let bignum_of_limbs l =
  Array.fold_right (fun limb acc -> Bignum.add (Bignum.shift_left acc 51) (bn limb)) l Bignum.zero

let bytes32 = QCheck.(string_of_size (Gen.return 32))

let prop_fe_mul =
  QCheck.Test.make ~name:"mul = reduce (Bignum.mul a b)" ~count:500 (QCheck.pair bytes32 bytes32)
    (fun (a, b) ->
      let x = Fe.of_bytes a in
      Fe.mul x x (Fe.of_bytes b);
      fe_hex x = ref_hex (Bignum.mul (Bignum.of_bytes_be a) (Bignum.of_bytes_be b)))

let prop_fe_sqr =
  QCheck.Test.make ~name:"sqr = reduce (Bignum.mul a a)" ~count:500 bytes32 (fun a ->
      let x = Fe.of_bytes a in
      Fe.sqr x x;
      let v = Bignum.of_bytes_be a in
      fe_hex x = ref_hex (Bignum.mul v v))

let prop_fe_bytes =
  QCheck.Test.make ~name:"to_bytes (of_bytes s) = reduce s" ~count:500 bytes32 (fun a ->
      fe_hex (Fe.of_bytes a) = ref_hex (Bignum.of_bytes_be a))

(* Loose limbs anywhere below the kernel's input bound of 2^54, weighted
   towards the extremes where carries overflow first. *)
let limb_max = (1 lsl 54) - 1

let arb_loose =
  let limb =
    QCheck.Gen.(
      frequency
        [
          (1, return limb_max);
          (1, return 0);
          (1, map (fun k -> limb_max - k) (int_bound 1000));
          (4, map2 (fun hi lo -> (hi lsl 27) lor lo) (int_bound ((1 lsl 27) - 1)) (int_bound ((1 lsl 27) - 1)));
        ])
  in
  QCheck.make
    ~print:(fun l -> String.concat "," (Array.to_list (Array.map string_of_int l)))
    QCheck.Gen.(array_size (return 5) limb)

(* mul, sqr and to_bytes on loose inputs, then 300 squarings: every
   result feeds the next squaring, so a carry slip compounds. *)
let prop_fe_loose =
  QCheck.Test.make ~name:"loose limbs up to 2^54 and a 300-squaring chain" ~count:100
    (QCheck.pair arb_loose arb_loose) (fun (la, lb) ->
      let va = bignum_of_limbs la and vb = bignum_of_limbs lb in
      let a = Fe.of_limbs la and b = Fe.of_limbs lb in
      let m = Fe.one () and sq = Fe.copy a in
      Fe.mul m a b;
      Fe.sqr sq sq;
      let ok =
        fe_hex a = ref_hex va
        && fe_hex m = ref_hex (Bignum.mul va vb)
        && fe_hex sq = ref_hex (Bignum.mul va va)
      in
      let v = ref (Group.reduce (Bignum.mul va va)) in
      for _ = 1 to 300 do
        Fe.sqr sq sq;
        v := Group.reduce (Bignum.mul !v !v)
      done;
      ok && fe_hex sq = ref_hex !v)

let test_fe_edges () =
  let open Bignum in
  let values =
    [ zero; one; sub Group.p one; Group.p; add Group.p one; sub (two_pow 255) one;
      add Group.p (bn 18); sub (two_pow 256) one ]
  in
  let limb_sets =
    [ Array.make 5 ((1 lsl 51) - 1); Array.make 5 (1 lsl 51); Array.make 5 limb_max;
      Array.init 5 (fun i -> if i mod 2 = 0 then (1 lsl 53) + i else (1 lsl 51) - 1 - i) ]
  in
  let cases =
    List.map (fun v -> (to_hex v, Fe.of_bytes (enc v), v)) values
    @ List.map (fun l -> ("limbs " ^ to_hex (bignum_of_limbs l), Fe.of_limbs l, bignum_of_limbs l)) limb_sets
  in
  List.iter
    (fun (la, x, va) ->
      check Alcotest.string ("encode " ^ la) (ref_hex va) (fe_hex x);
      let sq = Fe.copy x in
      Fe.sqr sq sq;
      check Alcotest.string ("sqr " ^ la) (ref_hex (mul va va)) (fe_hex sq);
      List.iter
        (fun (lb, y, vb) ->
          let r = Fe.one () in
          Fe.mul r x y;
          check Alcotest.string (Printf.sprintf "mul %s %s" la lb) (ref_hex (mul va vb)) (fe_hex r))
        cases)
    cases;
  Alcotest.check_raises "limb out of range" (Invalid_argument "Fe.of_limbs: need five limbs in [0, 2^54)")
    (fun () -> ignore (Fe.of_limbs (Array.make 5 (1 lsl 54))));
  Alcotest.check_raises "ten limbs" (Invalid_argument "Fe.of_limbs: need five limbs in [0, 2^54)")
    (fun () -> ignore (Fe.of_limbs (Array.make 10 1)))

(* x^(2^k) by k squarings, against square-and-multiply with long
   division: any carry slip in a loose intermediate compounds. *)
let test_fe_sqr_chain () =
  let k = 10_000 in
  let seed = Sha256.digest "fe-chain" in
  let x = Fe.of_bytes seed in
  for _ = 1 to k do
    Fe.sqr x x
  done;
  check Alcotest.string "x^(2^10000)"
    (Hex.encode (enc (Bignum.mod_pow (Bignum.of_bytes_be seed) (two_pow k) Group.p)))
    (fe_hex x)

(* The Bignum fold, and the 32-byte scalar reduction the signature path
   uses, against long division. *)
let prop_scalar_fold =
  QCheck.Test.make ~name:"reduce_scalar = rem n, up to 512 bits" ~count:500
    QCheck.(string_of_size (Gen.int_range 0 64))
    (fun b ->
      let v = Bignum.of_bytes_be b in
      let low = enc (Bignum.mask_bits v 256) in
      let vl = Bignum.of_bytes_be low in
      (* e*x + k with e, x, k the low 256 bits and two rotations of them. *)
      let e = low and x = String.sub low 11 21 ^ String.sub low 0 11 in
      let k = String.sub low 29 3 ^ String.sub low 0 29 in
      let big s = Bignum.of_bytes_be s in
      Bignum.equal (Bignum.rem v Group.n) (Group.reduce_scalar v)
      && String.equal (enc (Bignum.rem vl Group.n)) (Group.scalar_of_bytes low)
      && String.equal
           (enc (Bignum.rem (Bignum.add (Bignum.mul (big e) (big x)) (big k)) Group.n))
           (Group.scalar_muladd e x k))

let test_scalar_fold_edges () =
  let open Bignum in
  List.iter
    (fun v -> check bn_testable (to_hex v) (rem v Group.n) (Group.reduce_scalar v))
    [ zero; sub Group.n one; Group.n; add Group.n one; two_pow 255; sub (two_pow 512) one;
      mul Group.n Group.n; sub (mul Group.n Group.n) one ];
  List.iter
    (fun v ->
      let s = enc v in
      check elt ("bytes " ^ to_hex v) (enc (rem v Group.n)) (Group.scalar_of_bytes s);
      check Alcotest.bool ("is_scalar " ^ to_hex v) (compare v Group.n < 0) (Group.is_scalar s);
      if compare v Group.n <= 0 then
        check elt ("neg " ^ to_hex v) (enc (sub Group.n v)) (Group.scalar_neg s);
      List.iter
        (fun w ->
          let x = enc w in
          check elt
            (Printf.sprintf "muladd %s %s" (to_hex v) (to_hex w))
            (enc (rem (add (mul v w) w) Group.n))
            (Group.scalar_muladd s x x))
        [ zero; one; sub Group.n one; sub (two_pow 256) one ])
    [ zero; one; sub Group.n one; Group.n; add Group.n one; mul_small Group.n 2;
      add (mul_small Group.n 2) (bn 39); sub (two_pow 256) one ];
  check Alcotest.bool "is_scalar needs 32 bytes" false (Group.is_scalar "\001")

(* --- Schnorr --- *)

let test_schnorr_sign_verify () =
  let sk, pk = Schnorr.keypair_of_seed "replica-0" in
  let digest = Sha256.digest "message" in
  let signature = Schnorr.sign sk digest in
  check Alcotest.int "signature size" 64 (String.length signature);
  check Alcotest.bool "verifies" true (Schnorr.verify pk digest ~signature)

let test_schnorr_rejects_wrong_digest () =
  let sk, pk = Schnorr.keypair_of_seed "replica-0" in
  let signature = Schnorr.sign sk (Sha256.digest "message") in
  check Alcotest.bool "wrong digest" false
    (Schnorr.verify pk (Sha256.digest "other") ~signature)

let test_schnorr_rejects_wrong_key () =
  let sk, _ = Schnorr.keypair_of_seed "replica-0" in
  let _, pk1 = Schnorr.keypair_of_seed "replica-1" in
  let digest = Sha256.digest "message" in
  let signature = Schnorr.sign sk digest in
  check Alcotest.bool "wrong key" false (Schnorr.verify pk1 digest ~signature)

let test_schnorr_rejects_tampered_sig () =
  let sk, pk = Schnorr.keypair_of_seed "replica-0" in
  let digest = Sha256.digest "message" in
  let signature = Schnorr.sign sk digest in
  let tampered =
    String.mapi (fun i c -> if i = 10 then Char.chr (Char.code c lxor 1) else c) signature
  in
  check Alcotest.bool "tampered" false (Schnorr.verify pk digest ~signature:tampered);
  check Alcotest.bool "truncated" false
    (Schnorr.verify pk digest ~signature:(String.sub signature 0 63))

let test_schnorr_deterministic () =
  let sk, _ = Schnorr.keypair_of_seed "replica-0" in
  let digest = Sha256.digest "message" in
  check Alcotest.string "deterministic" (Schnorr.sign sk digest) (Schnorr.sign sk digest)

let test_schnorr_pk_bytes_roundtrip () =
  let _, pk = Schnorr.keypair_of_seed "replica-0" in
  let b = Schnorr.public_key_to_bytes pk in
  check Alcotest.int "32 bytes" 32 (String.length b);
  match Schnorr.public_key_of_bytes b with
  | None -> Alcotest.fail "roundtrip failed"
  | Some pk' -> check Alcotest.bool "equal" true (Schnorr.public_key_equal pk pk')

let prop_schnorr_roundtrip =
  QCheck.Test.make ~name:"sign/verify roundtrip" ~count:20 QCheck.string
    (fun seed ->
      let sk, pk = Schnorr.keypair_of_seed seed in
      let digest = Sha256.digest seed in
      Schnorr.verify pk digest ~signature:(Schnorr.sign sk digest))

let prop_schnorr_cross_rejects =
  QCheck.Test.make ~name:"cross-key rejection" ~count:10
    QCheck.(pair small_string small_string)
    (fun (s1, s2) ->
      QCheck.assume (s1 <> s2);
      let sk, _ = Schnorr.keypair_of_seed s1 in
      let _, pk2 = Schnorr.keypair_of_seed s2 in
      let digest = Sha256.digest "msg" in
      not (Schnorr.verify pk2 digest ~signature:(Schnorr.sign sk digest)))

(* Known answers: keys and signatures are part of every ledger and
   receipt, so any change to the arithmetic under them must leave these
   bytes exactly as they are. *)
let schnorr_kat =
  [
    ( "kat-0",
      "genesis",
      "0553fad7e9544537260b4433837a4a896cd2f4be0d5d3794965c2df1d3bc882e",
      "19c669bdcb0befcd2cf39e707c4da66a1748eba24108e7635cfa6da4fb419f93\
       7e5d92be40ca61cfec93a1f23a0cb1fa61f1a07505c64b9fd050ea22c8a751ce" );
    ( "replica-3",
      "pre-prepare 1",
      "01e8d82c263af2c05cb14c6562bf107ab7d986bbaab8cd4885fa9678ceeac5c1",
      "10dcc90871ecd7a739eca1fb9ab51527f4d51f37478e1366c953502e31c31d4a\
       1560b4c8e442d3c3a4a1772e15422ee4c99d97f3101c01ed8fb700e6fd5a334c" );
    ( "client-\x00\xff",
      "",
      "201b8cdca7379b55ab460346100b617618037384e19bc9c1a16f89789dc8d20f",
      "7f49bc3188b6edef921fdd97e29057865ffefa31d3db0c0199020de43bde4dbe\
       3da6ab1cbfd543bc871c5165d1e6266b9417864cc55e58f4bd4d1d25b481edc4" );
  ]

let test_schnorr_known_answers () =
  List.iter
    (fun (seed, msg, pk_hex, sig_hex) ->
      let sk, pk = Schnorr.keypair_of_seed seed in
      let digest = Sha256.digest msg in
      let signature = Schnorr.sign sk digest in
      check Alcotest.string (seed ^ " public key") pk_hex
        (Hex.encode (Schnorr.public_key_to_bytes pk));
      check Alcotest.string (seed ^ " signature") sig_hex (Hex.encode signature);
      let flipped i =
        String.mapi (fun j c -> if j = i then Char.chr (Char.code c lxor 0x80) else c) signature
      in
      let verify_all pk =
        check Alcotest.bool (seed ^ " verifies") true (Schnorr.verify pk digest ~signature);
        List.iter
          (fun i ->
            check Alcotest.bool
              (Printf.sprintf "%s byte %d flipped" seed i)
              false
              (Schnorr.verify pk digest ~signature:(flipped i)))
          [ 0; 31; 32; 63 ]
      in
      verify_all pk;
      Schnorr.precompute pk;
      verify_all pk)
    schnorr_kat;
  (* 500 more keys and signatures, pinned through one digest. *)
  let ctx = Sha256.init () in
  for i = 0 to 499 do
    let sk, pk = Schnorr.keypair_of_seed (Printf.sprintf "kat-bulk-%d" i) in
    Sha256.feed ctx (Schnorr.public_key_to_bytes pk);
    Sha256.feed ctx (Schnorr.sign sk (Sha256.digest (string_of_int i)))
  done;
  check Alcotest.string "500 keys and signatures"
    "32711026917912780174520a52da98c64155048e865d583fb0fa6527b7adc285"
    (Hex.encode (Sha256.finalize ctx))

let test_schnorr_precompute_matches () =
  let sk, pk = Schnorr.keypair_of_seed "tabled" in
  let digest = Sha256.digest "message" in
  let signature = Schnorr.sign sk digest in
  let tampered =
    String.mapi (fun i c -> if i = 40 then Char.chr (Char.code c lxor 4) else c) signature
  in
  check Alcotest.bool "no table yet" false (Schnorr.has_table pk);
  let untabled_ok = Schnorr.verify pk digest ~signature in
  let untabled_bad = Schnorr.verify pk digest ~signature:tampered in
  Schnorr.precompute pk;
  check Alcotest.bool "table built" true (Schnorr.has_table pk);
  Schnorr.precompute pk (* idempotent *);
  check Alcotest.bool "tabled accepts" untabled_ok (Schnorr.verify pk digest ~signature);
  check Alcotest.bool "tabled rejects" untabled_bad
    (Schnorr.verify pk digest ~signature:tampered);
  check Alcotest.bool "accepts" true untabled_ok;
  check Alcotest.bool "rejects" false untabled_bad

(* --- Digest32 / Nonce --- *)

let test_digest32 () =
  let d = Digest32.of_string "x" in
  check Alcotest.string "raw = sha256" (Sha256.digest "x") (Digest32.to_raw d);
  check Alcotest.bool "hex roundtrip" true
    (Digest32.equal d (Digest32.of_hex (Digest32.to_hex d)));
  Alcotest.check_raises "bad raw" (Invalid_argument "Digest32.of_raw: expected 32 bytes")
    (fun () -> ignore (Digest32.of_raw "short"))

let test_nonce_commitment () =
  let rng = Iaccf_util.Rng.create 5 in
  let nonce = Nonce.generate rng in
  let commitment = Nonce.commit nonce in
  check Alcotest.bool "opens" true (Nonce.check ~commitment nonce);
  let other = Nonce.generate rng in
  check Alcotest.bool "rejects other" false (Nonce.check ~commitment other)

let test_nonce_derive_distinct () =
  let k = "key" in
  let n1 = Nonce.derive ~key:k ~view:0 ~seqno:1 in
  let n2 = Nonce.derive ~key:k ~view:0 ~seqno:2 in
  let n3 = Nonce.derive ~key:k ~view:1 ~seqno:1 in
  check Alcotest.bool "seqno distinct" false (Nonce.reveal n1 = Nonce.reveal n2);
  check Alcotest.bool "view distinct" false (Nonce.reveal n1 = Nonce.reveal n3);
  check Alcotest.string "deterministic" (Nonce.reveal n1)
    (Nonce.reveal (Nonce.derive ~key:k ~view:0 ~seqno:1))


(* --- Parverify --- *)

let flip_bit s bit =
  let n = String.length s in
  if n = 0 then s
  else
    let i = bit / 8 mod n and b = bit mod 8 in
    String.mapi
      (fun j c -> if j = i then Char.chr (Char.code c lxor (1 lsl b)) else c)
      s

let par_jobs n =
  List.init n (fun i ->
      let sk, pk = Schnorr.keypair_of_seed (Printf.sprintf "par-%d" i) in
      let digest = Sha256.digest (string_of_int i) in
      { Parverify.j_pk = pk; j_digest = digest; j_signature = Schnorr.sign sk digest })

let test_parverify_accepts () =
  let jobs = par_jobs 12 in
  check Alcotest.bool "sequential" true (Parverify.verify_batch ~domains:1 jobs);
  check Alcotest.bool "parallel" true (Parverify.verify_batch ~domains:3 jobs)

let test_parverify_rejects_bad_job () =
  let jobs = par_jobs 12 in
  let bad =
    List.mapi
      (fun i j ->
        if i = 7 then { j with Parverify.j_signature = String.make 64 'x' } else j)
      jobs
  in
  check Alcotest.bool "batch fails" false (Parverify.verify_batch ~domains:3 bad);
  let results = Parverify.verify_batch_results ~domains:3 bad in
  check Alcotest.int "results in order" 12 (List.length results);
  List.iteri
    (fun i ok -> check Alcotest.bool (Printf.sprintf "job %d" i) (i <> 7) ok)
    results

(* Every third key verifies through its fixed-base table, which all
   domains read at once, and every fifth signature is corrupted; results
   must match the sequential run and the known validity of each job. *)
let test_parverify_matches_sequential =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"parallel = sequential" ~count:5
       QCheck.(int_range 0 20)
       (fun n ->
         let jobs =
           List.mapi
             (fun i j ->
               if i mod 3 = 0 then Schnorr.precompute j.Parverify.j_pk;
               if i mod 5 = 4 then
                 { j with Parverify.j_signature = flip_bit j.Parverify.j_signature (8 * i) }
               else j)
             (par_jobs n)
         in
         let expect = List.init n (fun i -> i mod 5 <> 4) in
         let seq = Parverify.verify_batch_results ~domains:1 jobs in
         seq = expect && Parverify.verify_batch_results ~domains:4 jobs = seq))

(* Worker domains must survive raising tasks (they are process-global, so
   one dead domain would shrink the pool for the rest of the run), a
   raising task must read as failed verification, and batches after a
   raising batch must still complete — the coordinator cannot hang on a
   [remaining] count a dead path never decremented. *)
let test_pool_survives_raising_tasks () =
  ignore (Parverify.verify_batch ~domains:4 (par_jobs 4));
  let workers_before = Parverify.worker_count () in
  let jobs = par_jobs 6 in
  for round = 0 to 4 do
    let tasks =
      List.mapi
        (fun i j ->
          match (round + i) mod 3 with
          | 0 -> fun () -> Parverify.run_job j (* valid *)
          | 1 ->
              fun () ->
                Parverify.run_job
                  { j with Parverify.j_signature = String.make 64 'x' }
              (* invalid *)
          | _ -> fun () -> failwith "boom" (* raising *))
        jobs
    in
    let results = Parverify.run_tasks ~domains:4 tasks in
    List.iteri
      (fun i ok ->
        check Alcotest.bool
          (Printf.sprintf "round %d task %d" round i)
          ((round + i) mod 3 = 0)
          ok)
      results
  done;
  check Alcotest.int "no worker died" workers_before (Parverify.worker_count ());
  check Alcotest.bool "pool still serves verify batches" true
    (Parverify.verify_batch ~domains:4 (par_jobs 8))

(* --- Vstage: the batched, pool-backed verify stage --- *)

(* The stage must agree with inline Schnorr.verify in both modes — on
   valid signatures and on inputs with a random bit flipped in the public
   key, the digest, or the signature — with callbacks in submission order. *)
let prop_vstage_matches_inline_under_flips =
  QCheck.Test.make ~name:"pooled/batched = inline under bit flips" ~count:15
    QCheck.(
      list_of_size (Gen.int_range 4 12) (triple (int_bound 5) (int_bound 3) (int_bound 511)))
    (fun cases ->
      let jobs =
        List.map
          (fun (kseed, target, bit) ->
            let sk, pk = Schnorr.keypair_of_seed (Printf.sprintf "flip-%d" kseed) in
            let digest = Sha256.digest (Printf.sprintf "m-%d" kseed) in
            let signature = Schnorr.sign sk digest in
            let pk, digest, signature =
              match target with
              | 0 -> (pk, digest, signature)
              | 1 -> (
                  (* A flipped key encoding may no longer be a group
                     element; fall back to flipping the digest so the case
                     still exercises a corrupted input. *)
                  match
                    Schnorr.public_key_of_bytes
                      (flip_bit (Schnorr.public_key_to_bytes pk) bit)
                  with
                  | Some pk' -> (pk', digest, signature)
                  | None -> (pk, flip_bit digest bit, signature))
              | 2 -> (pk, flip_bit digest bit, signature)
              | _ -> (pk, digest, flip_bit signature bit)
            in
            { Parverify.j_pk = pk; j_digest = digest; j_signature = signature })
          cases
      in
      let inline = List.map Parverify.run_job jobs in
      let batched = Parverify.verify_batch_results ~domains:4 jobs in
      let staged domains =
        let st = Vstage.create ~domains () in
        let out = ref [] in
        List.iter
          (fun j ->
            Vstage.submit st ~cls:"flip" ~principal:Profile.Client_key
              j.Parverify.j_pk j.Parverify.j_digest
              ~signature:j.Parverify.j_signature (fun ok -> out := ok :: !out))
          jobs;
        Vstage.flush st;
        List.rev !out
      in
      inline = batched && inline = staged 0 && inline = staged 4)

let test_vstage_callback_order_and_cache () =
  let sk, pk = Schnorr.keypair_of_seed "vstage" in
  let items =
    List.init 20 (fun i ->
        let digest = Sha256.digest (string_of_int (i mod 6)) in
        let signature =
          if i mod 5 = 0 then String.make 64 '\x01' else Schnorr.sign sk digest
        in
        (digest, signature))
  in
  (* Two waves with a flush between, like the replica's flush-per-message
     cadence: wave 2 repeats wave 1's (pk, digest, signature) keys, so its
     submissions must hit the result cache in both modes. *)
  let run domains =
    let st = Vstage.create ~domains () in
    let out = ref [] in
    List.iteri
      (fun i (digest, signature) ->
        Vstage.submit st ~cls:"test" ~principal:Profile.Client_key pk digest
          ~signature (fun ok -> out := (i, ok) :: !out);
        if i = 9 then Vstage.flush st)
      items;
    Vstage.flush st;
    (List.rev !out, Vstage.cache_hits st)
  in
  let inline, hits_inline = run 0 in
  let pooled, hits_pooled = run 4 in
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.bool))
    "pooled callbacks match inline, in submission order" inline pooled;
  check Alcotest.bool "repeats hit the result cache" true
    (hits_inline > 0 && hits_pooled > 0)

let test_vstage_prefetch_and_register () =
  let st = Vstage.create ~domains:4 () in
  let sk, pk = Schnorr.keypair_of_seed "prefetch" in
  let pk = Vstage.register st pk in
  check Alcotest.bool "registered key has its table" true (Schnorr.has_table pk);
  let items =
    List.init 8 (fun i ->
        let digest = Sha256.digest (Printf.sprintf "p-%d" i) in
        (pk, digest, Schnorr.sign sk digest))
  in
  Vstage.prefetch st ~cls:"test" ~principal:Profile.Client_key items;
  let misses_after_prefetch = Vstage.cache_misses st in
  List.iter
    (fun (pk, digest, signature) ->
      check Alcotest.bool "prefetched verification" true
        (Vstage.verify_now st ~cls:"test" ~principal:Profile.Client_key pk digest
           ~signature))
    items;
  check Alcotest.int "bulk loop was all cache hits" misses_after_prefetch
    (Vstage.cache_misses st)

let () =
  Printf.printf "SHA-256 kernel selected from CPUID: %s\n%!"
    (Sha256.Kernel.name Sha256.Kernel.selected);
  Alcotest.run "iaccf_crypto"
    [
      ( "sha256",
        [
          Alcotest.test_case "NIST vectors" `Quick (sha256_vectors Sha256.digest);
          Alcotest.test_case "million a" `Slow (sha256_million_a Sha256.digest);
          kernel_case "NIST vectors" `Quick Kernel.ocaml_blocks sha256_vectors;
          kernel_case "NIST vectors" `Quick Kernel.native_blocks sha256_vectors;
          kernel_case "million a" `Slow Kernel.ocaml_blocks sha256_million_a;
          kernel_case "million a" `Slow Kernel.native_blocks sha256_million_a;
          test_sha256_kernels_agree;
          Alcotest.test_case "block boundaries" `Quick test_sha256_block_boundaries;
          Alcotest.test_case "incremental" `Quick test_sha256_incremental;
          qtest prop_sha256_incremental_split;
          qtest prop_sha256_snapshot_resume;
          Alcotest.test_case "block counter" `Quick test_sha256_block_counter;
        ] );
      ( "hmac",
        [
          Alcotest.test_case "RFC 4231" `Quick test_hmac_rfc4231;
          Alcotest.test_case "verify" `Quick test_hmac_verify;
        ] );
      ( "bignum",
        [
          Alcotest.test_case "basics" `Quick test_bignum_basics;
          Alcotest.test_case "sub negative" `Quick test_bignum_sub_negative;
          Alcotest.test_case "hex" `Quick test_bignum_hex;
          Alcotest.test_case "divmod known" `Quick test_bignum_divmod_known;
          Alcotest.test_case "shift" `Quick test_bignum_shift;
          Alcotest.test_case "mask" `Quick test_bignum_mask;
          Alcotest.test_case "bytes" `Quick test_bignum_bytes;
          Alcotest.test_case "mod_pow" `Quick test_bignum_mod_pow;
          qtest prop_bignum_add_commutes;
          qtest prop_bignum_mul_matches_int;
          qtest prop_bignum_divmod;
          qtest prop_bignum_bytes_roundtrip;
          qtest prop_bignum_divmod_big;
          qtest prop_bignum_shift_mul;
        ] );
      ( "group",
        [
          Alcotest.test_case "reduce" `Quick test_group_reduce_matches_rem;
          Alcotest.test_case "pow" `Quick test_group_pow_matches_mod_pow;
          Alcotest.test_case "fermat" `Quick test_group_fermat;
          Alcotest.test_case "element bytes" `Quick test_group_element_bytes;
          Alcotest.test_case "fixed-base table" `Quick test_group_table_pow;
          qtest prop_group_pow_homomorphism;
          qtest prop_group_multi_pow;
        ] );
      ( "fe",
        [
          qtest prop_fe_mul;
          qtest prop_fe_sqr;
          qtest prop_fe_bytes;
          Alcotest.test_case "edge values and loose limbs" `Quick test_fe_edges;
          Alcotest.test_case "10k squaring chain" `Quick test_fe_sqr_chain;
          qtest prop_scalar_fold;
          Alcotest.test_case "scalar fold edges" `Quick test_scalar_fold_edges;
          qtest prop_fe_loose;
        ] );
      ( "schnorr",
        [
          Alcotest.test_case "sign/verify" `Quick test_schnorr_sign_verify;
          Alcotest.test_case "wrong digest" `Quick test_schnorr_rejects_wrong_digest;
          Alcotest.test_case "wrong key" `Quick test_schnorr_rejects_wrong_key;
          Alcotest.test_case "tampered" `Quick test_schnorr_rejects_tampered_sig;
          Alcotest.test_case "deterministic" `Quick test_schnorr_deterministic;
          Alcotest.test_case "pk bytes" `Quick test_schnorr_pk_bytes_roundtrip;
          qtest prop_schnorr_roundtrip;
          qtest prop_schnorr_cross_rejects;
          Alcotest.test_case "precompute matches" `Quick
            test_schnorr_precompute_matches;
          Alcotest.test_case "known answers" `Quick test_schnorr_known_answers;
        ] );
      ( "parverify",
        [
          Alcotest.test_case "accepts" `Quick test_parverify_accepts;
          Alcotest.test_case "rejects bad job" `Quick test_parverify_rejects_bad_job;
          test_parverify_matches_sequential;
          Alcotest.test_case "pool survives raising tasks" `Quick
            test_pool_survives_raising_tasks;
        ] );
      ( "vstage",
        [
          qtest prop_vstage_matches_inline_under_flips;
          Alcotest.test_case "callback order + cache" `Quick
            test_vstage_callback_order_and_cache;
          Alcotest.test_case "prefetch + register" `Quick
            test_vstage_prefetch_and_register;
        ] );
      ( "digest/nonce",
        [
          Alcotest.test_case "digest32" `Quick test_digest32;
          Alcotest.test_case "nonce commitment" `Quick test_nonce_commitment;
          Alcotest.test_case "nonce derive" `Quick test_nonce_derive_distinct;
        ] );
    ]
