(* SHA-256. Whole 64-byte blocks go to one of two kernels, chosen once
   from CPUID when the module initialises: the SHA-NI stub in
   sha256_stubs.c where the CPU has the SHA extensions, else the portable
   OCaml kernel below. The OCaml kernel keeps words in the low 32 bits of
   a 63-bit int and masks them where they are stored, which avoids boxed
   Int32 operations. *)

let mask = 0xFFFFFFFF

let k =
  [|
    0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b; 0x59f111f1;
    0x923f82a4; 0xab1c5ed5; 0xd807aa98; 0x12835b01; 0x243185be; 0x550c7dc3;
    0x72be5d74; 0x80deb1fe; 0x9bdc06a7; 0xc19bf174; 0xe49b69c1; 0xefbe4786;
    0x0fc19dc6; 0x240ca1cc; 0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da;
    0x983e5152; 0xa831c66d; 0xb00327c8; 0xbf597fc7; 0xc6e00bf3; 0xd5a79147;
    0x06ca6351; 0x14292967; 0x27b70a85; 0x2e1b2138; 0x4d2c6dfc; 0x53380d13;
    0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85; 0xa2bfe8a1; 0xa81a664b;
    0xc24b8b70; 0xc76c51a3; 0xd192e819; 0xd6990624; 0xf40e3585; 0x106aa070;
    0x19a4c116; 0x1e376c08; 0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a;
    0x5b9cca4f; 0x682e6ff3; 0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208;
    0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2;
  |]

(* [x] twice over: bits [n, n + 32) of [dup x] are [x] rotated right by
   [n], for every [n <= 30] (bit 63 falls off the 63-bit int unused), so a
   rotation is one shift. The junk left above bit 32 never reaches a
   stored word: every store is masked, and the low 32 bits of sums and
   xors depend only on the low 32 bits of their operands (overflow
   included). *)
let dup x = x lor (x lsl 32)

(* The portable kernel: compress the [n] 64-byte blocks of [s] from [off]
   into the chaining words [h]. The schedule [w] is local to the call, so
   calls on other domains share nothing. [w] and the round constants [k]
   have 64 entries each, so the loops index them unchecked. *)
let ocaml_blocks h s off n =
  let w = Array.make 64 0 in
  for blk = 0 to n - 1 do
    let off = off + (64 * blk) in
    for i = 0 to 15 do
      Array.unsafe_set w i
        (Int32.to_int (String.get_int32_be s (off + (4 * i))) land mask)
    done;
    for i = 16 to 63 do
      let w15 = Array.unsafe_get w (i - 15) and w2 = Array.unsafe_get w (i - 2) in
      let x15 = dup w15 and x2 = dup w2 in
      let s0 = (x15 lsr 7) lxor (x15 lsr 18) lxor (w15 lsr 3) in
      let s1 = (x2 lsr 17) lxor (x2 lsr 19) lxor (w2 lsr 10) in
      Array.unsafe_set w i
        ((Array.unsafe_get w (i - 16) + s0 + Array.unsafe_get w (i - 7) + s1) land mask)
    done;
    let a = ref h.(0)
    and b = ref h.(1)
    and c = ref h.(2)
    and d = ref h.(3)
    and e = ref h.(4)
    and f = ref h.(5)
    and g = ref h.(6)
    and hh = ref h.(7) in
    for i = 0 to 63 do
      let xe = dup !e and xa = dup !a in
      let s1 = (xe lsr 6) lxor (xe lsr 11) lxor (xe lsr 25) in
      let ch = !g lxor (!e land (!f lxor !g)) in
      let temp1 = !hh + s1 + ch + Array.unsafe_get k i + Array.unsafe_get w i in
      let s0 = (xa lsr 2) lxor (xa lsr 13) lxor (xa lsr 22) in
      let maj = (!a land !b) lor (!c land (!a lor !b)) in
      let temp2 = s0 + maj in
      hh := !g;
      g := !f;
      f := !e;
      e := (!d + temp1) land mask;
      d := !c;
      c := !b;
      b := !a;
      a := (temp1 + temp2) land mask
    done;
    h.(0) <- (h.(0) + !a) land mask;
    h.(1) <- (h.(1) + !b) land mask;
    h.(2) <- (h.(2) + !c) land mask;
    h.(3) <- (h.(3) + !d) land mask;
    h.(4) <- (h.(4) + !e) land mask;
    h.(5) <- (h.(5) + !f) land mask;
    h.(6) <- (h.(6) + !g) land mask;
    h.(7) <- (h.(7) + !hh) land mask
  done

(* The SHA-NI kernel, same contract. The stub reads and writes [h] in
   place, never allocates and keeps the runtime lock, so verify-pool
   domains can call it. *)
external has_sha_ni : unit -> bool = "caml_iaccf_sha256_has_sha_ni" [@@noalloc]

external ni_blocks : int array -> string -> int -> int -> unit
  = "caml_iaccf_sha256_ni_blocks"
[@@noalloc]

(* The kernels; the module exported as [Kernel] adds [init] and [resume]
   below. *)
module K = struct
  type t = { name : string; blocks : int array -> string -> int -> int -> unit }

  let ocaml_blocks = { name = "ocaml"; blocks = ocaml_blocks }
  let native_blocks = { name = "sha-ni"; blocks = ni_blocks }
  let native_available = has_sha_ni ()
  let selected = if native_available then native_blocks else ocaml_blocks
  let name k = k.name
end

type ctx = {
  h : int array; (* 8 state words *)
  block : Bytes.t; (* 64-byte block buffer *)
  mutable block_len : int;
  mutable total_len : int; (* bytes fed so far *)
  blocks_of : int array -> string -> int -> int -> unit; (* the kernel *)
}

let make (kernel : K.t) =
  if kernel == K.native_blocks && not K.native_available then
    invalid_arg "Sha256.Kernel: this CPU has no SHA extensions";
  {
    h =
      [|
        0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f; 0x9b05688c;
        0x1f83d9ab; 0x5be0cd19;
      |];
    block = Bytes.create 64;
    block_len = 0;
    total_len = 0;
    blocks_of = kernel.blocks;
  }

let init () = make K.selected

(* Blocks compressed by every context in the process, for hashing-budget
   tests. Atomic because the verify pool hashes on other domains. *)
let blocks = Atomic.make 0
let blocks_compressed () = Atomic.get blocks

(* Compress the [n] whole blocks of [s] at [off] in one kernel call. *)
let compress ctx s off n =
  ignore (Atomic.fetch_and_add blocks n);
  ctx.blocks_of ctx.h s off n

(* The buffered block, viewed as a string for [compress]; it is not
   mutated while the view is in use. *)
let compress_buffered ctx = compress ctx (Bytes.unsafe_to_string ctx.block) 0 1

let feed ctx s =
  let n = String.length s in
  ctx.total_len <- ctx.total_len + n;
  let pos = ref 0 in
  if ctx.block_len > 0 then begin
    let take = min (64 - ctx.block_len) n in
    Bytes.blit_string s 0 ctx.block ctx.block_len take;
    ctx.block_len <- ctx.block_len + take;
    pos := take;
    if ctx.block_len = 64 then begin
      compress_buffered ctx;
      ctx.block_len <- 0
    end
  end;
  (* Whole blocks straight from the input, all in one call; only a tail
     is buffered. *)
  let whole = (n - !pos) / 64 in
  if whole > 0 then begin
    compress ctx s !pos whole;
    pos := !pos + (64 * whole)
  end;
  if !pos < n then begin
    Bytes.blit_string s !pos ctx.block ctx.block_len (n - !pos);
    ctx.block_len <- ctx.block_len + (n - !pos)
  end

let finalize ctx =
  (* Append 0x80, pad with zeros to 56 mod 64, then 64-bit length. *)
  Bytes.set ctx.block ctx.block_len '\x80';
  ctx.block_len <- ctx.block_len + 1;
  if ctx.block_len > 56 then begin
    Bytes.fill ctx.block ctx.block_len (64 - ctx.block_len) '\x00';
    compress_buffered ctx;
    ctx.block_len <- 0
  end;
  Bytes.fill ctx.block ctx.block_len (56 - ctx.block_len) '\x00';
  Bytes.set_int64_be ctx.block 56 (Int64.of_int (ctx.total_len * 8));
  compress_buffered ctx;
  let out = Bytes.create 32 in
  for i = 0 to 7 do
    Bytes.set_int32_be out (4 * i) (Int32.of_int ctx.h.(i))
  done;
  Bytes.unsafe_to_string out

(* One string, the smallest form a pending request can keep: the 8
   chaining words (32 bytes, big-endian), the total length fed (8 bytes),
   then the fed bytes past the last whole block. *)
type snapshot = string

let snapshot ctx =
  let b = Bytes.create (40 + ctx.block_len) in
  for i = 0 to 7 do
    Bytes.set_int32_be b (4 * i) (Int32.of_int ctx.h.(i))
  done;
  Bytes.set_int64_be b 32 (Int64.of_int ctx.total_len);
  Bytes.blit ctx.block 0 b 40 ctx.block_len;
  Bytes.unsafe_to_string b

let resume_with kernel s =
  let ctx = make kernel in
  for i = 0 to 7 do
    ctx.h.(i) <- Int32.to_int (String.get_int32_be s (4 * i)) land mask
  done;
  ctx.total_len <- Int64.to_int (String.get_int64_be s 32);
  ctx.block_len <- String.length s - 40;
  Bytes.blit_string s 40 ctx.block 0 ctx.block_len;
  ctx

let resume s = resume_with K.selected s

let digest s =
  let ctx = init () in
  feed ctx s;
  finalize ctx

let digest_concat parts =
  let ctx = init () in
  List.iter (feed ctx) parts;
  finalize ctx

module Kernel = struct
  include K

  let init = make
  let resume = resume_with
end
