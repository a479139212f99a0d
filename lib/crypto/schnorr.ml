type secret_key = { x : Bignum.t; seed : string; pk_bytes : string }

(* [table] is the per-key fixed-base comb of y; built on demand for keys
   that verify repeatedly (replica keys, chatty clients). It is immutable
   after build, so concurrent readers are safe; a racing rebuild just
   wastes one build. *)
type public_key = { y : Bignum.t; y_bytes : string; mutable table : Group.table option }

let signature_size = 64
let pp_public_key ppf pk = Format.pp_print_string ppf (Iaccf_util.Hex.encode pk.y_bytes)
let public_key_equal a b = String.equal a.y_bytes b.y_bytes

let nonzero_scalar v = if Bignum.is_zero v then Bignum.one else v

let make_public x =
  let y = Group.pow_g x in
  { y; y_bytes = Group.element_to_bytes y; table = None }

let keypair_of_seed seed =
  let x = nonzero_scalar (Group.scalar_of_bytes (Sha256.digest ("iaccf-sk" ^ seed))) in
  let pk = make_public x in
  let sk = { x; seed = Sha256.digest ("iaccf-nonce-key" ^ seed); pk_bytes = pk.y_bytes } in
  (sk, pk)

let public_key sk = make_public sk.x
let public_key_to_bytes pk = pk.y_bytes

let public_key_of_bytes s =
  match Group.element_of_bytes s with
  | None -> None
  | Some y -> Some { y; y_bytes = Group.element_to_bytes y; table = None }

let precompute pk =
  match pk.table with
  | Some _ -> ()
  | None -> pk.table <- Some (Group.make_table pk.y)

let has_table pk = pk.table <> None

let challenge r_bytes pk_bytes digest =
  Group.scalar_of_bytes (Sha256.digest_concat [ r_bytes; pk_bytes; digest ])

let sign sk digest =
  if String.length digest <> 32 then invalid_arg "Schnorr.sign: digest must be 32 bytes";
  let pk_bytes = sk.pk_bytes in
  let k = nonzero_scalar (Group.scalar_of_bytes (Hmac.mac ~key:sk.seed digest)) in
  let r = Group.pow_g k in
  let r_bytes = Group.element_to_bytes r in
  let e = challenge r_bytes pk_bytes digest in
  let s = Group.reduce_scalar (Bignum.add k (Bignum.mul e sk.x)) in
  Bignum.to_bytes_be_fixed 32 e ^ Bignum.to_bytes_be_fixed 32 s

let verify pk digest ~signature =
  String.length digest = 32
  && String.length signature = 64
  &&
  let e = Bignum.of_bytes_be (String.sub signature 0 32) in
  let s = Bignum.of_bytes_be (String.sub signature 32 32) in
  Bignum.compare e Group.n < 0
  && Bignum.compare s Group.n < 0
  &&
  (* R' = g^s * y^(n-e); y^n = 1, so this inverts y^e without divisions.
     Known keys pair their fixed-base comb with g's on one 32-step
     squaring chain; unknown keys share one Straus window chain across
     both bases. *)
  let ne = Bignum.sub Group.n e in
  let r' =
    match pk.table with
    | Some table -> Group.multi_pow_table [ (Group.g_table, s); (table, ne) ]
    | None -> Group.multi_pow [ (Group.g, s); (pk.y, ne) ]
  in
  let e' = challenge (Group.element_to_bytes r') pk.y_bytes digest in
  Bignum.equal e e'
