/* Field arithmetic modulo p = 2^255 - 19 on five 51-bit limbs.

   Fe keeps an element as five little-endian uint64_t limbs in a 40-byte
   OCaml bytes value, value = l0 + l1 2^51 + l2 2^102 + l3 2^153 +
   l4 2^204. Elements are loose: a limb may exceed 51 bits, and the value
   is only congruent to the element mod p.

   Bounds. mul and sqr accept limbs below 2^54. A product column then
   sums five terms below 19 * 2^108, so every column fits 115 bits, every
   carry out of a column fits 64 bits, and the carry out of the top limb,
   folded back as 2^255 = 19 (mod p), stays below 2^64 too. Results have
   limbs 0, 2, 3, 4 below 2^51 and limb 1 below 2^51 + 2^13, so a result
   (or the sum of two) is again a valid input. of_bytes yields limbs below
   2^52. Only to_bytes reduces fully.

   The group exponent n = p - 1 = 2^255 - 20 is pseudo-Mersenne too, so
   the same product, with 2^255 = 20 (mod n), gives the signer's
   k + e*x mod n (caml_iaccf_scalar_muladd); the bounds above hold with
   20 in place of 19.

   The stubs neither allocate nor raise nor release the runtime lock, so
   they are declared [@@noalloc] and are safe on any domain. Every
   function reads all its inputs before writing its output, so the
   destination may alias an input. */

#define CAML_NAME_SPACE
#include <caml/mlvalues.h>
#include <stdint.h>
#include <string.h>

#if !defined(__SIZEOF_INT128__)
#error "fe_stubs.c needs unsigned __int128 (gcc or clang on a 64-bit target)"
#endif

typedef unsigned __int128 u128;

/* The modulus constant c must fold into each caller's code as an
   immediate, so the product helpers are always inlined. */
#define INLINE static inline __attribute__((always_inline))

#define MASK51 ((UINT64_C(1) << 51) - 1)

static inline void fe_load(uint64_t r[5], value v)
{
  memcpy(r, Bytes_val(v), 5 * sizeof(uint64_t));
}

static inline void fe_store(value v, const uint64_t r[5])
{
  memcpy(Bytes_val(v), r, 5 * sizeof(uint64_t));
}

/* Carry the five wide columns down to 51-bit limbs, folding the carry
   out of the top limb into limb 0 as [c] (2^255 = c modulo 2^255 - c)
   and that limb's excess into limb 1. */
INLINE void carry_wide(uint64_t r[5], u128 t0, u128 t1, u128 t2,
                       u128 t3, u128 t4, uint64_t c)
{
  uint64_t k;
  r[0] = (uint64_t)t0 & MASK51;
  k = (uint64_t)(t0 >> 51);
  t1 += k;
  r[1] = (uint64_t)t1 & MASK51;
  k = (uint64_t)(t1 >> 51);
  t2 += k;
  r[2] = (uint64_t)t2 & MASK51;
  k = (uint64_t)(t2 >> 51);
  t3 += k;
  r[3] = (uint64_t)t3 & MASK51;
  k = (uint64_t)(t3 >> 51);
  t4 += k;
  r[4] = (uint64_t)t4 & MASK51;
  k = (uint64_t)(t4 >> 51);
  r[0] += k * c;
  r[1] += r[0] >> 51;
  r[0] &= MASK51;
}

/* r = a * b modulo 2^255 - c. Limb i * limb j lands at 2^(51(i+j));
   from i + j = 5 on, 2^255 = c folds it down five limbs, so b's high
   limbs enter times c. */
INLINE void mul_mod(uint64_t r[5], const uint64_t a[5], const uint64_t b[5],
                    uint64_t c)
{
  uint64_t b1 = c * b[1], b2 = c * b[2], b3 = c * b[3], b4 = c * b[4];
  u128 t0 = (u128)a[0] * b[0] + (u128)a[1] * b4 + (u128)a[2] * b3
            + (u128)a[3] * b2 + (u128)a[4] * b1;
  u128 t1 = (u128)a[0] * b[1] + (u128)a[1] * b[0] + (u128)a[2] * b4
            + (u128)a[3] * b3 + (u128)a[4] * b2;
  u128 t2 = (u128)a[0] * b[2] + (u128)a[1] * b[1] + (u128)a[2] * b[0]
            + (u128)a[3] * b4 + (u128)a[4] * b3;
  u128 t3 = (u128)a[0] * b[3] + (u128)a[1] * b[2] + (u128)a[2] * b[1]
            + (u128)a[3] * b[0] + (u128)a[4] * b4;
  u128 t4 = (u128)a[0] * b[4] + (u128)a[1] * b[3] + (u128)a[2] * b[2]
            + (u128)a[3] * b[1] + (u128)a[4] * b[0];
  carry_wide(r, t0, t1, t2, t3, t4, c);
}

value caml_iaccf_fe_mul(value dst, value va, value vb)
{
  uint64_t a[5], b[5], r[5];
  fe_load(a, va);
  fe_load(b, vb);
  mul_mod(r, a, b, 19);
  fe_store(dst, r);
  return Val_unit;
}

/* As mul, with each cross product a_i a_j (i < j) taken once and
   doubled: 15 multiplies instead of 25. */
value caml_iaccf_fe_sqr(value dst, value va)
{
  uint64_t a[5], r[5];
  fe_load(a, va);
  uint64_t d0 = 2 * a[0], d1 = 2 * a[1], d2 = 2 * a[2], d3 = 2 * a[3];
  uint64_t a3 = 19 * a[3], a4 = 19 * a[4];
  u128 t0 = (u128)a[0] * a[0] + (u128)d1 * a4 + (u128)d2 * a3;
  u128 t1 = (u128)d0 * a[1] + (u128)d2 * a4 + (u128)a[3] * a3;
  u128 t2 = (u128)d0 * a[2] + (u128)a[1] * a[1] + (u128)d3 * a4;
  u128 t3 = (u128)d0 * a[3] + (u128)d1 * a[2] + (u128)a[4] * a4;
  u128 t4 = (u128)d0 * a[4] + (u128)d1 * a[3] + (u128)a[2] * a[2];
  carry_wide(r, t0, t1, t2, t3, t4, 19);
  fe_store(dst, r);
  return Val_unit;
}

static inline uint64_t load64_be(const unsigned char *p)
{
  uint64_t w = 0;
  for (int i = 0; i < 8; i++)
    w = (w << 8) | p[i];
  return w;
}

static inline void store64_be(unsigned char *p, uint64_t w)
{
  for (int i = 7; i >= 0; i--) {
    p[i] = (unsigned char)w;
    w >>= 8;
  }
}

/* The limbs of a 32-byte big-endian value below 2^256: limbs 0..3
   below 2^51, limb 4 below 2^52. */
static void unpack(uint64_t r[5], const unsigned char *p)
{
  uint64_t w3 = load64_be(p), w2 = load64_be(p + 8);
  uint64_t w1 = load64_be(p + 16), w0 = load64_be(p + 24);
  r[0] = w0 & MASK51;
  r[1] = ((w0 >> 51) | (w1 << 13)) & MASK51;
  r[2] = ((w1 >> 38) | (w2 << 26)) & MASK51;
  r[3] = ((w2 >> 25) | (w3 << 39)) & MASK51;
  r[4] = w3 >> 12;
}

/* Reduce limbs below 2^54 fully modulo m = 2^255 - c (c <= 20) and
   write the 32-byte big-endian encoding, in [0, m). */
static void freeze_pack(unsigned char *p, const uint64_t a[5], uint64_t c)
{
  uint64_t t[5], k, q;
  memcpy(t, a, sizeof t);
  /* Two carry passes take limbs below 2^54 to limbs 1..4 below 2^51 and
     limb 0 below 2^51 + c: the value is below 2^255 + c < 2m. */
  for (int pass = 0; pass < 2; pass++) {
    k = t[0] >> 51; t[0] &= MASK51; t[1] += k;
    k = t[1] >> 51; t[1] &= MASK51; t[2] += k;
    k = t[2] >> 51; t[2] &= MASK51; t[3] += k;
    k = t[3] >> 51; t[3] &= MASK51; t[4] += k;
    k = t[4] >> 51; t[4] &= MASK51; t[0] += c * k;
  }
  /* q = 1 exactly when value + c reaches 2^255, that is, value >= m;
     then value - m is value + c with bit 255 dropped. */
  q = (t[0] + c) >> 51;
  q = (t[1] + q) >> 51;
  q = (t[2] + q) >> 51;
  q = (t[3] + q) >> 51;
  q = (t[4] + q) >> 51;
  t[0] += c * q;
  k = t[0] >> 51; t[0] &= MASK51; t[1] += k;
  k = t[1] >> 51; t[1] &= MASK51; t[2] += k;
  k = t[2] >> 51; t[2] &= MASK51; t[3] += k;
  k = t[3] >> 51; t[3] &= MASK51; t[4] += k;
  t[4] &= MASK51;
  store64_be(p, (t[3] >> 39) | (t[4] << 12));
  store64_be(p + 8, (t[2] >> 26) | (t[3] << 25));
  store64_be(p + 16, (t[1] >> 13) | (t[2] << 38));
  store64_be(p + 24, t[0] | (t[1] << 51));
}

/* [s]: 32 big-endian bytes, any value below 2^256 (the caller checked
   the length). */
value caml_iaccf_fe_of_bytes(value dst, value s)
{
  uint64_t r[5];
  unpack(r, (const unsigned char *)String_val(s));
  fe_store(dst, r);
  return Val_unit;
}

/* Writes the canonical encoding, in [0, p), of [va] into the 32 bytes
   of [out]. */
value caml_iaccf_fe_to_bytes(value out, value va)
{
  uint64_t a[5];
  fe_load(a, va);
  freeze_pack(Bytes_val(out), a, 19);
  return Val_unit;
}

/* Writes e * x + k mod n, n = 2^255 - 20, into the 32 bytes of [out];
   [e], [x], [k]: 32 big-endian bytes each (the caller checked). */
value caml_iaccf_scalar_muladd(value out, value ve, value vx, value vk)
{
  uint64_t e[5], x[5], k[5], r[5];
  unpack(e, (const unsigned char *)String_val(ve));
  unpack(x, (const unsigned char *)String_val(vx));
  unpack(k, (const unsigned char *)String_val(vk));
  mul_mod(r, e, x, 20);
  /* Limbs below 2^52 plus limbs below 2^52: below 2^54. */
  for (int i = 0; i < 5; i++)
    r[i] += k[i];
  freeze_pack(Bytes_val(out), r, 20);
  return Val_unit;
}
