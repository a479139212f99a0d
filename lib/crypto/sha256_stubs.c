/* SHA-256 block compression with the x86 SHA extensions.

   Sha256 calls [caml_iaccf_sha256_ni_blocks] to compress n whole 64-byte
   blocks into the 8 chaining words of a context, kept as an OCaml int
   array. The stub neither allocates nor raises nor releases the runtime
   lock, so it is declared [@@noalloc] and is safe on any domain.

   The kernel is compiled for the SHA, SSSE3 and SSE4.1 instructions by a
   per-function target attribute, so the rest of the library keeps the
   baseline x86-64 instruction set. Sha256 calls it only when
   [caml_iaccf_sha256_has_sha_ni] reported all three from CPUID. On other
   architectures that probe returns false and the OCaml kernel runs. */

#define CAML_NAME_SPACE
#include <caml/mlvalues.h>
#include <stdint.h>

#if defined(__x86_64__)

#include <cpuid.h>
#include <immintrin.h>

static int has_sha_ni(void)
{
  unsigned int a, b, c, d;
  if (!__get_cpuid(1, &a, &b, &c, &d))
    return 0;
  /* Leaf 1 ECX: bit 9 SSSE3, bit 19 SSE4.1. */
  if (!(c & (1u << 9)) || !(c & (1u << 19)))
    return 0;
  if (!__get_cpuid_count(7, 0, &a, &b, &c, &d))
    return 0;
  /* Leaf 7 subleaf 0 EBX: bit 29 SHA. */
  return (b >> 29) & 1;
}

static const uint32_t k256[64] = {
  0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
  0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
  0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
  0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
  0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
  0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
  0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
  0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
  0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
  0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
  0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
};

/* Four rounds on the message words [x] (W[4q..4q+3]). sha256rnds2 does
   two rounds on the low two words of its third operand, so the sum is
   shifted down for the second pair. */
#define ROUNDS(x, q)                                                       \
  do {                                                                     \
    msg = _mm_add_epi32((x), _mm_loadu_si128((const __m128i *)&k256[4 * (q)])); \
    s1 = _mm_sha256rnds2_epu32(s1, s0, msg);                               \
    s0 = _mm_sha256rnds2_epu32(s0, s1, _mm_shuffle_epi32(msg, 0x0E));      \
  } while (0)

/* Schedule: [next] (holding msg1 of W[4q-12..4q-5]) becomes
   W[4q+4..4q+7] from the current words [cur] and the previous [prev]. */
#define SCHED2(next, cur, prev)                                            \
  (next) = _mm_sha256msg2_epu32(                                           \
      _mm_add_epi32((next), _mm_alignr_epi8((cur), (prev), 4)), (cur))

/* Schedule: start the words three quads ahead in the register of [prev]. */
#define SCHED1(prev, cur) (prev) = _mm_sha256msg1_epu32((prev), (cur))

__attribute__((target("sha,sse4.1,ssse3")))
static void sha256_ni_blocks(uint32_t st[8], const uint8_t *p, intnat n)
{
  const __m128i bswap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  __m128i s0, s1, tmp, msg, x0, x1, x2, x3, abef, cdgh;

  /* Rearrange a..h into the ABEF/CDGH lanes sha256rnds2 works on. */
  tmp = _mm_shuffle_epi32(_mm_loadu_si128((const __m128i *)&st[0]), 0xB1);
  s1 = _mm_shuffle_epi32(_mm_loadu_si128((const __m128i *)&st[4]), 0x1B);
  s0 = _mm_alignr_epi8(tmp, s1, 8);
  s1 = _mm_blend_epi16(s1, tmp, 0xF0);

  for (; n > 0; n--, p += 64) {
    abef = s0;
    cdgh = s1;
    x0 = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)(p + 0)), bswap);
    ROUNDS(x0, 0);
    x1 = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)(p + 16)), bswap);
    ROUNDS(x1, 1);
    SCHED1(x0, x1);
    x2 = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)(p + 32)), bswap);
    ROUNDS(x2, 2);
    SCHED1(x1, x2);
    x3 = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)(p + 48)), bswap);
    ROUNDS(x3, 3);
    SCHED2(x0, x3, x2);
    SCHED1(x2, x3);
    ROUNDS(x0, 4);
    SCHED2(x1, x0, x3);
    SCHED1(x3, x0);
    ROUNDS(x1, 5);
    SCHED2(x2, x1, x0);
    SCHED1(x0, x1);
    ROUNDS(x2, 6);
    SCHED2(x3, x2, x1);
    SCHED1(x1, x2);
    ROUNDS(x3, 7);
    SCHED2(x0, x3, x2);
    SCHED1(x2, x3);
    ROUNDS(x0, 8);
    SCHED2(x1, x0, x3);
    SCHED1(x3, x0);
    ROUNDS(x1, 9);
    SCHED2(x2, x1, x0);
    SCHED1(x0, x1);
    ROUNDS(x2, 10);
    SCHED2(x3, x2, x1);
    SCHED1(x1, x2);
    ROUNDS(x3, 11);
    SCHED2(x0, x3, x2);
    SCHED1(x2, x3);
    ROUNDS(x0, 12);
    SCHED2(x1, x0, x3);
    SCHED1(x3, x0);
    ROUNDS(x1, 13);
    SCHED2(x2, x1, x0);
    ROUNDS(x2, 14);
    SCHED2(x3, x2, x1);
    ROUNDS(x3, 15);
    s0 = _mm_add_epi32(s0, abef);
    s1 = _mm_add_epi32(s1, cdgh);
  }

  /* Back from ABEF/CDGH to a..h. */
  tmp = _mm_shuffle_epi32(s0, 0x1B);
  s1 = _mm_shuffle_epi32(s1, 0xB1);
  _mm_storeu_si128((__m128i *)&st[0], _mm_blend_epi16(tmp, s1, 0xF0));
  _mm_storeu_si128((__m128i *)&st[4], _mm_alignr_epi8(s1, tmp, 8));
}

#endif

value caml_iaccf_sha256_has_sha_ni(value unit)
{
  (void)unit;
#if defined(__x86_64__)
  return Val_bool(has_sha_ni());
#else
  return Val_false;
#endif
}

/* [h]: the 8 chaining words as an OCaml int array, updated in place;
   [s], [off], [n]: compress the [n] blocks of [s] from byte [off]. The
   caller has checked the range and that the CPU has the extensions. */
value caml_iaccf_sha256_ni_blocks(value h, value s, value off, value n)
{
#if defined(__x86_64__)
  uint32_t st[8];
  int i;
  for (i = 0; i < 8; i++)
    st[i] = (uint32_t)Long_val(Field(h, i));
  sha256_ni_blocks(st, (const uint8_t *)String_val(s) + Long_val(off),
                   Long_val(n));
  /* Immediate ints: no write barrier needed. */
  for (i = 0; i < 8; i++)
    Field(h, i) = Val_long(st[i]);
#else
  (void)h;
  (void)s;
  (void)off;
  (void)n;
#endif
  return Val_unit;
}
