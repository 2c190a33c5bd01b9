// fleda-lint-fixture: expect fused-fma
// Known-bad: fused multiply-adds round once where the kernels round a
// product and a sum separately, so an ISA variant using one would stop
// matching the others bit for bit.
#include <cmath>
#include <immintrin.h>

namespace fixture {

float bad_std_fma(float a, float b, float c) { return std::fma(a, b, c); }

float bad_c_fmaf(float a, float b, float c) { return fmaf(a, b, c); }

double bad_builtin(double a, double b, double c) {
  return __builtin_fma(a, b, c);
}

__attribute__((target("avx2,fma"))) __m256 bad_intrinsic(__m256 a, __m256 b,
                                                         __m256 c) {
  return _mm256_fmadd_ps(a, b, c);
}

__attribute__((target("avx512f"))) __m512d bad_masked(__m512d a, __mmask8 k,
                                                      __m512d b, __m512d c) {
  return _mm512_mask_fnmsub_pd(a, k, b, c);
}

}  // namespace fixture
