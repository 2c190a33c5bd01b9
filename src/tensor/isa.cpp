#include "tensor/isa.hpp"

namespace fleda {
namespace {

IsaTier detect_tier() {
#if FLEDA_ISA_X86
  // libgcc's CPUID probe also checks that the OS saves the wider
  // register state (XGETBV) before it reports AVX2 or AVX-512F.
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx512f")) return IsaTier::kAvx512;
  if (__builtin_cpu_supports("avx2")) return IsaTier::kAvx2;
#endif
  return IsaTier::kBase;
}

// Resolved during static initialization. A kernel that ran before it
// (none does) would read the zero-initialized kBase, which every host
// runs and which gives the same bits.
const IsaTier g_host_tier = detect_tier();

}  // namespace

const char* to_string(IsaTier tier) {
  switch (tier) {
    case IsaTier::kBase:
      return "base";
    case IsaTier::kAvx2:
      return "avx2";
    case IsaTier::kAvx512:
      return "avx512";
  }
  return "?";
}

IsaTier host_isa_tier() { return g_host_tier; }

}  // namespace fleda
