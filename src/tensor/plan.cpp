#include "tensor/plan.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <stdexcept>

namespace fleda {
namespace {

// Cost-model cache sizes. Deliberately compile-time constants (not
// probed from the host) so a plan — and therefore every result bit —
// is a pure function of the GEMM shape.
constexpr std::int64_t kL1Bytes = 32 * 1024;
constexpr std::int64_t kL2Bytes = 1024 * 1024;

std::int64_t round_up(std::int64_t v, std::int64_t to) {
  return (v + to - 1) / to * to;
}

std::int64_t round_down(std::int64_t v, std::int64_t to) {
  return v / to * to;
}

PlanMode mode_from_env() {
  const char* env = std::getenv("FLEDA_PLAN");
  return env == nullptr ? PlanMode::kAuto : parse_plan_mode(env);
}

// Read during static initialization, on the main thread before any
// pool worker exists, so a bad FLEDA_PLAN ends the process at start-up
// with parse_plan_mode's message. Read lazily, the first GEMM could run
// on a pool worker, and parallel_for does not carry exceptions back to
// its caller.
std::atomic<int> g_plan_mode{static_cast<int>(mode_from_env())};

}  // namespace

const char* to_string(GemmOp op) {
  switch (op) {
    case GemmOp::kNN:
      return "nn";
    case GemmOp::kAT:
      return "at";
    case GemmOp::kBT:
      return "bt";
  }
  return "?";
}

const char* to_string(GemmStrategy strategy) {
  switch (strategy) {
    case GemmStrategy::kReference:
      return "reference";
    case GemmStrategy::kPacked:
      return "packed";
  }
  return "?";
}

PlanMode plan_mode() {
  return static_cast<PlanMode>(g_plan_mode.load(std::memory_order_relaxed));
}

PlanMode parse_plan_mode(std::string_view value) {
  if (value == "auto") return PlanMode::kAuto;
  if (value == "reference") return PlanMode::kReference;
  throw std::invalid_argument("FLEDA_PLAN='" + std::string(value) +
                              "' is not a plan mode; expected 'auto' or "
                              "'reference'");
}

void set_plan_mode(PlanMode mode) {
  g_plan_mode.store(static_cast<int>(mode), std::memory_order_relaxed);
}

std::string GemmPlan::to_string() const {
  std::string s = "gemm(";
  s += fleda::to_string(shape.op);
  s += ", m=" + std::to_string(shape.m) + ", k=" + std::to_string(shape.k) +
       ", n=" + std::to_string(shape.n) + ") -> ";
  s += fleda::to_string(strategy);
  if (strategy == GemmStrategy::kPacked) {
    s += "{mc=" + std::to_string(mc) + ", kc=" + std::to_string(kc) +
         ", nc=" + std::to_string(nc) + "}";
  }
  return s;
}

GemmPlan make_gemm_plan(GemmOp op, std::int64_t m, std::int64_t k,
                        std::int64_t n) {
  GemmPlan plan;
  plan.shape = GemmShape{op, m, k, n};
  plan.flops = 2.0 * static_cast<double>(m) * static_cast<double>(k) *
               static_cast<double>(n);

  // Packing pays for itself only when the B panels are reused across
  // several MR row-panels and the accumulator tile runs long enough in
  // k. Skinny shapes (vector-matrix products, rank-1 updates, tiny
  // tails) stay on the reference axpy/dot kernels, which stream those
  // shapes at close to memory speed already — and at k < ~48 the
  // reference kernels keep the whole B slab L1-resident per output row,
  // which packing cannot beat (measured: the k=32 deconv GEMM runs
  // 20% faster on reference).
  const bool fat = m >= 2 * kGemmMR && n >= 2 * kGemmNR && k >= 48 &&
                   m * k * n >= 32 * 1024;
  if (!fat) {
    plan.strategy = GemmStrategy::kReference;
    return plan;
  }

  plan.strategy = GemmStrategy::kPacked;
  // KC: one A micro-panel (MR*kc) plus one B micro-panel (NR*kc) of
  // floats should fit in L1 with room to spare for the C tile and the
  // streamed cache lines.
  const std::int64_t kc_budget =
      kL1Bytes / (static_cast<std::int64_t>(sizeof(float)) *
                  (kGemmMR + kGemmNR));
  plan.kc = std::min<std::int64_t>(k, round_down(kc_budget, 8));
  if (plan.kc < 8) plan.kc = std::min<std::int64_t>(k, 8);
  // NC: the packed B block (kc x nc floats) should occupy at most half
  // of L2, so it survives the sweep over all row panels.
  std::int64_t nc_budget =
      (kL2Bytes / 2) / (static_cast<std::int64_t>(sizeof(float)) * plan.kc);
  nc_budget = round_down(nc_budget, kGemmNR);
  if (nc_budget < kGemmNR) nc_budget = kGemmNR;
  plan.nc = std::min<std::int64_t>(round_up(n, kGemmNR), nc_budget);
  // MC: the row-panel span handed to one parallel_for chunk; MR-aligned
  // so partitions never split a micro-panel.
  plan.mc = std::min<std::int64_t>(round_up(m, kGemmMR), 96);
  return plan;
}

GemmPlan gemm_plan(GemmOp op, std::int64_t m, std::int64_t k,
                   std::int64_t n) {
  if (plan_mode() == PlanMode::kAuto) return make_gemm_plan(op, m, k, n);
  GemmPlan plan;
  plan.shape = GemmShape{op, m, k, n};
  plan.strategy = GemmStrategy::kReference;
  plan.flops = 2.0 * static_cast<double>(m) * static_cast<double>(k) *
               static_cast<double>(n);
  return plan;
}

}  // namespace fleda
