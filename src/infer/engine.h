#ifndef GOALEX_INFER_ENGINE_H_
#define GOALEX_INFER_ENGINE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "infer/plan.h"
#include "obs/metrics.h"
#include "tensor/arena.h"
#include "tensor/forward.h"
#include "tensor/view.h"

namespace goalex::infer {

/// Per-worker execution scratch: one Arena allocation sized by the plan's
/// peak requirement, plus reusable attention head buffers. Created once per
/// thread and reused across forward passes — the steady-state hot path does
/// zero heap allocation. Not thread-safe; one context per worker.
class ExecutionContext {
 public:
  explicit ExecutionContext(const Plan& plan)
      : arena_(plan.arena_floats),
        base_(plan.arena_floats > 0 ? arena_.Allocate(plan.arena_floats)
                                    : nullptr) {}

  float* slot(int64_t offset) { return base_ + offset; }
  tensor::AttentionScratch& attention_scratch() { return attn_; }
  size_t arena_bytes() const { return arena_.bytes(); }

 private:
  tensor::Arena arena_;
  float* base_;
  tensor::AttentionScratch attn_;
};

/// Graph-free per-example token-classifier engine: executes a compiled Plan
/// against per-thread arenas. It is the `packed_inference = false` path of
/// the extractor and the reference the packed engine is checked against;
/// single sequences otherwise run on PackedEngine::ForwardSequence.
/// Outputs are bit-identical to the autograd evaluation path
/// (nn::TokenClassifier::ForwardLogits) because both strategies run the
/// same forward kernels (tensor/forward.h) in the same order — the engine
/// only removes the tape: no Node allocations, no std::function backward
/// closures, no per-op heap tensors.
///
/// Thread-safe after construction: the plan and borrowed weights are
/// immutable; each calling thread lazily gets its own ExecutionContext.
/// The borrowed weights share storage with the source module, so the
/// module must outlive the engine (in-place weight updates, e.g. from
/// nn::LoadParameters, remain visible without recompiling).
class Engine {
 public:
  explicit Engine(Plan plan);

  /// Compiles the forward pass of a trained model. Call at Train()/Load()
  /// completion; the model must outlive the engine.
  static Engine ForTokenClassifier(const nn::TokenClassifier& model);

  /// Runs the plan for `ids` in `ctx` and returns a view of the
  /// [T', logits_cols] logits, where T' = min(ids.size(), max_seq_len).
  /// The view aliases the
  /// context's arena and is valid until the next Execute on that context.
  /// Empty `ids` yields an empty view.
  tensor::TensorView Execute(const std::vector<int32_t>& ids,
                             ExecutionContext& ctx) const;

  /// Greedy per-token labels (argmax per logits row) using this thread's
  /// cached context. Bit-identical to nn::TokenClassifier::Predict.
  std::vector<int32_t> PredictTokens(const std::vector<int32_t>& ids) const;

  /// Logits via this thread's cached context (see Execute for lifetime).
  tensor::TensorView Logits(const std::vector<int32_t>& ids) const;

  /// Creates a fresh execution context (explicit-context callers: tests,
  /// benchmark harnesses).
  std::unique_ptr<ExecutionContext> NewContext() const;

  const Plan& plan() const { return plan_; }

  /// Scratch bytes one worker context allocates for this plan.
  size_t arena_bytes_per_context() const {
    return plan_.arena_floats * sizeof(float);
  }

 private:
  /// This thread's context for this engine, created on first use.
  ExecutionContext& ThreadContext() const;

  Plan plan_;
  /// Distinguishes engines in the per-thread context cache (addresses can
  /// be reused; serials cannot).
  uint64_t serial_;

  // Observability handles, resolved once at construction (null when
  // instrumentation is inactive): compiled-plan / execution counters and
  // the total arena bytes held by live worker contexts.
  obs::Counter* executions_ = nullptr;
  obs::Counter* contexts_ = nullptr;
  obs::Gauge* arena_bytes_ = nullptr;
};

}  // namespace goalex::infer

#endif  // GOALEX_INFER_ENGINE_H_
