#include "infer/engine.h"

#include <algorithm>
#include <atomic>
#include <unordered_map>

#include "common/check.h"

namespace goalex::infer {
namespace {

uint64_t NextSerial() {
  static std::atomic<uint64_t> serial{0};
  return serial.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

Engine::Engine(Plan plan) : plan_(std::move(plan)), serial_(NextSerial()) {
  GOALEX_CHECK(!plan_.steps.empty());
  GOALEX_CHECK_GT(plan_.max_seq_len, 0);
  if (obs::Active()) {
    auto& registry = obs::MetricsRegistry::Default();
    registry.GetCounter("infer.plan.compiled")->Increment();
    executions_ = registry.GetCounter("infer.plan.executions");
    contexts_ = registry.GetCounter("infer.contexts");
    arena_bytes_ = registry.GetGauge("infer.arena.bytes");
  }
}

Engine Engine::ForTokenClassifier(const nn::TokenClassifier& model) {
  return Engine(CompileTokenClassifier(model));
}

std::unique_ptr<ExecutionContext> Engine::NewContext() const {
  auto ctx = std::make_unique<ExecutionContext>(plan_);
  if (contexts_ != nullptr) contexts_->Increment();
  if (arena_bytes_ != nullptr) {
    arena_bytes_->Add(static_cast<double>(ctx->arena_bytes()));
  }
  return ctx;
}

ExecutionContext& Engine::ThreadContext() const {
  // One context per (thread, engine). Keyed by serial rather than `this`:
  // addresses can be reused by a later engine, serials cannot.
  thread_local std::unordered_map<uint64_t,
                                  std::unique_ptr<ExecutionContext>>
      cache;
  std::unique_ptr<ExecutionContext>& slot = cache[serial_];
  if (slot == nullptr) slot = NewContext();
  return *slot;
}

tensor::TensorView Engine::Execute(const std::vector<int32_t>& ids,
                                   ExecutionContext& ctx) const {
  if (ids.empty()) {
    return tensor::TensorView(nullptr, 0, plan_.logits_cols);
  }
  const int64_t t = std::min<int64_t>(static_cast<int64_t>(ids.size()),
                                      plan_.max_seq_len);
  for (const Plan::Step& step : plan_.steps) {
    float* out = ctx.slot(step.out);
    switch (step.op) {
      case Plan::Op::kEmbed:
        tensor::EmbedSumForward(plan_.weights[step.w0].data(),
                                plan_.vocab_size,
                                plan_.weights[step.w1].data(), ids.data(), t,
                                step.cols_out, out);
        break;
      case Plan::Op::kLayerNorm:
        tensor::LayerNormForward(ctx.slot(step.in0),
                                 plan_.weights[step.w0].data(),
                                 plan_.weights[step.w1].data(), out, t,
                                 step.cols_in, 1e-5f, /*xhat=*/nullptr,
                                 /*inv_std=*/nullptr);
        break;
      case Plan::Op::kLinear:
        tensor::LinearForward(ctx.slot(step.in0),
                              plan_.weights[step.w0].data(),
                              plan_.weights[step.w1].data(), out, t,
                              step.cols_in, step.cols_out);
        break;
      case Plan::Op::kAttention:
        tensor::AttentionForward(ctx.slot(step.in0), ctx.slot(step.in1),
                                 ctx.slot(step.in2), out, t, step.cols_in,
                                 plan_.heads, /*probs=*/nullptr,
                                 ctx.attention_scratch());
        break;
      case Plan::Op::kGelu:
        tensor::GeluForward(ctx.slot(step.in0), out, t * step.cols_in);
        break;
      case Plan::Op::kAdd:
        tensor::AddForward(ctx.slot(step.in0), ctx.slot(step.in1), out,
                           t * step.cols_in);
        break;
    }
  }
  if (executions_ != nullptr) executions_->Increment();
  return tensor::TensorView(ctx.slot(plan_.logits_offset), t,
                            plan_.logits_cols);
}

tensor::TensorView Engine::Logits(const std::vector<int32_t>& ids) const {
  return Execute(ids, ThreadContext());
}

std::vector<int32_t> Engine::PredictTokens(
    const std::vector<int32_t>& ids) const {
  if (ids.empty()) return {};
  tensor::TensorView logits = Logits(ids);
  std::vector<int32_t> labels(static_cast<size_t>(logits.rows()));
  for (int64_t i = 0; i < logits.rows(); ++i) {
    labels[static_cast<size_t>(i)] =
        tensor::ArgmaxRow(logits.row(i), logits.cols());
  }
  return labels;
}

}  // namespace goalex::infer
