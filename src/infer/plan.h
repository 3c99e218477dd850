#ifndef GOALEX_INFER_PLAN_H_
#define GOALEX_INFER_PLAN_H_

#include <cstdint>
#include <vector>

#include "tensor/tensor.h"

namespace goalex::nn {
class TokenClassifier;
}  // namespace goalex::nn

namespace goalex::infer {

/// A compiled, graph-free forward pass. Compilation walks the trained
/// model's architecture exactly once and freezes:
///   - the op sequence (a flat step list — no Node graph, no std::function
///     closures, no shared_ptr traffic at execution time),
///   - the scratch layout (every intermediate activation gets a fixed float
///     offset into a per-worker Arena sized by max_seq_len), and
///   - the weights (borrowed from the module's parameter tensors by shared
///     storage — zero copies, so optimizer/Load updates written in place
///     remain visible).
///
/// Buffer rows scale with the live sequence length T <= max_seq_len at
/// execution time; columns and offsets are fixed, so a shorter sequence
/// simply uses a prefix of each slot.
struct Plan {
  enum class Op : uint8_t {
    kEmbed,      ///< out[T,d] = token_table[ids] + pos_table[0..T)
    kLayerNorm,  ///< out = LN(in0) with gamma w0, beta w1
    kLinear,     ///< out = in0 * W(w0) + bias(w1)
    kAttention,  ///< out = MHA(in0, in1, in2)
    kGelu,       ///< out = gelu(in0), elementwise
    kAdd,        ///< out = in0 + in1, elementwise (residual)
  };

  struct Step {
    Op op;
    int64_t in0 = -1;  ///< Arena float offsets of operand slots.
    int64_t in1 = -1;
    int64_t in2 = -1;
    int64_t out = -1;
    int64_t cols_in = 0;   ///< Operand columns (d_model / ffn_dim / ...).
    int64_t cols_out = 0;  ///< Result columns.
    int32_t w0 = -1;  ///< Indices into Plan::weights.
    int32_t w1 = -1;
  };

  std::vector<Step> steps;
  /// Borrowed parameter tensors (shared storage with the nn::Module — the
  /// module must outlive the plan).
  std::vector<tensor::Tensor> weights;

  int32_t max_seq_len = 0;
  int32_t d_model = 0;
  int32_t heads = 0;
  int64_t vocab_size = 0;

  /// Total scratch floats one worker needs (a function of max_seq_len).
  size_t arena_floats = 0;

  /// Where the final [T, logits_cols] logits land.
  int64_t logits_offset = 0;
  int64_t logits_cols = 0;
};

/// Compiles the forward pass of a trained token classifier. Call after
/// Train()/Load() completes; the returned plan borrows the live weights.
Plan CompileTokenClassifier(const nn::TokenClassifier& model);

}  // namespace goalex::infer

#endif  // GOALEX_INFER_PLAN_H_
