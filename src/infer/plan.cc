#include "infer/plan.h"

#include "common/check.h"
#include "nn/transformer.h"

namespace goalex::infer {
namespace {

/// Incrementally lays out the plan: slots are fixed float ranges in the
/// worker arena, weights are borrowed parameter tensors.
class PlanBuilder {
 public:
  explicit PlanBuilder(const nn::TransformerConfig& config) {
    plan_.max_seq_len = config.max_seq_len;
    plan_.d_model = config.d_model;
    plan_.heads = config.heads;
    plan_.vocab_size = config.vocab_size;
  }

  /// Reserves a [max_seq_len, cols] slot.
  int64_t Slot(int64_t cols) {
    int64_t offset = static_cast<int64_t>(plan_.arena_floats);
    plan_.arena_floats += static_cast<size_t>(plan_.max_seq_len * cols);
    return offset;
  }

  int32_t Weight(const tensor::Var& var) {
    GOALEX_CHECK(var != nullptr);
    plan_.weights.push_back(var->value());  // Shared storage, no copy.
    return static_cast<int32_t>(plan_.weights.size() - 1);
  }

  void Embed(const tensor::Var& token_table, const tensor::Var& pos_table,
             int64_t out) {
    Plan::Step step;
    step.op = Plan::Op::kEmbed;
    step.out = out;
    step.cols_out = plan_.d_model;
    step.w0 = Weight(token_table);
    step.w1 = Weight(pos_table);
    plan_.steps.push_back(step);
  }

  void LayerNorm(int64_t in, int64_t out, const tensor::Var& gamma,
                 const tensor::Var& beta) {
    Plan::Step step;
    step.op = Plan::Op::kLayerNorm;
    step.in0 = in;
    step.out = out;
    step.cols_in = step.cols_out = plan_.d_model;
    step.w0 = Weight(gamma);
    step.w1 = Weight(beta);
    plan_.steps.push_back(step);
  }

  void Linear(int64_t in, int64_t out, const nn::Linear& layer) {
    Plan::Step step;
    step.op = Plan::Op::kLinear;
    step.in0 = in;
    step.out = out;
    step.cols_in = layer.in_features();
    step.cols_out = layer.out_features();
    step.w0 = Weight(layer.weight());
    step.w1 = Weight(layer.bias());
    plan_.steps.push_back(step);
  }

  void Attention(int64_t q, int64_t k, int64_t v, int64_t out) {
    Plan::Step step;
    step.op = Plan::Op::kAttention;
    step.in0 = q;
    step.in1 = k;
    step.in2 = v;
    step.out = out;
    step.cols_in = step.cols_out = plan_.d_model;
    plan_.steps.push_back(step);
  }

  void Gelu(int64_t in, int64_t out, int64_t cols) {
    Plan::Step step;
    step.op = Plan::Op::kGelu;
    step.in0 = in;
    step.out = out;
    step.cols_in = step.cols_out = cols;
    plan_.steps.push_back(step);
  }

  void Add(int64_t a, int64_t b, int64_t out) {
    Plan::Step step;
    step.op = Plan::Op::kAdd;
    step.in0 = a;
    step.in1 = b;
    step.out = out;
    step.cols_in = step.cols_out = plan_.d_model;
    plan_.steps.push_back(step);
  }

  Plan Take() { return std::move(plan_); }

 private:
  Plan plan_;
};

/// Emits embed + encoder layers + final LayerNorm. Returns the slot holding
/// the final [T, d_model] hidden states.
int64_t BuildEncoder(const nn::TransformerEncoder& encoder,
                     PlanBuilder& builder) {
  const nn::TransformerConfig& config = encoder.config();
  int64_t d = config.d_model;
  int64_t ffn = config.ffn_dim;

  // Slot layout mirrors the tape's value flow; slots are reused across
  // layers, which is what bounds the arena to O(max_seq_len * d_model).
  int64_t s_x = builder.Slot(d);     // Residual stream.
  int64_t s_h = builder.Slot(d);     // LayerNorm output.
  int64_t s_q = builder.Slot(d);
  int64_t s_k = builder.Slot(d);
  int64_t s_v = builder.Slot(d);
  int64_t s_attn = builder.Slot(d);  // Attention core / FFN output.
  int64_t s_x1 = builder.Slot(d);    // Post-attention residual.
  int64_t s_f1 = builder.Slot(ffn);  // FFN hidden pre-activation.
  int64_t s_f2 = builder.Slot(ffn);  // FFN hidden post-GELU.

  builder.Embed(encoder.token_embedding(), encoder.position_embedding(),
                s_x);
  for (const auto& layer : encoder.layers()) {
    // x1 = x + o_proj(Attn(LN1(x)))
    builder.LayerNorm(s_x, s_h, layer->ln1_gamma(), layer->ln1_beta());
    builder.Linear(s_h, s_q, layer->q_proj());
    builder.Linear(s_h, s_k, layer->k_proj());
    builder.Linear(s_h, s_v, layer->v_proj());
    builder.Attention(s_q, s_k, s_v, s_attn);
    builder.Linear(s_attn, s_h, layer->o_proj());
    builder.Add(s_x, s_h, s_x1);
    // x = x1 + ffn_out(Gelu(ffn_in(LN2(x1))))
    builder.LayerNorm(s_x1, s_h, layer->ln2_gamma(), layer->ln2_beta());
    builder.Linear(s_h, s_f1, layer->ffn_in());
    builder.Gelu(s_f1, s_f2, ffn);
    builder.Linear(s_f2, s_attn, layer->ffn_out());
    builder.Add(s_x1, s_attn, s_x);
  }
  builder.LayerNorm(s_x, s_h, encoder.final_gamma(), encoder.final_beta());
  return s_h;
}

}  // namespace

Plan CompileTokenClassifier(const nn::TokenClassifier& model) {
  PlanBuilder builder(model.encoder().config());
  int64_t s_states = BuildEncoder(model.encoder(), builder);
  int64_t s_logits = builder.Slot(model.num_labels());
  builder.Linear(s_states, s_logits, model.head());

  Plan plan = builder.Take();
  plan.logits_offset = s_logits;
  plan.logits_cols = model.num_labels();
  return plan;
}

}  // namespace goalex::infer
