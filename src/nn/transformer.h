#ifndef GOALEX_NN_TRANSFORMER_H_
#define GOALEX_NN_TRANSFORMER_H_

#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "nn/linear.h"
#include "nn/module.h"
#include "tensor/ops.h"

namespace goalex::nn {

/// Architecture hyperparameters of the transformer encoder. The presets in
/// core/config.h instantiate the model families compared in Figure 4
/// (RoBERTa-like vs BERT-like, original vs distilled).
struct TransformerConfig {
  int32_t vocab_size = 0;
  int32_t max_seq_len = 128;
  int32_t d_model = 64;
  int32_t heads = 4;
  int32_t layers = 2;
  int32_t ffn_dim = 128;
  float dropout = 0.1f;
  /// BERT uses fixed sinusoidal position encodings in this reproduction;
  /// RoBERTa uses learned position embeddings.
  bool sinusoidal_positions = false;
};

/// One pre-LN encoder layer:
///   x = x + Attn(LN1(x));  x = x + FFN(LN2(x))
/// with FFN(h) = Gelu(h W1 + b1) W2 + b2.
///
/// Forward comes in two structurally separate flavors: the training overload
/// takes the dropout Rng, the evaluation overload has no Rng parameter and
/// no dropout call sites at all — inference cannot apply dropout by
/// construction, rather than by a correctly-passed flag.
class EncoderLayer : public Module {
 public:
  EncoderLayer(const TransformerConfig& config, Rng& rng);

  /// Evaluation forward (no dropout, deterministic).
  tensor::Var Forward(const tensor::Var& x) const;

  /// Training forward (applies dropout driven by `rng`).
  tensor::Var Forward(const tensor::Var& x, Rng& rng) const;

  void CollectParameters(const std::string& prefix,
                         std::vector<NamedParam>& out) const override;

  /// Borrowed-weight accessors for inference plan compilation (src/infer).
  const Linear& q_proj() const { return *q_proj_; }
  const Linear& k_proj() const { return *k_proj_; }
  const Linear& v_proj() const { return *v_proj_; }
  const Linear& o_proj() const { return *o_proj_; }
  const Linear& ffn_in() const { return *ffn_in_; }
  const Linear& ffn_out() const { return *ffn_out_; }
  const tensor::Var& ln1_gamma() const { return ln1_gamma_; }
  const tensor::Var& ln1_beta() const { return ln1_beta_; }
  const tensor::Var& ln2_gamma() const { return ln2_gamma_; }
  const tensor::Var& ln2_beta() const { return ln2_beta_; }

 private:
  TransformerConfig config_;
  std::unique_ptr<Linear> q_proj_, k_proj_, v_proj_, o_proj_;
  std::unique_ptr<Linear> ffn_in_, ffn_out_;
  tensor::Var ln1_gamma_, ln1_beta_, ln2_gamma_, ln2_beta_;
};

/// Transformer encoder: token embeddings + position encodings -> N encoder
/// layers -> final LayerNorm. Processes one sequence at a time ([T] token
/// ids -> [T, d_model] contextual states); batching is done by gradient
/// accumulation in the trainer.
class TransformerEncoder : public Module {
 public:
  TransformerEncoder(const TransformerConfig& config, Rng& rng);

  /// Evaluation encode of `ids` (length <= max_seq_len; longer inputs are
  /// truncated). Dropout-free by construction.
  tensor::Var Forward(const std::vector<int32_t>& ids) const;

  /// Training encode (embedding + per-layer dropout driven by `rng`).
  tensor::Var Forward(const std::vector<int32_t>& ids, Rng& rng) const;

  void CollectParameters(const std::string& prefix,
                         std::vector<NamedParam>& out) const override;

  const TransformerConfig& config() const { return config_; }

  /// Borrowed-weight accessors for inference plan compilation.
  const tensor::Var& token_embedding() const { return token_embedding_; }
  const tensor::Var& position_embedding() const {
    return position_embedding_;
  }
  const std::vector<std::unique_ptr<EncoderLayer>>& layers() const {
    return layers_;
  }
  const tensor::Var& final_gamma() const { return final_gamma_; }
  const tensor::Var& final_beta() const { return final_beta_; }

 private:
  /// Truncates to max_seq_len and builds the position id ramp.
  std::vector<int32_t> Truncated(const std::vector<int32_t>& ids) const;
  tensor::Var Embed(const std::vector<int32_t>& truncated) const;

  TransformerConfig config_;
  tensor::Var token_embedding_;     ///< [vocab, d_model]
  tensor::Var position_embedding_;  ///< [max_seq_len, d_model]
  bool position_trainable_;
  std::vector<std::unique_ptr<EncoderLayer>> layers_;
  tensor::Var final_gamma_, final_beta_;
};

/// Token classification model: encoder + linear head to `num_labels`
/// per-token logits. This is the sequence-labeling model of Section 3.3.
class TokenClassifier : public Module {
 public:
  TokenClassifier(const TransformerConfig& config, int32_t num_labels,
                  Rng& rng);

  /// Evaluation logits [T', num_labels] where T' = min(T, max_len). This is
  /// the autograd reference path the inference engine is bit-compared to.
  tensor::Var ForwardLogits(const std::vector<int32_t>& ids) const;

  /// Training logits (dropout active).
  tensor::Var ForwardLogits(const std::vector<int32_t>& ids, Rng& rng) const;

  /// Mean cross-entropy loss against `targets` (-1 = ignore) with dropout
  /// active (training). Target vector longer than the truncated input is
  /// truncated to match.
  tensor::Var ForwardLoss(const std::vector<int32_t>& ids,
                          const std::vector<int32_t>& targets,
                          Rng& rng) const;

  /// Evaluation loss (no dropout) — diagnostics and tests.
  tensor::Var ForwardLoss(const std::vector<int32_t>& ids,
                          const std::vector<int32_t>& targets) const;

  /// Greedy per-token prediction (argmax over labels) via the autograd
  /// evaluation path. Production inference uses the graph-free engines in
  /// src/infer instead, which are bit-identical.
  std::vector<int32_t> Predict(const std::vector<int32_t>& ids) const;

  void CollectParameters(const std::string& prefix,
                         std::vector<NamedParam>& out) const override;

  const TransformerEncoder& encoder() const { return *encoder_; }
  const Linear& head() const { return *head_; }
  int32_t num_labels() const { return num_labels_; }

 private:
  tensor::Var LossFromLogits(const tensor::Var& logits,
                             const std::vector<int32_t>& targets) const;

  std::unique_ptr<TransformerEncoder> encoder_;
  std::unique_ptr<Linear> head_;
  int32_t num_labels_;
};

/// Sequence classification model: encoder + mean pooling + linear head.
/// Used by the GoalSpotter objective-detection substrate.
class SequenceClassifier : public Module {
 public:
  SequenceClassifier(const TransformerConfig& config, int32_t num_classes,
                     Rng& rng);

  /// Evaluation logits [1, num_classes] (no dropout, deterministic).
  tensor::Var ForwardLogits(const std::vector<int32_t>& ids) const;

  /// Training logits (dropout active).
  tensor::Var ForwardLogits(const std::vector<int32_t>& ids, Rng& rng) const;

  /// Training loss (dropout active).
  tensor::Var ForwardLoss(const std::vector<int32_t>& ids, int32_t target,
                          Rng& rng) const;

  /// Argmax class via the autograd evaluation path.
  int32_t Predict(const std::vector<int32_t>& ids) const;

  void CollectParameters(const std::string& prefix,
                         std::vector<NamedParam>& out) const override;

  const TransformerEncoder& encoder() const { return *encoder_; }
  const Linear& head() const { return *head_; }
  int32_t num_classes() const { return num_classes_; }

 private:
  std::unique_ptr<TransformerEncoder> encoder_;
  std::unique_ptr<Linear> head_;
  int32_t num_classes_;
};

}  // namespace goalex::nn

#endif  // GOALEX_NN_TRANSFORMER_H_
