#ifndef GOALEX_GOALSPOTTER_DETECTOR_H_
#define GOALEX_GOALSPOTTER_DETECTOR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"

namespace goalex::bpe {
class BpeModel;
}  // namespace goalex::bpe

namespace goalex::infer {
class PackedEngine;
}  // namespace goalex::infer

namespace goalex::nn {
class SequenceClassifier;
}  // namespace goalex::nn

namespace goalex::goalspotter {

/// A labeled text block for detector training.
struct LabeledBlock {
  std::string text;
  bool is_objective = false;
};

/// Training options for the objective detector.
struct DetectorOptions {
  int32_t epochs = 6;
  float learning_rate = 0.25f;
  float l2 = 1e-6f;
  uint64_t seed = 3;
};

/// The sustainability objective detection substrate (GoalSpotter [14]):
/// classifies report text blocks into objective vs. noise. Implemented as
/// L2-regularized logistic regression over hashed unigram/bigram/shape
/// features trained with Adagrad — fast enough to sweep the 37k-page
/// deployment corpus on one CPU core while matching the detection role the
/// paper's transformer classifier plays upstream of detail extraction.
class ObjectiveDetector {
 public:
  ObjectiveDetector();

  /// Trains from labeled blocks.
  void Train(const std::vector<LabeledBlock>& blocks,
             const DetectorOptions& options);

  /// Probability that `text` is a sustainability objective.
  double Score(const std::string& text) const;

  /// Score(text) >= threshold.
  bool IsObjective(const std::string& text, double threshold = 0.5) const;

 private:
  std::vector<uint32_t> Featurize(const std::string& text) const;

  std::vector<float> weights_;
  std::vector<float> g2_;  ///< Adagrad accumulators.
  float bias_ = 0.0f;
  float bias_g2_ = 0.0f;
};

/// Options for the transformer-backed detector. Defaults are scaled down
/// relative to the detail extractor: detection is a binary task over short
/// blocks, so a 1-layer encoder suffices for the parity and smoke tests.
struct TransformerDetectorOptions {
  int32_t epochs = 4;
  float learning_rate = 1e-3f;
  uint64_t seed = 3;
  size_t bpe_merges = 400;
  int32_t max_seq_len = 64;
  int32_t d_model = 32;
  int32_t heads = 2;
  int32_t layers = 1;
  int32_t ffn_dim = 64;
  float dropout = 0.1f;
  /// Mini-batch size of the data-parallel trainer. The default of 1
  /// preserves the historical per-example update cadence.
  int32_t batch_size = 1;
  /// Training workers: 0 = auto, 1 = serial. Weights are bit-identical for
  /// every value (nn/trainer.h); with batch_size = 1 there is one gradient
  /// slot, so extra threads add no parallelism.
  int32_t num_threads = 1;
  /// Predict via the packed engine's sequence head (default) or the
  /// autograd evaluation path. Bit-identical either way (goalspotter_test
  /// checks).
  bool use_inference_engine = true;
};

/// Transformer variant of the detection substrate: BPE-encodes a block and
/// classifies it with nn::SequenceClassifier (mean-pooled encoder), the
/// model family the paper uses for detection. Production scoring runs each
/// block as a one-sequence call on infer::PackedEngine's sequence head —
/// the same kernels the extractor's token head runs.
class TransformerObjectiveDetector {
 public:
  explicit TransformerObjectiveDetector(
      TransformerDetectorOptions options = {});
  ~TransformerObjectiveDetector();

  TransformerObjectiveDetector(const TransformerObjectiveDetector&) = delete;
  TransformerObjectiveDetector& operator=(const TransformerObjectiveDetector&) =
      delete;

  /// Trains the tokenizer and classifier from labeled blocks, then builds
  /// the packed engine (when use_inference_engine is on).
  void Train(const std::vector<LabeledBlock>& blocks);

  /// Predicted class of `text`: 1 = objective, 0 = noise. Thread-safe after
  /// Train() (per-thread engine scratch; frozen tokenizer).
  int32_t PredictClass(const std::string& text) const;

  /// PredictClass(text) == 1.
  bool IsObjective(const std::string& text) const;

  bool trained() const { return model_ != nullptr; }
  const TransformerDetectorOptions& options() const { return options_; }

 private:
  std::vector<int32_t> Encode(const std::string& text) const;

  TransformerDetectorOptions options_;
  std::unique_ptr<bpe::BpeModel> tokenizer_;
  std::unique_ptr<nn::SequenceClassifier> model_;
  std::unique_ptr<infer::PackedEngine> engine_;  ///< Null on the tape path.
};

}  // namespace goalex::goalspotter

#endif  // GOALEX_GOALSPOTTER_DETECTOR_H_
