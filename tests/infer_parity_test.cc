// Bit-exactness tests for the graph-free inference engines (src/infer): the
// compiled-plan path (token classifier) and the packed engine's sequence
// head must produce float-identical logits — not just close, not just same
// argmax — to the autograd evaluation path, across model families, random
// seeds, sequence lengths, and thread counts, and the whole extractor must
// emit identical DetailRecords with the engines on and off. Parity holds by construction (both paths run the same forward
// kernels from tensor/forward.h in the same order); these tests pin it down
// end to end so a future kernel "optimization" that reorders float math
// shows up as an exact diff.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/extractor.h"
#include "data/dataset.h"
#include "data/schema.h"
#include "infer/engine.h"
#include "infer/packed.h"
#include "nn/transformer.h"
#include "tensor/view.h"

namespace goalex {
namespace {

std::string TestDataPath(const std::string& name) {
  return std::string(GOALEX_TESTDATA_DIR) + "/" + name;
}

/// A spread of architectures covering the preset axes: depth, width, head
/// count, FFN ratio, position-encoding flavor, and max_seq_len.
std::vector<nn::TransformerConfig> ParityConfigs() {
  std::vector<nn::TransformerConfig> configs;
  nn::TransformerConfig base;
  base.vocab_size = 120;
  base.max_seq_len = 16;
  base.d_model = 16;
  base.heads = 4;
  base.layers = 2;
  base.ffn_dim = 32;
  configs.push_back(base);

  nn::TransformerConfig bert_like = base;
  bert_like.sinusoidal_positions = true;
  bert_like.layers = 1;
  configs.push_back(bert_like);

  nn::TransformerConfig wide = base;
  wide.d_model = 32;
  wide.heads = 2;
  wide.ffn_dim = 96;
  wide.max_seq_len = 24;
  configs.push_back(wide);

  nn::TransformerConfig deep = base;
  deep.layers = 3;
  deep.max_seq_len = 8;
  configs.push_back(deep);
  return configs;
}

std::vector<int32_t> RandomIds(size_t len, int32_t vocab, Rng& rng) {
  std::vector<int32_t> ids(len);
  for (size_t i = 0; i < len; ++i) {
    ids[i] = rng.NextInt(0, vocab - 1);
  }
  return ids;
}

/// EXPECT float-identity (==, not NEAR) between engine logits and the
/// autograd logits for one input.
void ExpectLogitsIdentical(const infer::Engine& engine,
                           const nn::TokenClassifier& model,
                           const std::vector<int32_t>& ids) {
  tensor::TensorView engine_logits = engine.Logits(ids);
  tensor::Var tape_logits = model.ForwardLogits(ids);
  ASSERT_EQ(engine_logits.rows(), tape_logits->value().dim(0));
  ASSERT_EQ(engine_logits.cols(), tape_logits->value().dim(1));
  const float* expected = tape_logits->value().data();
  for (int64_t i = 0; i < engine_logits.numel(); ++i) {
    ASSERT_EQ(engine_logits.data()[i], expected[i])
        << "logit " << i << " diverges for T=" << ids.size();
  }
  EXPECT_EQ(engine.PredictTokens(ids), model.Predict(ids));
}

TEST(InferParityTest, TokenClassifierBitIdenticalAcrossConfigsAndSeeds) {
  for (const nn::TransformerConfig& config : ParityConfigs()) {
    for (uint64_t seed : {1u, 17u, 4242u}) {
      Rng init(seed);
      nn::TokenClassifier model(config, /*num_labels=*/5, init);
      infer::Engine engine = infer::Engine::ForTokenClassifier(model);
      Rng data_rng(seed + 1);
      for (size_t len : {size_t{1}, size_t{2}, size_t{7},
                         static_cast<size_t>(config.max_seq_len)}) {
        ExpectLogitsIdentical(engine, model,
                              RandomIds(len, config.vocab_size, data_rng));
      }
    }
  }
}

TEST(InferParityTest, SequenceClassifierBitIdenticalAcrossConfigsAndSeeds) {
  // The packed engine's sequence head (mean pool over the CSR row range,
  // then the head linear) against the tape's MeanRows + Linear.
  for (const nn::TransformerConfig& config : ParityConfigs()) {
    for (uint64_t seed : {3u, 99u}) {
      Rng init(seed);
      nn::SequenceClassifier model(config, /*num_classes=*/3, init);
      infer::PackedEngine engine(model, infer::PackedEngineOptions{});
      ASSERT_TRUE(engine.pooled());
      Rng data_rng(seed + 1);
      for (size_t len : {size_t{1}, size_t{5},
                         static_cast<size_t>(config.max_seq_len),
                         static_cast<size_t>(config.max_seq_len) + 2}) {
        std::vector<int32_t> ids =
            RandomIds(len, config.vocab_size, data_rng);
        tensor::ConstTensorView engine_logits = engine.ForwardSequence(ids);
        tensor::Var tape_logits = model.ForwardLogits(ids);
        ASSERT_EQ(engine_logits.rows(), 1);
        ASSERT_EQ(tape_logits->value().dim(1), 3);
        for (int64_t i = 0; i < 3; ++i) {
          ASSERT_EQ(engine_logits.row(0)[i], tape_logits->value().data()[i])
              << "class " << i << " diverges for T=" << len;
        }
        EXPECT_EQ(engine.PredictSequence(ids),
                  std::vector<int32_t>{model.Predict(ids)});
      }
    }
  }
}

TEST(InferParityTest, TruncatesLongInputIdentically) {
  nn::TransformerConfig config = ParityConfigs()[0];
  Rng init(7);
  nn::TokenClassifier model(config, 4, init);
  infer::Engine engine = infer::Engine::ForTokenClassifier(model);
  Rng data_rng(8);
  // 3x over max_seq_len: both paths must truncate to the same prefix.
  std::vector<int32_t> ids =
      RandomIds(static_cast<size_t>(config.max_seq_len) * 3,
                config.vocab_size, data_rng);
  tensor::TensorView logits = engine.Logits(ids);
  EXPECT_EQ(logits.rows(), config.max_seq_len);
  ExpectLogitsIdentical(engine, model, ids);
}

TEST(InferParityTest, EmptyInputYieldsEmptyOutput) {
  // The autograd path CHECK-fails on empty input; the engine returns empty
  // gracefully (production texts can tokenize to nothing).
  nn::TransformerConfig config = ParityConfigs()[0];
  Rng init(9);
  nn::TokenClassifier model(config, 4, init);
  infer::Engine engine = infer::Engine::ForTokenClassifier(model);
  EXPECT_TRUE(engine.PredictTokens({}).empty());
  EXPECT_TRUE(engine.Logits({}).empty());
}

TEST(InferParityTest, ConcurrentExecutionIsBitIdentical) {
  // One shared engine, many threads, per-thread contexts: every thread must
  // see exactly the serial answer for its own inputs.
  nn::TransformerConfig config = ParityConfigs()[2];
  Rng init(21);
  nn::TokenClassifier model(config, 6, init);
  infer::Engine engine = infer::Engine::ForTokenClassifier(model);

  std::vector<std::vector<int32_t>> inputs;
  std::vector<std::vector<int32_t>> expected;
  Rng data_rng(22);
  for (int i = 0; i < 64; ++i) {
    inputs.push_back(RandomIds(1 + static_cast<size_t>(i) % 20,
                               config.vocab_size, data_rng));
    expected.push_back(model.Predict(inputs.back()));
  }

  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = static_cast<size_t>(t); i < inputs.size(); i += 8) {
        if (engine.PredictTokens(inputs[i]) != expected[i]) ++mismatches;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(InferParityTest, WeightsStayBorrowedNotCopied) {
  // The plan borrows parameter storage: an in-place weight update (what
  // Adam and LoadParameters do) must change engine output without
  // recompiling.
  nn::TransformerConfig config = ParityConfigs()[0];
  Rng init(31);
  nn::TokenClassifier model(config, 4, init);
  infer::Engine engine = infer::Engine::ForTokenClassifier(model);
  std::vector<int32_t> ids = {5, 9, 13};
  ExpectLogitsIdentical(engine, model, ids);

  float* head_bias = model.head().bias()->mutable_value().data();
  head_bias[0] += 10.0f;  // Mutate in place, as the optimizer does.
  EXPECT_EQ(engine.Logits(ids).at(0, 0),
            model.ForwardLogits(ids)->value().at(0, 0));
  ExpectLogitsIdentical(engine, model, ids);
}

TEST(InferParityTest, GoldenCorpusExtractionIdenticalEngineOnAndOff) {
  // End to end: the same extractor config trained on the same corpus with
  // the same seed must emit byte-identical DetailRecords whether Predict
  // runs on the compiled engine or the autograd tape.
  auto objectives =
      data::LoadObjectives(TestDataPath("golden_objectives.tsv"));
  ASSERT_TRUE(objectives.ok()) << objectives.status().ToString();

  core::ExtractorConfig config;
  config.kinds = data::SustainabilityGoalKinds();
  config.bpe_merges = 300;
  config.epochs = 2;

  config.use_inference_engine = true;
  core::DetailExtractor engine_extractor(config);
  ASSERT_TRUE(engine_extractor.Train(*objectives).ok());

  config.use_inference_engine = false;
  core::DetailExtractor tape_extractor(config);
  ASSERT_TRUE(tape_extractor.Train(*objectives).ok());

  std::vector<data::DetailRecord> with_engine =
      engine_extractor.ExtractAll(*objectives);
  std::vector<data::DetailRecord> without_engine =
      tape_extractor.ExtractAll(*objectives);
  ASSERT_EQ(with_engine.size(), without_engine.size());
  for (size_t i = 0; i < with_engine.size(); ++i) {
    EXPECT_EQ(with_engine[i].objective_id, without_engine[i].objective_id);
    EXPECT_EQ(with_engine[i].fields, without_engine[i].fields)
        << "record " << i << " (" << with_engine[i].objective_id
        << ") diverges between engine and autograd extraction";
    // Single Extract() runs the packed engine one sequence at a time.
    EXPECT_EQ(engine_extractor.Extract((*objectives)[i]).fields,
              without_engine[i].fields)
        << "record " << i << " diverges between single packed and "
        << "autograd extraction";
  }
}

}  // namespace
}  // namespace goalex
