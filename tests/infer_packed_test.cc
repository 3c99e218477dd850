// Tests of packed-batch inference (src/infer/packed.h, DESIGN.md §14).
// Four layers of guarantees are pinned here:
//  - PackByLength is a deterministic, lossless partition: every non-empty
//    sequence lands in exactly one chunk, capacity and truncation bounds
//    hold, and equal inputs always produce equal chunks.
//  - The packed float path is *bit-identical* per sequence to the
//    per-example engine — full logits, not just argmax — across sequence
//    lengths, including the degenerate shapes (batch of one, single-token
//    sequences, all-equal lengths, max_seq_len, truncation).
//  - The one-sequence entry point (ForwardSequence) is bit-identical to a
//    one-member ForwardChunk and to the autograd tape, for both heads
//    (per-token and mean-pooled sequence), every length up to past
//    max_seq_len, and under concurrent callers sharing one engine.
//  - The int8 path is tolerance-pinned: logits stay close to float and the
//    argmax labels agree on almost every token (the end-to-end F1 budget
//    is gated separately by bench_micro_infer --smoke).
// Plus extractor-level parity: ExtractAll on the packed path must produce
// byte-identical records to serial per-objective Extract() calls.
#include "infer/packed.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/extractor.h"
#include "data/dataset.h"
#include "data/generator.h"
#include "infer/engine.h"
#include "nn/transformer.h"
#include "tensor/ops.h"
#include "tensor/view.h"

namespace goalex {
namespace {

using infer::PackByLength;
using infer::PackedChunk;
using infer::PackedEngine;
using infer::PackedEngineOptions;

std::vector<int32_t> RandomIds(size_t len, int32_t vocab, Rng& rng) {
  std::vector<int32_t> ids(len);
  for (size_t i = 0; i < len; ++i) ids[i] = rng.NextInt(0, vocab - 1);
  return ids;
}

std::vector<std::vector<int32_t>> RandomBatch(
    const std::vector<size_t>& lengths, int32_t vocab, Rng& rng) {
  std::vector<std::vector<int32_t>> batch;
  batch.reserve(lengths.size());
  for (size_t len : lengths) batch.push_back(RandomIds(len, vocab, rng));
  return batch;
}

std::vector<const std::vector<int32_t>*> Ptrs(
    const std::vector<std::vector<int32_t>>& batch) {
  std::vector<const std::vector<int32_t>*> ptrs;
  ptrs.reserve(batch.size());
  for (const std::vector<int32_t>& seq : batch) ptrs.push_back(&seq);
  return ptrs;
}

/// Small architecture exercising multi-head attention and stacked layers.
nn::TransformerConfig SmallArch() {
  nn::TransformerConfig config;
  config.vocab_size = 120;
  config.max_seq_len = 24;
  config.d_model = 16;
  config.heads = 4;
  config.layers = 2;
  config.ffn_dim = 32;
  return config;
}

// ---------------------------------------------------------------------------
// PackByLength

TEST(PackByLengthTest, EmptyBatchYieldsNoChunks) {
  std::vector<const std::vector<int32_t>*> none;
  EXPECT_TRUE(PackByLength(none, 16, 64).empty());
}

TEST(PackByLengthTest, EmptySequencesAreSkipped) {
  std::vector<std::vector<int32_t>> batch = {{}, {1, 2, 3}, {}, {4}};
  std::vector<PackedChunk> chunks = PackByLength(Ptrs(batch), 16, 64);
  ASSERT_EQ(chunks.size(), 1u);
  // Only the two non-empty sequences are packed; the empty ones simply get
  // no labels, like the per-example path.
  EXPECT_EQ(chunks[0].size(), 2);
  EXPECT_EQ(chunks[0].tokens(), 4);
  std::vector<size_t> members = chunks[0].sequence;
  std::sort(members.begin(), members.end());
  EXPECT_EQ(members, (std::vector<size_t>{1, 3}));

  std::vector<std::vector<int32_t>> all_empty = {{}, {}};
  EXPECT_TRUE(PackByLength(Ptrs(all_empty), 16, 64).empty());
}

TEST(PackByLengthTest, BatchOfOne) {
  std::vector<std::vector<int32_t>> batch = {{7, 8, 9}};
  std::vector<PackedChunk> chunks = PackByLength(Ptrs(batch), 16, 64);
  ASSERT_EQ(chunks.size(), 1u);
  EXPECT_EQ(chunks[0].size(), 1);
  EXPECT_EQ(chunks[0].sequence[0], 0u);
  EXPECT_EQ(chunks[0].ids, batch[0]);
  EXPECT_EQ(chunks[0].offsets, (std::vector<int64_t>{0, 3}));
}

TEST(PackByLengthTest, EverySequenceOnceAndCapacityHolds) {
  Rng rng(11);
  std::vector<size_t> lengths;
  for (int i = 0; i < 200; ++i) {
    lengths.push_back(static_cast<size_t>(rng.NextInt(1, 40)));
  }
  std::vector<std::vector<int32_t>> batch = RandomBatch(lengths, 100, rng);
  const int64_t max_seq_len = 32;
  const int64_t chunk_tokens = 96;
  std::vector<PackedChunk> chunks =
      PackByLength(Ptrs(batch), max_seq_len, chunk_tokens);

  std::vector<int> seen(batch.size(), 0);
  for (const PackedChunk& chunk : chunks) {
    ASSERT_EQ(chunk.offsets.size(), static_cast<size_t>(chunk.size()) + 1);
    EXPECT_EQ(chunk.offsets.front(), 0);
    EXPECT_EQ(chunk.offsets.back(), chunk.tokens());
    EXPECT_LE(chunk.tokens(), chunk_tokens);
    for (int64_t s = 0; s < chunk.size(); ++s) {
      const size_t caller = chunk.sequence[static_cast<size_t>(s)];
      ASSERT_LT(caller, batch.size());
      ++seen[caller];
      const int64_t t = chunk.offsets[s + 1] - chunk.offsets[s];
      const int64_t want = std::min<int64_t>(
          static_cast<int64_t>(batch[caller].size()), max_seq_len);
      EXPECT_EQ(t, want);
      for (int64_t p = 0; p < t; ++p) {
        EXPECT_EQ(chunk.ids[static_cast<size_t>(chunk.offsets[s] + p)],
                  batch[caller][static_cast<size_t>(p)]);
      }
    }
  }
  for (int count : seen) EXPECT_EQ(count, 1);
}

TEST(PackByLengthTest, OversizeSequenceGetsItsOwnChunk) {
  Rng rng(5);
  std::vector<std::vector<int32_t>> batch =
      RandomBatch({size_t{20}, size_t{3}, size_t{3}}, 50, rng);
  // chunk_tokens is smaller than the first sequence: it must still be
  // admitted, alone, rather than rejected.
  std::vector<PackedChunk> chunks = PackByLength(Ptrs(batch), 32, 8);
  bool found_oversize = false;
  for (const PackedChunk& chunk : chunks) {
    if (chunk.size() == 1 && chunk.sequence[0] == 0) {
      EXPECT_EQ(chunk.tokens(), 20);
      found_oversize = true;
    } else {
      EXPECT_LE(chunk.tokens(), 8);
    }
  }
  EXPECT_TRUE(found_oversize);
}

TEST(PackByLengthTest, EqualLengthsPreserveSubmissionOrder) {
  Rng rng(7);
  std::vector<std::vector<int32_t>> batch =
      RandomBatch(std::vector<size_t>(10, 4), 50, rng);
  std::vector<PackedChunk> chunks = PackByLength(Ptrs(batch), 16, 1024);
  ASSERT_EQ(chunks.size(), 1u);
  // Stable sort on equal lengths: submission order survives.
  for (size_t s = 0; s < 10; ++s) EXPECT_EQ(chunks[0].sequence[s], s);
}

TEST(PackByLengthTest, DeterministicAcrossCalls) {
  Rng rng(23);
  std::vector<size_t> lengths;
  for (int i = 0; i < 64; ++i) {
    lengths.push_back(static_cast<size_t>(rng.NextInt(1, 30)));
  }
  std::vector<std::vector<int32_t>> batch = RandomBatch(lengths, 80, rng);
  std::vector<PackedChunk> a = PackByLength(Ptrs(batch), 24, 100);
  std::vector<PackedChunk> b = PackByLength(Ptrs(batch), 24, 100);
  ASSERT_EQ(a.size(), b.size());
  for (size_t c = 0; c < a.size(); ++c) {
    EXPECT_EQ(a[c].ids, b[c].ids);
    EXPECT_EQ(a[c].offsets, b[c].offsets);
    EXPECT_EQ(a[c].sequence, b[c].sequence);
  }
}

// ---------------------------------------------------------------------------
// Packed float path: bit-identical to the per-example engine.

/// Asserts PredictBatch matches per-example PredictTokens and the packed
/// logits match per-example Execute float-for-float (==, not NEAR).
void ExpectPackedBitIdentical(const nn::TokenClassifier& model,
                              const std::vector<std::vector<int32_t>>& batch,
                              int64_t chunk_tokens) {
  infer::Engine engine = infer::Engine::ForTokenClassifier(model);
  PackedEngineOptions options;
  options.chunk_tokens = chunk_tokens;
  PackedEngine packed(model, options);
  const int64_t max_seq_len = packed.max_seq_len();

  // Labels.
  std::vector<std::vector<int32_t>> labels = packed.PredictBatch(Ptrs(batch));
  ASSERT_EQ(labels.size(), batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    if (batch[i].empty()) {
      EXPECT_TRUE(labels[i].empty());
      continue;
    }
    EXPECT_EQ(labels[i], engine.PredictTokens(batch[i])) << "sequence " << i;
  }

  // Full logits, chunk by chunk.
  std::unique_ptr<infer::ExecutionContext> ctx = engine.NewContext();
  std::vector<PackedChunk> chunks =
      PackByLength(Ptrs(batch), max_seq_len, chunk_tokens);
  for (const PackedChunk& chunk : chunks) {
    PackedEngine::ChunkLogits logits = packed.ForwardChunk(chunk);
    ASSERT_EQ(logits.cols, packed.logit_cols());
    for (int64_t s = 0; s < chunk.size(); ++s) {
      const size_t caller = chunk.sequence[static_cast<size_t>(s)];
      std::vector<int32_t> truncated(
          batch[caller].begin(),
          batch[caller].begin() +
              std::min<int64_t>(
                  static_cast<int64_t>(batch[caller].size()), max_seq_len));
      tensor::TensorView ref = engine.Execute(truncated, *ctx);
      const int64_t t = chunk.offsets[s + 1] - chunk.offsets[s];
      ASSERT_EQ(ref.rows(), t);
      for (int64_t p = 0; p < t; ++p) {
        const float* got =
            logits.data + (chunk.offsets[s] + p) * logits.cols;
        for (int64_t j = 0; j < packed.num_labels(); ++j) {
          ASSERT_EQ(got[j], ref.at(p, j))
              << "sequence " << caller << " token " << p << " label " << j;
        }
        // Padded columns are exactly zero by construction.
        for (int64_t j = packed.num_labels(); j < logits.cols; ++j) {
          ASSERT_EQ(got[j], 0.0f);
        }
      }
    }
  }
}

TEST(PackedEngineTest, FloatBitIdenticalAcrossSeedsAndLengths) {
  nn::TransformerConfig config = SmallArch();
  for (uint64_t seed : {1u, 17u}) {
    Rng init(seed);
    nn::TokenClassifier model(config, /*num_labels=*/11, init);
    Rng data_rng(seed + 1);
    // A spread of lengths including max_seq_len and one past it
    // (truncation parity with Engine::Execute).
    std::vector<size_t> lengths = {1, 2, 3, 5, 7, 24, 9, 1, 16, 24, 30, 12};
    std::vector<std::vector<int32_t>> batch =
        RandomBatch(lengths, config.vocab_size, data_rng);
    ExpectPackedBitIdentical(model, batch, /*chunk_tokens=*/48);
  }
}

TEST(PackedEngineTest, DegenerateBatchShapes) {
  nn::TransformerConfig config = SmallArch();
  Rng init(3);
  nn::TokenClassifier model(config, /*num_labels=*/7, init);
  Rng data_rng(4);

  // Empty batch.
  PackedEngine packed(model, PackedEngineOptions{});
  std::vector<const std::vector<int32_t>*> none;
  EXPECT_TRUE(packed.PredictBatch(none).empty());

  // Batch of one.
  ExpectPackedBitIdentical(
      model, RandomBatch({size_t{9}}, config.vocab_size, data_rng), 64);
  // All single-token sequences.
  ExpectPackedBitIdentical(
      model, RandomBatch(std::vector<size_t>(17, 1), config.vocab_size,
                         data_rng),
      16);
  // All-equal lengths.
  ExpectPackedBitIdentical(
      model, RandomBatch(std::vector<size_t>(12, 8), config.vocab_size,
                         data_rng),
      32);
  // Everything at max_seq_len.
  ExpectPackedBitIdentical(
      model,
      RandomBatch(std::vector<size_t>(
                      5, static_cast<size_t>(config.max_seq_len)),
                  config.vocab_size, data_rng),
      48);
  // Batch with empty sequences interleaved.
  std::vector<std::vector<int32_t>> with_empty =
      RandomBatch({size_t{4}, size_t{0}, size_t{6}, size_t{0}},
                  config.vocab_size, data_rng);
  ExpectPackedBitIdentical(model, with_empty, 64);
}

// ---------------------------------------------------------------------------
// One-sequence entry point: bit-identical to a one-member chunk and to the
// tape, for both heads.

/// Asserts ForwardSequence(ids) equals ForwardChunk over the one-member
/// chunk PackByLength makes of `ids` in every logit column (padding
/// included), and the tape's logits in the real columns.
template <typename Model>
void ExpectSequenceBitIdentical(const PackedEngine& packed,
                                const Model& model,
                                const std::vector<int32_t>& ids) {
  const tensor::ConstTensorView got = packed.ForwardSequence(ids);
  std::vector<PackedChunk> chunks =
      PackByLength({&ids}, packed.max_seq_len(), packed.chunk_tokens());
  ASSERT_EQ(chunks.size(), 1u);
  PackedEngine::ChunkLogits chunk = packed.ForwardChunk(chunks[0]);
  tensor::Var tape = model.ForwardLogits(ids);
  ASSERT_EQ(got.rows(), chunk.rows) << "T=" << ids.size();
  ASSERT_EQ(got.rows(), tape->value().dim(0)) << "T=" << ids.size();
  ASSERT_EQ(got.cols(), chunk.cols);
  for (int64_t r = 0; r < got.rows(); ++r) {
    for (int64_t j = 0; j < got.cols(); ++j) {
      ASSERT_EQ(got.row(r)[j], chunk.data[r * chunk.cols + j])
          << "T=" << ids.size() << " row " << r << " col " << j;
    }
    for (int64_t j = 0; j < packed.num_labels(); ++j) {
      ASSERT_EQ(got.row(r)[j], tape->value().at(r, j))
          << "T=" << ids.size() << " row " << r << " col " << j;
    }
  }
  EXPECT_EQ(packed.PredictSequence(ids), tensor::ArgmaxRows(tape));
}

TEST(PackedSequenceTest, TokenHeadMatchesChunkAndTapeAtEveryLength) {
  nn::TransformerConfig config = SmallArch();
  Rng init(5);
  nn::TokenClassifier model(config, /*num_labels=*/11, init);
  PackedEngine packed(model, PackedEngineOptions{});
  ASSERT_FALSE(packed.pooled());
  Rng data_rng(6);
  // 1..max_seq_len+3: the last three exercise truncation.
  for (size_t len = 1; len <= static_cast<size_t>(config.max_seq_len) + 3;
       ++len) {
    ExpectSequenceBitIdentical(packed, model,
                               RandomIds(len, config.vocab_size, data_rng));
  }
  EXPECT_EQ(packed.ForwardSequence({}).rows(), 0);
  EXPECT_TRUE(packed.PredictSequence({}).empty());
}

TEST(PackedSequenceTest, SequenceHeadMatchesChunkAndTapeAtEveryLength) {
  nn::TransformerConfig config = SmallArch();
  Rng init(7);
  nn::SequenceClassifier model(config, /*num_classes=*/3, init);
  PackedEngine packed(model, PackedEngineOptions{});
  ASSERT_TRUE(packed.pooled());
  ASSERT_EQ(packed.num_labels(), 3);
  Rng data_rng(8);
  for (size_t len = 1; len <= static_cast<size_t>(config.max_seq_len) + 3;
       ++len) {
    ExpectSequenceBitIdentical(packed, model,
                               RandomIds(len, config.vocab_size, data_rng));
  }
}

TEST(PackedSequenceTest, SequenceHeadPoolsEachMemberOfAChunk) {
  // Mean pooling must stay inside each member's CSR row range: a
  // multi-sequence chunk yields, per member, exactly that member's
  // one-sequence logits.
  nn::TransformerConfig config = SmallArch();
  Rng init(9);
  nn::SequenceClassifier model(config, /*num_classes=*/4, init);
  PackedEngineOptions options;
  options.chunk_tokens = 40;
  PackedEngine packed(model, options);
  Rng data_rng(10);
  std::vector<std::vector<int32_t>> batch = RandomBatch(
      {3, 17, 1, 24, 0, 9, 30, 5, 12}, config.vocab_size, data_rng);
  std::vector<PackedChunk> chunks =
      PackByLength(Ptrs(batch), packed.max_seq_len(), packed.chunk_tokens());
  ASSERT_GT(chunks.size(), 1u);
  for (const PackedChunk& chunk : chunks) {
    PackedEngine::ChunkLogits logits = packed.ForwardChunk(chunk);
    ASSERT_EQ(logits.rows, chunk.size());
    for (int64_t s = 0; s < chunk.size(); ++s) {
      const tensor::ConstTensorView single =
          packed.ForwardSequence(batch[chunk.sequence[s]]);
      ASSERT_EQ(single.rows(), 1);
      for (int64_t j = 0; j < logits.cols; ++j) {
        ASSERT_EQ(logits.data[s * logits.cols + j], single.row(0)[j])
            << "member " << chunk.sequence[s] << " col " << j;
      }
    }
  }
  std::vector<std::vector<int32_t>> labels = packed.PredictBatch(Ptrs(batch));
  for (size_t i = 0; i < batch.size(); ++i) {
    if (batch[i].empty()) {
      EXPECT_TRUE(labels[i].empty());
    } else {
      EXPECT_EQ(labels[i], std::vector<int32_t>{model.Predict(batch[i])});
    }
  }
}

TEST(PackedSequenceTest, Int8EngineRunsSingleSequencesInFloat) {
  nn::TransformerConfig config = SmallArch();
  Rng init(11);
  nn::TokenClassifier model(config, /*num_labels=*/11, init);
  PackedEngineOptions int8_options;
  int8_options.quantize_int8 = true;
  PackedEngine packed_int8(model, int8_options);
  PackedEngine packed_float(model, PackedEngineOptions{});
  Rng data_rng(12);
  for (size_t len : {size_t{1}, size_t{8}, size_t{24}, size_t{27}}) {
    std::vector<int32_t> ids = RandomIds(len, config.vocab_size, data_rng);
    ExpectSequenceBitIdentical(packed_float, model, ids);
    const tensor::ConstTensorView f = packed_float.ForwardSequence(ids);
    const std::vector<float> expected(f.data(), f.data() + f.numel());
    const tensor::ConstTensorView q = packed_int8.ForwardSequence(ids);
    ASSERT_EQ(q.numel(), f.numel());
    for (int64_t i = 0; i < q.numel(); ++i) {
      ASSERT_EQ(q.data()[i], expected[static_cast<size_t>(i)])
          << "T=" << len << " logit " << i;
    }
  }
}

TEST(PackedSequenceTest, ConcurrentCallersGetIdenticalResults) {
  // One engine per head, eight threads: each thread's calls interleave both
  // engines (which share the thread's scratch) and must reproduce the
  // serial logits float-for-float.
  nn::TransformerConfig config = SmallArch();
  Rng init(13);
  nn::TokenClassifier token_model(config, /*num_labels=*/11, init);
  nn::SequenceClassifier sequence_model(config, /*num_classes=*/2, init);
  const PackedEngine token_engine(token_model, PackedEngineOptions{});
  const PackedEngine sequence_engine(sequence_model, PackedEngineOptions{});

  auto copy = [](const tensor::ConstTensorView& view) {
    return std::vector<float>(view.data(), view.data() + view.numel());
  };
  std::vector<std::vector<int32_t>> inputs;
  std::vector<std::vector<float>> token_expected;
  std::vector<std::vector<float>> sequence_expected;
  Rng data_rng(14);
  for (int i = 0; i < 64; ++i) {
    inputs.push_back(RandomIds(1 + static_cast<size_t>(i) % 30,
                               config.vocab_size, data_rng));
    token_expected.push_back(copy(token_engine.ForwardSequence(inputs[i])));
    sequence_expected.push_back(
        copy(sequence_engine.ForwardSequence(inputs[i])));
  }

  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 4; ++round) {
        for (size_t i = static_cast<size_t>(t); i < inputs.size(); ++i) {
          if (copy(token_engine.ForwardSequence(inputs[i])) !=
              token_expected[i]) {
            ++mismatches;
          }
          if (copy(sequence_engine.ForwardSequence(inputs[i])) !=
              sequence_expected[i]) {
            ++mismatches;
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

// ---------------------------------------------------------------------------
// int8 path: tolerance-pinned against float.

TEST(PackedEngineTest, Int8LogitsCloseAndLabelsMostlyAgree) {
  nn::TransformerConfig config = SmallArch();
  Rng init(42);
  nn::TokenClassifier model(config, /*num_labels=*/11, init);
  PackedEngine packed_float(model, PackedEngineOptions{});
  PackedEngineOptions int8_options;
  int8_options.quantize_int8 = true;
  PackedEngine packed_int8(model, int8_options);

  Rng data_rng(43);
  std::vector<size_t> lengths;
  for (int i = 0; i < 64; ++i) {
    lengths.push_back(static_cast<size_t>(data_rng.NextInt(1, 24)));
  }
  std::vector<std::vector<int32_t>> batch =
      RandomBatch(lengths, config.vocab_size, data_rng);
  std::vector<PackedChunk> chunks =
      PackByLength(Ptrs(batch), packed_float.max_seq_len(),
                   packed_float.chunk_tokens());

  float max_diff = 0.0f;
  float max_abs_logit = 0.0f;
  int64_t tokens = 0;
  int64_t agree = 0;
  for (const PackedChunk& chunk : chunks) {
    PackedEngine::ChunkLogits f = packed_float.ForwardChunk(chunk);
    PackedEngine::ChunkLogits q = packed_int8.ForwardChunk(chunk);
    ASSERT_EQ(f.cols, q.cols);
    for (int64_t p = 0; p < chunk.tokens(); ++p) {
      const float* frow = f.data + p * f.cols;
      const float* qrow = q.data + p * q.cols;
      int64_t fbest = 0;
      int64_t qbest = 0;
      for (int64_t j = 0; j < packed_float.num_labels(); ++j) {
        max_diff = std::max(max_diff, std::fabs(frow[j] - qrow[j]));
        max_abs_logit = std::max(max_abs_logit, std::fabs(frow[j]));
        if (frow[j] > frow[fbest]) fbest = j;
        if (qrow[j] > qrow[qbest]) qbest = j;
      }
      ++tokens;
      if (fbest == qbest) ++agree;
    }
  }
  ASSERT_GT(tokens, 0);
  // Per-output-channel int8 with int32 accumulation keeps the logit error
  // a small fraction of the logit scale; the end-to-end F1 budget (0.5
  // points) is gated by bench_micro_infer --smoke on a trained model.
  EXPECT_LT(max_diff, 0.05f * (1.0f + max_abs_logit));
  EXPECT_GE(static_cast<double>(agree), 0.95 * static_cast<double>(tokens));
}

// ---------------------------------------------------------------------------
// Extractor-level parity: the packed ExtractAll path emits byte-identical
// records to serial per-objective Extract() calls (which run one-sequence
// packed calls), for every thread count.

TEST(PackedExtractorTest, PackedExtractAllMatchesSerialExtract) {
  data::SustainabilityGoalsConfig corpus_config;
  corpus_config.objective_count = 240;
  std::vector<data::Objective> corpus =
      data::GenerateSustainabilityGoals(corpus_config);
  data::Split split = data::TrainTestSplit(corpus, 0.25, 3);

  core::ExtractorConfig config;
  config.kinds = data::SustainabilityGoalKinds();
  config.bpe_merges = 1200;
  config.epochs = 3;
  ASSERT_TRUE(config.packed_inference);  // Default-on.
  core::DetailExtractor extractor(config);
  ASSERT_TRUE(extractor.Train(split.train).ok());

  std::vector<data::DetailRecord> expected;
  expected.reserve(split.test.size());
  for (const data::Objective& o : split.test) {
    expected.push_back(extractor.Extract(o));
  }

  for (int32_t threads : {1, 4}) {
    runtime::Stats stats;
    std::vector<data::DetailRecord> got =
        extractor.ExtractAll(split.test, threads, &stats);
    ASSERT_EQ(got.size(), expected.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].objective_id, expected[i].objective_id);
      EXPECT_EQ(got[i].objective_text, expected[i].objective_text);
      EXPECT_EQ(got[i].fields, expected[i].fields) << "objective " << i;
    }
    EXPECT_EQ(stats.items, split.test.size());
    EXPECT_GT(stats.seconds, 0.0);
  }

  // ExtractBatch with a null pool is the same computation.
  std::vector<const data::Objective*> ptrs;
  for (const data::Objective& o : split.test) ptrs.push_back(&o);
  std::vector<data::DetailRecord> batch =
      extractor.ExtractBatch(ptrs, /*pool=*/nullptr);
  ASSERT_EQ(batch.size(), expected.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(batch[i].fields, expected[i].fields);
  }
}

}  // namespace
}  // namespace goalex
