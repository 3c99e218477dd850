// Microbenchmark of the inference stack, two comparisons deep:
//  - the graph-free per-example engine vs the autograd evaluation path, at
//    1/4/8 worker threads (the PR-5 speedup, tracked so it never regresses);
//  - padding-free packed-batch inference (float and int8) vs the
//    per-example engine, swept over batch sizes 1/8/64/512 with
//    tokens-per-second throughput per path;
//  - single-sequence latency (full mode only, informational): p50
//    microseconds per call of the per-example engine vs the packed
//    engine's one-sequence entry point at T = 12/24/48.
// Correctness is checked while timing: the per-example engine must match
// autograd exactly, and the packed float path must match the per-example
// engine bit-for-bit (full logits, not just argmax). The three packed-sweep
// paths run interleaved round-robin within one process so machine
// throughput drift hits them equally. Each configuration emits one
// machine-readable JSON row for CI trend tracking; the header line and
// every row carry `simd_lanes`, the kernel width the build compiled for.
//
// --smoke runs the batch-64 sweep only and turns three properties into
// hard CHECKs (CI runs this on every push):
//  - packed float logits bit-identical to the per-example engine;
//  - packed int8 throughput >= 1.5x the per-example engine at batch 64;
//  - int8 extraction F1 within 0.5 points of float on a held-out split
//    (same trained weights via Save/Load).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string_view>
#include <thread>
#include <vector>

#include "bench/harness.h"
#include "common/check.h"
#include "common/rng.h"
#include "core/extractor.h"
#include "data/generator.h"
#include "eval/table.h"
#include "eval/timer.h"
#include "infer/engine.h"
#include "infer/packed.h"
#include "tensor/simd.h"
#include "nn/transformer.h"
#include "runtime/stats.h"

namespace goalex::bench {
namespace {

/// Sequence-length traffic modeled on the extractor's production inputs:
/// BOS + 8..70 subwords + EOS under max_seq_len 96.
std::vector<std::vector<int32_t>> MakeTraffic(
    const nn::TransformerConfig& config, size_t count, Rng& rng) {
  std::vector<std::vector<int32_t>> traffic;
  traffic.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    size_t len = static_cast<size_t>(rng.NextInt(10, 72));
    std::vector<int32_t> ids(len);
    for (size_t j = 0; j < len; ++j) {
      ids[j] = rng.NextInt(0, config.vocab_size - 1);
    }
    traffic.push_back(std::move(ids));
  }
  return traffic;
}

std::vector<const std::vector<int32_t>*> Ptrs(
    const std::vector<std::vector<int32_t>>& batch) {
  std::vector<const std::vector<int32_t>*> ptrs;
  ptrs.reserve(batch.size());
  for (const std::vector<int32_t>& seq : batch) ptrs.push_back(&seq);
  return ptrs;
}

/// Runs `predict` over the traffic partitioned across `threads` workers and
/// returns wall-clock seconds.
template <typename Predict>
double TimedRun(const std::vector<std::vector<int32_t>>& traffic,
                int threads, const Predict& predict) {
  eval::Timer timer;
  if (threads <= 1) {
    for (const auto& ids : traffic) predict(ids);
    return timer.Seconds();
  }
  std::vector<std::thread> workers;
  workers.reserve(static_cast<size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      for (size_t i = static_cast<size_t>(t); i < traffic.size();
           i += static_cast<size_t>(threads)) {
        predict(traffic[i]);
      }
    });
  }
  for (std::thread& w : workers) w.join();
  return timer.Seconds();
}

/// CHECKs that the packed float engine reproduces the per-example engine
/// bit-for-bit on `batch`: per-token labels and full logits.
void CheckPackedBitIdentity(const infer::Engine& engine,
                            const infer::PackedEngine& packed,
                            const std::vector<std::vector<int32_t>>& batch) {
  std::vector<std::vector<int32_t>> labels = packed.PredictBatch(Ptrs(batch));
  for (size_t i = 0; i < batch.size(); ++i) {
    GOALEX_CHECK_MSG(labels[i] == engine.PredictTokens(batch[i]),
                     "packed float labels diverge from per-example engine");
  }
  std::unique_ptr<infer::ExecutionContext> ctx = engine.NewContext();
  std::vector<infer::PackedChunk> chunks = infer::PackByLength(
      Ptrs(batch), packed.max_seq_len(), packed.chunk_tokens());
  for (const infer::PackedChunk& chunk : chunks) {
    infer::PackedEngine::ChunkLogits logits = packed.ForwardChunk(chunk);
    for (int64_t s = 0; s < chunk.size(); ++s) {
      const std::vector<int32_t>& ids = batch[chunk.sequence[s]];
      tensor::TensorView ref = engine.Execute(ids, *ctx);
      const int64_t t = chunk.offsets[s + 1] - chunk.offsets[s];
      GOALEX_CHECK(ref.rows() == t);
      for (int64_t p = 0; p < t; ++p) {
        const float* got = logits.data + (chunk.offsets[s] + p) * logits.cols;
        for (int64_t j = 0; j < packed.num_labels(); ++j) {
          GOALEX_CHECK_MSG(got[j] == ref.at(p, j),
                           "packed float logits diverge from per-example "
                           "engine");
        }
      }
    }
  }
}

/// One packed-sweep configuration: per-example engine vs packed float vs
/// packed int8, interleaved rounds, tokens/sec per path. Returns the int8
/// speedup over the per-example engine (the smoke-gated number).
double RunPackedSweep(const nn::TokenClassifier& model,
                      const infer::Engine& engine, size_t batch_size,
                      Rng& rng, eval::TextTable& table) {
  infer::PackedEngine packed_float(model, infer::PackedEngineOptions{});
  infer::PackedEngineOptions int8_options;
  int8_options.quantize_int8 = true;
  infer::PackedEngine packed_int8(model, int8_options);

  std::vector<std::vector<int32_t>> batch =
      MakeTraffic(model.encoder().config(), batch_size, rng);
  std::vector<const std::vector<int32_t>*> ptrs = Ptrs(batch);
  int64_t batch_tokens = 0;
  for (const auto& seq : batch) {
    batch_tokens += static_cast<int64_t>(seq.size());
  }

  // Enough rounds that each path sees ~200k tokens; interleave the three
  // paths inside every round so throughput drift hits them equally.
  const int rounds = static_cast<int>(
      std::max<int64_t>(3, 200000 / std::max<int64_t>(1, batch_tokens)));
  auto run_engine = [&] {
    for (const auto& seq : batch) engine.PredictTokens(seq);
  };
  auto run_float = [&] { packed_float.PredictBatch(ptrs); };
  auto run_int8 = [&] { packed_int8.PredictBatch(ptrs); };
  run_engine();  // Warm all three paths before timing.
  run_float();
  run_int8();

  double engine_s = 0.0;
  double float_s = 0.0;
  double int8_s = 0.0;
  for (int r = 0; r < rounds; ++r) {
    {
      eval::Timer timer;
      run_engine();
      engine_s += timer.Seconds();
    }
    {
      eval::Timer timer;
      run_float();
      float_s += timer.Seconds();
    }
    {
      eval::Timer timer;
      run_int8();
      int8_s += timer.Seconds();
    }
  }
  const double tokens =
      static_cast<double>(batch_tokens) * static_cast<double>(rounds);
  const double engine_tps = tokens / engine_s;
  const double float_tps = tokens / float_s;
  const double int8_tps = tokens / int8_s;
  auto fmt = [](double v, int precision) {
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%.*f", precision, v);
    return std::string(buffer);
  };
  table.AddRow({std::to_string(batch_size), fmt(engine_tps, 0),
                fmt(float_tps, 0), fmt(int8_tps, 0),
                fmt(float_tps / engine_tps, 2), fmt(int8_tps / engine_tps, 2)});
  std::printf(
      "{\"bench\":\"micro_infer\",\"simd_lanes\":%d,\"mode\":\"packed\","
      "\"batch\":%zu,\"rounds\":%d,\"engine_tokens_per_s\":%.0f,"
      "\"packed_float_tokens_per_s\":%.0f,\"packed_int8_tokens_per_s\":%.0f,"
      "\"float_speedup\":%.3f,\"int8_speedup\":%.3f}\n",
      tensor::kSimdLanes, batch_size, rounds, engine_tps, float_tps, int8_tps,
      float_tps / engine_tps, int8_tps / engine_tps);
  return int8_tps / engine_tps;
}

/// Single-request latency at sequence length `t`: the per-example engine
/// and the packed one-sequence entry point, alternating call by call on
/// the same inputs (outputs CHECKed equal). Adds a table row and prints a
/// JSON row with the p50 microseconds per call.
void RunSingleSequenceLatency(const nn::TokenClassifier& model,
                              const infer::Engine& engine,
                              const infer::PackedEngine& packed, int64_t t,
                              Rng& rng, eval::TextTable& table) {
  const nn::TransformerConfig& config = model.encoder().config();
  constexpr int kCalls = 4000;
  std::vector<std::vector<int32_t>> inputs(64);
  for (std::vector<int32_t>& ids : inputs) {
    ids.resize(static_cast<size_t>(t));
    for (int32_t& id : ids) id = rng.NextInt(0, config.vocab_size - 1);
    GOALEX_CHECK_MSG(packed.PredictSequence(ids) == engine.PredictTokens(ids),
                     "packed one-sequence labels diverge from per-example "
                     "engine");
  }
  using Clock = std::chrono::steady_clock;
  auto micros = [](Clock::duration d) {
    return std::chrono::duration<double, std::micro>(d).count();
  };
  std::vector<double> engine_us;
  std::vector<double> packed_us;
  engine_us.reserve(kCalls);
  packed_us.reserve(kCalls);
  for (int i = 0; i < kCalls; ++i) {
    const std::vector<int32_t>& ids = inputs[static_cast<size_t>(i) % 64];
    Clock::time_point start = Clock::now();
    engine.PredictTokens(ids);
    Clock::time_point mid = Clock::now();
    packed.PredictSequence(ids);
    Clock::time_point end = Clock::now();
    engine_us.push_back(micros(mid - start));
    packed_us.push_back(micros(end - mid));
  }
  auto p50 = [](std::vector<double>& v) {
    std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
    return v[v.size() / 2];
  };
  const double engine_p50 = p50(engine_us);
  const double packed_p50 = p50(packed_us);
  char buffer[3][32];
  std::snprintf(buffer[0], sizeof(buffer[0]), "%.1f", engine_p50);
  std::snprintf(buffer[1], sizeof(buffer[1]), "%.1f", packed_p50);
  std::snprintf(buffer[2], sizeof(buffer[2]), "%.2f", engine_p50 / packed_p50);
  table.AddRow({std::to_string(t), buffer[0], buffer[1], buffer[2]});
  std::printf(
      "{\"bench\":\"micro_infer\",\"simd_lanes\":%d,"
      "\"mode\":\"single_sequence\",\"t\":%lld,"
      "\"calls\":%d,\"engine_p50_us\":%.2f,\"packed_p50_us\":%.2f,"
      "\"speedup\":%.3f}\n",
      tensor::kSimdLanes, static_cast<long long>(t), kCalls, engine_p50,
      packed_p50, engine_p50 / packed_p50);
}

/// Trains a small float extractor, round-trips the weights through
/// Save/Load into an int8-configured twin, and CHECKs that held-out
/// extraction F1 moves by at most 0.5 points.
void CheckInt8F1Parity() {
  // A properly converged (if scaled-down) model: the quantization budget
  // is only meaningful when the float logits are decisively separated — an
  // undertrained model flips argmaxes on noise alone.
  data::SustainabilityGoalsConfig corpus_config;
  corpus_config.objective_count = 600;
  std::vector<data::Objective> corpus =
      data::GenerateSustainabilityGoals(corpus_config);
  data::Split split = data::TrainTestSplit(corpus, 0.2, 3);

  // The F1 budget is 0.5 points; on a 120-objective test set one flipped
  // span moves F1 by more than that, so the delta would measure sampling
  // noise, not quantization. Evaluate on a large independently-seeded
  // corpus instead to pin the true gap.
  data::SustainabilityGoalsConfig eval_config;
  eval_config.objective_count = 2000;
  eval_config.seed = 43;
  std::vector<data::Objective> eval_set =
      data::GenerateSustainabilityGoals(eval_config);

  core::ExtractorConfig config =
      DefaultExtractorConfig(Corpus::kSustainabilityGoals);
  config.bpe_merges = 1600;
  core::DetailExtractor extractor(config);
  GOALEX_CHECK(extractor.Train(split.train).ok());

  std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "goalex_infer_smoke_model";
  std::filesystem::create_directories(dir);
  GOALEX_CHECK(extractor.Save(dir.string()).ok());

  core::ExtractorConfig int8_config = config;
  int8_config.quantize_int8 = true;
  core::DetailExtractor int8_extractor(int8_config);
  GOALEX_CHECK(int8_extractor.Load(dir.string()).ok());
  std::filesystem::remove_all(dir);

  eval::Prf float_prf =
      Evaluate(eval_set, extractor.ExtractAll(eval_set),
               Corpus::kSustainabilityGoals);
  eval::Prf int8_prf =
      Evaluate(eval_set, int8_extractor.ExtractAll(eval_set),
               Corpus::kSustainabilityGoals);
  const double delta = float_prf.f1 - int8_prf.f1;
  std::printf(
      "{\"bench\":\"micro_infer\",\"simd_lanes\":%d,\"mode\":\"int8_f1\","
      "\"float_f1\":%.4f,\"int8_f1\":%.4f,\"delta\":%.4f}\n",
      tensor::kSimdLanes, float_prf.f1, int8_prf.f1, delta);
  // The quantization budget: int8 may cost at most 0.5 F1 points.
  GOALEX_CHECK_MSG(delta <= 0.005 && delta >= -0.005,
                   "int8 extraction F1 diverged more than 0.5 points from "
                   "float");
}

void Run(bool smoke) {
  // The production architecture (DefaultExtractorConfig dimensions); the
  // weights are random — timing is weight-independent.
  core::ExtractorConfig extractor_config =
      DefaultExtractorConfig(Corpus::kSustainabilityGoals);
  nn::TransformerConfig config =
      extractor_config.BuildTransformerConfig(/*vocab_size=*/2800);
  Rng rng(13);
  nn::TokenClassifier model(config, /*num_labels=*/11, rng);
  infer::Engine engine = infer::Engine::ForTokenClassifier(model);

  std::printf("Microbenchmark: inference engine%s, simd_lanes=%d\n",
              smoke ? " (smoke)" : "", tensor::kSimdLanes);
  std::printf("model: d_model=%d heads=%d layers=%d ffn=%d max_seq_len=%d\n\n",
              config.d_model, config.heads, config.layers, config.ffn_dim,
              config.max_seq_len);

  auto fmt = [](double v, int precision) {
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%.*f", precision, v);
    return std::string(buffer);
  };

  if (!smoke) {
    // Part 1: per-example engine vs autograd across thread counts.
    Rng traffic_rng(14);
    std::vector<std::vector<int32_t>> traffic =
        MakeTraffic(config, /*count=*/1500, traffic_rng);
    // Exactness first: every timed prediction pair must agree.
    for (const auto& ids : traffic) {
      GOALEX_CHECK(engine.PredictTokens(ids) == model.Predict(ids));
    }
    std::printf("engine vs autograd: %zu sequences (outputs identical)\n",
                traffic.size());
    std::printf("arena bytes per worker context: %zu\n\n",
                engine.arena_bytes_per_context());
    eval::TextTable table({"Threads", "Autograd s", "Engine s",
                           "Autograd seq/s", "Engine seq/s", "Speedup"});
    for (int threads : {1, 4, 8}) {
      // Warm both paths (page in weights, size thread-local arenas) so the
      // timed region is steady-state.
      TimedRun(traffic, threads,
               [&](const std::vector<int32_t>& ids) { model.Predict(ids); });
      double autograd_s = TimedRun(
          traffic, threads,
          [&](const std::vector<int32_t>& ids) { model.Predict(ids); });
      TimedRun(traffic, threads, [&](const std::vector<int32_t>& ids) {
        engine.PredictTokens(ids);
      });
      double engine_s = TimedRun(traffic, threads,
                                 [&](const std::vector<int32_t>& ids) {
                                   engine.PredictTokens(ids);
                                 });
      double speedup = autograd_s / engine_s;
      double n = static_cast<double>(traffic.size());
      table.AddRow({std::to_string(threads), fmt(autograd_s, 3),
                    fmt(engine_s, 3), fmt(n / autograd_s, 0),
                    fmt(n / engine_s, 0), fmt(speedup, 2)});
      std::printf(
          "{\"bench\":\"micro_infer\",\"simd_lanes\":%d,\"threads\":%d,"
          "\"sequences\":%zu,\"autograd_seconds\":%.6f,"
          "\"engine_seconds\":%.6f,\"autograd_seq_per_s\":%.1f,"
          "\"engine_seq_per_s\":%.1f,\"speedup\":%.3f}\n",
          tensor::kSimdLanes, threads, traffic.size(), autograd_s, engine_s,
          n / autograd_s, n / engine_s, speedup);
    }
    std::printf("\n%s\n", table.Render().c_str());
  }

  // Part 2: packed-batch sweep. Bit-identity is checked before timing.
  {
    Rng check_rng(15);
    infer::PackedEngine packed_float(model, infer::PackedEngineOptions{});
    CheckPackedBitIdentity(engine, packed_float,
                           MakeTraffic(config, 64, check_rng));
    std::printf(
        "packed float verified bit-identical to per-example engine\n\n");
  }
  eval::TextTable packed_table({"Batch", "Engine tok/s", "Packed f32 tok/s",
                                "Packed int8 tok/s", "f32 speedup",
                                "int8 speedup"});
  double int8_speedup_at_64 = 0.0;
  Rng sweep_rng(16);
  const std::vector<size_t> batches =
      smoke ? std::vector<size_t>{64} : std::vector<size_t>{1, 8, 64, 512};
  for (size_t batch_size : batches) {
    double int8_speedup =
        RunPackedSweep(model, engine, batch_size, sweep_rng, packed_table);
    if (batch_size == 64) int8_speedup_at_64 = int8_speedup;
  }
  std::printf("\n%s\n", packed_table.Render().c_str());

  if (!smoke) {
    // Part 3: single-request latency, the path Extract() and the detector
    // take. Informational: no gate.
    infer::PackedEngine packed(model, infer::PackedEngineOptions{});
    eval::TextTable latency_table(
        {"T", "Engine p50 us", "Packed 1-seq p50 us", "Speedup"});
    Rng latency_rng(17);
    for (int64_t t : {12, 24, 48}) {
      RunSingleSequenceLatency(model, engine, packed, t, latency_rng,
                               latency_table);
    }
    std::printf("\nsingle-sequence latency (one call at a time)\n%s\n",
                latency_table.Render().c_str());
  }

  if (smoke) {
    // CI gate: packed int8 regressing below 1.5x the per-example engine at
    // batch 64 means the padding-free path lost its reason to exist.
    GOALEX_CHECK_MSG(int8_speedup_at_64 >= 1.5,
                     "packed int8 inference regressed below 1.5x the "
                     "per-example engine at batch 64");
    CheckInt8F1Parity();
  }
  EmitMetricsSnapshot("inference engine run");
}

}  // namespace
}  // namespace goalex::bench

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--smoke") smoke = true;
  }
  goalex::bench::Run(smoke);
  return 0;
}
