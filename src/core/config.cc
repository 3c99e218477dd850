#include "core/config.h"

#include <charconv>
#include <sstream>

#include "common/string_util.h"

namespace goalex::core {
namespace {

// Strict numeric parsing for config values. Malformed input — empty,
// non-numeric, trailing garbage, or out of range — is rejected with an
// InvalidArgumentError naming the key, never silently coerced (the old
// atoi path turned "epochs=abc" into a model that trains for 0 epochs).
template <typename T>
Status ParseNumber(const std::string& key, const std::string& value,
                   T* out) {
  const char* begin = value.data();
  const char* end = begin + value.size();
  auto [ptr, ec] = std::from_chars(begin, end, *out);
  if (ec == std::errc() && ptr == end && !value.empty()) {
    return Status::Ok();
  }
  return InvalidArgumentError("config key '" + key +
                              "': invalid numeric value \"" + value + "\"");
}

Status ParseBool(const std::string& key, const std::string& value,
                 bool* out) {
  if (value == "0" || value == "1") {
    *out = (value == "1");
    return Status::Ok();
  }
  return InvalidArgumentError("config key '" + key +
                              "': expected 0 or 1, got \"" + value + "\"");
}

}  // namespace

const char* ModelPresetName(ModelPreset preset) {
  switch (preset) {
    case ModelPreset::kRoberta:
      return "roberta";
    case ModelPreset::kDistilRoberta:
      return "distilroberta";
    case ModelPreset::kBert:
      return "bert";
    case ModelPreset::kDistilBert:
      return "distilbert";
  }
  return "unknown";
}

bool ExtractorConfig::LowercaseTokenizer() const {
  return preset == ModelPreset::kBert || preset == ModelPreset::kDistilBert;
}

nn::TransformerConfig ExtractorConfig::BuildTransformerConfig(
    int32_t vocab_size) const {
  nn::TransformerConfig config;
  config.vocab_size = vocab_size;
  config.max_seq_len = max_seq_len;
  config.d_model = d_model;
  config.heads = heads;
  config.ffn_dim = ffn_dim;
  config.dropout = dropout;
  bool distilled = preset == ModelPreset::kDistilRoberta ||
                   preset == ModelPreset::kDistilBert;
  config.layers = distilled ? std::max(1, base_layers / 2) : base_layers;
  config.sinusoidal_positions =
      preset == ModelPreset::kBert || preset == ModelPreset::kDistilBert;
  return config;
}

StatusOr<ModelPreset> ParseModelPreset(std::string_view name) {
  if (name == "roberta") return ModelPreset::kRoberta;
  if (name == "distilroberta") return ModelPreset::kDistilRoberta;
  if (name == "bert") return ModelPreset::kBert;
  if (name == "distilbert") return ModelPreset::kDistilBert;
  return InvalidArgumentError("unknown model preset: " + std::string(name));
}

std::string ExtractorConfig::ToText() const {
  std::ostringstream out;
  out << "kinds=" << StrJoin(kinds, ",") << "\n"
      << "preset=" << ModelPresetName(preset) << "\n"
      << "epochs=" << epochs << "\n"
      << "learning_rate=" << learning_rate << "\n"
      << "learning_rate_scale=" << learning_rate_scale << "\n"
      << "batch_size=" << batch_size << "\n"
      << "dropout=" << dropout << "\n"
      << "seed=" << seed << "\n"
      << "bpe_merges=" << bpe_merges << "\n"
      << "max_seq_len=" << max_seq_len << "\n"
      << "d_model=" << d_model << "\n"
      << "heads=" << heads << "\n"
      << "ffn_dim=" << ffn_dim << "\n"
      << "base_layers=" << base_layers << "\n"
      << "normalize_text=" << (normalize_text ? 1 : 0) << "\n"
      << "num_threads=" << num_threads << "\n"
      << "enable_metrics=" << (enable_metrics ? 1 : 0) << "\n"
      << "use_inference_engine=" << (use_inference_engine ? 1 : 0) << "\n"
      << "packed_inference=" << (packed_inference ? 1 : 0) << "\n"
      << "packed_chunk_tokens=" << packed_chunk_tokens << "\n"
      << "quantize_int8=" << (quantize_int8 ? 1 : 0) << "\n"
      << "segment_multi_target=" << (segment_multi_target ? 1 : 0) << "\n"
      << "exact_match=" << (weak_labeler.exact_match ? 1 : 0) << "\n";
  return out.str();
}

StatusOr<ExtractorConfig> ExtractorConfig::FromText(std::string_view text) {
  ExtractorConfig config;
  for (const std::string& line : StrSplit(text, '\n')) {
    if (line.empty()) continue;
    size_t eq = line.find('=');
    if (eq == std::string::npos) {
      return DataLossError("bad config line: " + line);
    }
    std::string key = line.substr(0, eq);
    std::string value = line.substr(eq + 1);
    if (key == "kinds") {
      config.kinds.clear();
      for (const std::string& kind : StrSplit(value, ',')) {
        if (!kind.empty()) config.kinds.push_back(kind);
      }
    } else if (key == "preset") {
      auto preset = ParseModelPreset(value);
      if (!preset.ok()) return preset.status();
      config.preset = *preset;
    } else if (key == "epochs") {
      GOALEX_RETURN_IF_ERROR(ParseNumber(key, value, &config.epochs));
    } else if (key == "learning_rate") {
      GOALEX_RETURN_IF_ERROR(ParseNumber(key, value, &config.learning_rate));
    } else if (key == "learning_rate_scale") {
      GOALEX_RETURN_IF_ERROR(
          ParseNumber(key, value, &config.learning_rate_scale));
    } else if (key == "batch_size") {
      GOALEX_RETURN_IF_ERROR(ParseNumber(key, value, &config.batch_size));
    } else if (key == "dropout") {
      GOALEX_RETURN_IF_ERROR(ParseNumber(key, value, &config.dropout));
    } else if (key == "seed") {
      GOALEX_RETURN_IF_ERROR(ParseNumber(key, value, &config.seed));
    } else if (key == "bpe_merges") {
      GOALEX_RETURN_IF_ERROR(ParseNumber(key, value, &config.bpe_merges));
    } else if (key == "max_seq_len") {
      GOALEX_RETURN_IF_ERROR(ParseNumber(key, value, &config.max_seq_len));
    } else if (key == "d_model") {
      GOALEX_RETURN_IF_ERROR(ParseNumber(key, value, &config.d_model));
    } else if (key == "heads") {
      GOALEX_RETURN_IF_ERROR(ParseNumber(key, value, &config.heads));
    } else if (key == "ffn_dim") {
      GOALEX_RETURN_IF_ERROR(ParseNumber(key, value, &config.ffn_dim));
    } else if (key == "base_layers") {
      GOALEX_RETURN_IF_ERROR(ParseNumber(key, value, &config.base_layers));
    } else if (key == "normalize_text") {
      GOALEX_RETURN_IF_ERROR(ParseBool(key, value, &config.normalize_text));
    } else if (key == "num_threads") {
      GOALEX_RETURN_IF_ERROR(ParseNumber(key, value, &config.num_threads));
    } else if (key == "enable_metrics") {
      GOALEX_RETURN_IF_ERROR(ParseBool(key, value, &config.enable_metrics));
    } else if (key == "use_inference_engine") {
      GOALEX_RETURN_IF_ERROR(
          ParseBool(key, value, &config.use_inference_engine));
    } else if (key == "packed_inference") {
      GOALEX_RETURN_IF_ERROR(ParseBool(key, value, &config.packed_inference));
    } else if (key == "packed_chunk_tokens") {
      GOALEX_RETURN_IF_ERROR(
          ParseNumber(key, value, &config.packed_chunk_tokens));
    } else if (key == "quantize_int8") {
      GOALEX_RETURN_IF_ERROR(ParseBool(key, value, &config.quantize_int8));
    } else if (key == "segment_multi_target") {
      GOALEX_RETURN_IF_ERROR(
          ParseBool(key, value, &config.segment_multi_target));
    } else if (key == "exact_match") {
      GOALEX_RETURN_IF_ERROR(
          ParseBool(key, value, &config.weak_labeler.exact_match));
    } else {
      return InvalidArgumentError("unknown config key: " + key);
    }
  }
  if (config.kinds.empty()) {
    return InvalidArgumentError("config is missing kinds");
  }
  return config;
}

Status ServeConfig::Validate() const {
  if (max_batch_size <= 0) {
    return InvalidArgumentError("serve: max_batch_size must be positive");
  }
  if (max_queue_depth <= 0) {
    return InvalidArgumentError("serve: max_queue_depth must be positive");
  }
  if (slo_p99_ms <= 0.0) {
    return InvalidArgumentError("serve: slo_p99_ms must be positive");
  }
  if (service_time_ema_alpha <= 0.0 || service_time_ema_alpha > 1.0) {
    return InvalidArgumentError(
        "serve: service_time_ema_alpha must be in (0, 1]");
  }
  if (db_wal_fsync_interval < 0) {
    return InvalidArgumentError(
        "serve: db_wal_fsync_interval must be >= 0");
  }
  return Status::Ok();
}

}  // namespace goalex::core
