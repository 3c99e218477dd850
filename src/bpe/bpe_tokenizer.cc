#include "bpe/bpe_tokenizer.h"

#include <algorithm>
#include <map>
#include <sstream>

#include "common/check.h"
#include "common/string_util.h"
#include "text/word_tokenizer.h"

namespace goalex::bpe {
namespace {

constexpr char kRankSep = '\x1F';

std::string PairKey(std::string_view left, std::string_view right) {
  std::string key;
  key.reserve(left.size() + right.size() + 1);
  key.append(left);
  key.push_back(kRankSep);
  key.append(right);
  return key;
}

// Splits a word into UTF-8 character symbols.
std::vector<std::string> SplitToChars(const std::string& word) {
  std::vector<std::string> symbols;
  size_t i = 0;
  while (i < word.size()) {
    size_t length = 1;
    unsigned char b = static_cast<unsigned char>(word[i]);
    if ((b & 0xE0) == 0xC0) {
      length = 2;
    } else if ((b & 0xF0) == 0xE0) {
      length = 3;
    } else if ((b & 0xF8) == 0xF0) {
      length = 4;
    }
    length = std::min(length, word.size() - i);
    symbols.push_back(word.substr(i, length));
    i += length;
  }
  return symbols;
}

}  // namespace

BpeModel BpeModel::Train(const std::vector<std::string>& corpus,
                         size_t merge_count, bool lowercase) {
  BpeModel model;
  model.lowercase_ = lowercase;

  // Count unique words across the corpus.
  text::WordTokenizer word_tokenizer;
  std::unordered_map<std::string, int64_t> word_counts;
  for (const std::string& doc : corpus) {
    std::string prepared = lowercase ? AsciiToLower(doc) : doc;
    for (const std::string& w : word_tokenizer.TokenizeToStrings(prepared)) {
      ++word_counts[w];
    }
  }

  // Working representation: each unique word as a symbol sequence + count.
  struct WordEntry {
    std::vector<std::string> symbols;
    int64_t count;
  };
  std::vector<WordEntry> words;
  words.reserve(word_counts.size());
  for (const auto& [word, count] : word_counts) {
    words.push_back(WordEntry{SplitToChars(word), count});
  }
  // Deterministic order regardless of hash-map iteration.
  std::sort(words.begin(), words.end(),
            [](const WordEntry& a, const WordEntry& b) {
              return a.symbols < b.symbols;
            });

  // Seed the vocabulary with all single characters.
  for (const WordEntry& entry : words) {
    for (const std::string& symbol : entry.symbols) {
      model.vocab_.AddToken(symbol);
    }
  }

  for (size_t merge = 0; merge < merge_count; ++merge) {
    // Count adjacent symbol pairs. std::map gives deterministic tie-breaks.
    std::map<std::pair<std::string, std::string>, int64_t> pair_counts;
    for (const WordEntry& entry : words) {
      for (size_t i = 0; i + 1 < entry.symbols.size(); ++i) {
        pair_counts[{entry.symbols[i], entry.symbols[i + 1]}] += entry.count;
      }
    }
    if (pair_counts.empty()) break;

    auto best = pair_counts.begin();
    for (auto it = pair_counts.begin(); it != pair_counts.end(); ++it) {
      if (it->second > best->second) best = it;
    }
    if (best->second < 2) break;  // No productive merges left.

    const std::string& left = best->first.first;
    const std::string& right = best->first.second;
    std::string joined = left + right;
    model.merge_ranks_[PairKey(left, right)] = model.merges_.size();
    model.merges_.push_back(MergeRule{left, right});
    model.vocab_.AddToken(joined);

    // Apply the merge to every word.
    for (WordEntry& entry : words) {
      std::vector<std::string>& symbols = entry.symbols;
      size_t write = 0;
      for (size_t read = 0; read < symbols.size(); ++read) {
        if (read + 1 < symbols.size() && symbols[read] == left &&
            symbols[read + 1] == right) {
          symbols[write++] = joined;
          ++read;
        } else {
          if (write != read) symbols[write] = std::move(symbols[read]);
          ++write;
        }
      }
      symbols.resize(write);
    }
  }
  return model;
}

const BpeModel::EncodedWord& BpeModel::ApplyMerges(
    const std::string& word, EncodedWord& scratch) const {
  auto cached = cache_.find(word);
  if (cached != cache_.end()) return cached->second;

  std::vector<std::string> symbols = SplitToChars(word);
  while (symbols.size() > 1) {
    // Find the adjacent pair with the lowest merge rank.
    size_t best_rank = merge_ranks_.size();
    size_t best_pos = symbols.size();
    for (size_t i = 0; i + 1 < symbols.size(); ++i) {
      auto it = merge_ranks_.find(PairKey(symbols[i], symbols[i + 1]));
      if (it != merge_ranks_.end() && it->second < best_rank) {
        best_rank = it->second;
        best_pos = i;
      }
    }
    if (best_pos == symbols.size()) break;
    symbols[best_pos] += symbols[best_pos + 1];
    symbols.erase(symbols.begin() + best_pos + 1);
  }

  scratch.ids.clear();
  for (const std::string& piece : symbols) {
    scratch.ids.push_back(vocab_.GetId(piece));
  }
  scratch.pieces = std::move(symbols);
  if (!frozen_ && cache_.size() < 200000) {
    return cache_.emplace(word, std::move(scratch)).first->second;
  }
  return scratch;
}

std::vector<Subword> BpeModel::EncodeWords(
    const std::vector<std::string>& words) const {
  std::vector<Subword> out;
  EncodedWord scratch;
  std::string lowered;
  for (size_t w = 0; w < words.size(); ++w) {
    const std::string* prepared = &words[w];
    if (lowercase_) {
      lowered = AsciiToLower(words[w]);
      prepared = &lowered;
    }
    const EncodedWord& encoded = ApplyMerges(*prepared, scratch);
    for (size_t p = 0; p < encoded.pieces.size(); ++p) {
      Subword sw;
      sw.text = encoded.pieces[p];
      sw.id = encoded.ids[p];
      sw.word_index = w;
      sw.is_word_start = (p == 0);
      out.push_back(std::move(sw));
    }
  }
  return out;
}

std::vector<Subword> BpeModel::Encode(std::string_view text) const {
  text::WordTokenizer word_tokenizer;
  return EncodeWords(word_tokenizer.TokenizeToStrings(text));
}

std::string BpeModel::Decode(const std::vector<TokenId>& ids) const {
  std::string out;
  for (TokenId id : ids) {
    if (id == Vocab::kPadId || id == Vocab::kBosId || id == Vocab::kEosId) {
      continue;
    }
    if (!out.empty()) out.push_back(' ');
    out += vocab_.GetToken(id);
  }
  return out;
}

std::string BpeModel::Serialize() const {
  std::ostringstream out;
  out << "bpe_v1\n" << (lowercase_ ? 1 : 0) << "\n" << merges_.size() << "\n";
  for (const MergeRule& rule : merges_) {
    out << rule.left << kRankSep << rule.right << "\n";
  }
  // Persist the full vocabulary (character alphabet is not derivable from
  // merges alone).
  out << vocab_.size() << "\n";
  for (size_t i = 4; i < vocab_.size(); ++i) {
    out << vocab_.GetToken(static_cast<TokenId>(i)) << "\n";
  }
  return out.str();
}

StatusOr<BpeModel> BpeModel::Deserialize(std::string_view data) {
  std::vector<std::string> lines = StrSplit(data, '\n');
  size_t pos = 0;
  auto next_line = [&]() -> StatusOr<std::string> {
    if (pos >= lines.size()) {
      return DataLossError("bpe model truncated");
    }
    return lines[pos++];
  };

  auto header = next_line();
  if (!header.ok()) return header.status();
  if (*header != "bpe_v1") {
    return InvalidArgumentError("bad bpe model header: " + *header);
  }
  auto lowercase_line = next_line();
  if (!lowercase_line.ok()) return lowercase_line.status();
  auto merge_count_line = next_line();
  if (!merge_count_line.ok()) return merge_count_line.status();

  BpeModel model;
  model.lowercase_ = (*lowercase_line == "1");
  size_t merge_count = std::strtoull(merge_count_line->c_str(), nullptr, 10);
  for (size_t i = 0; i < merge_count; ++i) {
    auto line = next_line();
    if (!line.ok()) return line.status();
    size_t sep = line->find(kRankSep);
    if (sep == std::string::npos) {
      return DataLossError("bad merge rule line: " + *line);
    }
    MergeRule rule{line->substr(0, sep), line->substr(sep + 1)};
    model.merge_ranks_[PairKey(rule.left, rule.right)] =
        model.merges_.size();
    model.merges_.push_back(std::move(rule));
  }
  auto vocab_count_line = next_line();
  if (!vocab_count_line.ok()) return vocab_count_line.status();
  size_t vocab_count = std::strtoull(vocab_count_line->c_str(), nullptr, 10);
  if (vocab_count < 4) return DataLossError("vocab too small");
  for (size_t i = 4; i < vocab_count; ++i) {
    auto line = next_line();
    if (!line.ok()) return line.status();
    model.vocab_.AddToken(*line);
  }
  return model;
}

}  // namespace goalex::bpe
