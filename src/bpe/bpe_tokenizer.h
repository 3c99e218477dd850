#ifndef GOALEX_BPE_BPE_TOKENIZER_H_
#define GOALEX_BPE_BPE_TOKENIZER_H_

#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bpe/vocab.h"
#include "common/status.h"

namespace goalex::bpe {

/// One learned merge rule: the pair of adjacent symbols to join.
struct MergeRule {
  std::string left;
  std::string right;

  friend bool operator==(const MergeRule& a, const MergeRule& b) {
    return a.left == b.left && a.right == b.right;
  }
};

/// A subword token produced by encoding, with provenance back to the word it
/// came from (used to project word-level weak labels onto subwords).
struct Subword {
  std::string text;      ///< Surface form (no boundary markers).
  TokenId id = 0;        ///< Vocabulary id.
  size_t word_index = 0; ///< Index of the source word-level token.
  bool is_word_start = false;  ///< True for the first subword of its word.
};

/// Byte-Pair Encoding model: learned merge table + vocabulary. Pre-tokenizes
/// with the same word tokenizer used by the weak labeler, then applies BPE
/// merges within each word (Sennrich et al. [27] style). Lowercasing at
/// encode time models the cased (RoBERTa-like) vs uncased (BERT-like)
/// tokenizer distinction evaluated in Figure 4.
class BpeModel {
 public:
  /// Learns a BPE model from `corpus` (one text per entry) with at most
  /// `merge_count` merges. `lowercase` folds the corpus before training.
  static BpeModel Train(const std::vector<std::string>& corpus,
                        size_t merge_count, bool lowercase = false);

  /// Encodes `text` into subwords. Words not seen in training fall back to
  /// characters; characters outside the alphabet map to <unk>.
  std::vector<Subword> Encode(std::string_view text) const;

  /// Encodes pre-tokenized words (each entry is one word-level token).
  std::vector<Subword> EncodeWords(
      const std::vector<std::string>& words) const;

  /// Decodes ids back to a readable string (subwords joined with word
  /// boundaries restored best-effort).
  std::string Decode(const std::vector<TokenId>& ids) const;

  const Vocab& vocab() const { return vocab_; }
  const std::vector<MergeRule>& merges() const { return merges_; }
  bool lowercase() const { return lowercase_; }

  /// Serializes the model to a simple line-based format.
  std::string Serialize() const;

  /// Restores a model from Serialize() output.
  static StatusOr<BpeModel> Deserialize(std::string_view data);

  /// Freezes the per-word encode cache: after this call Encode/EncodeWords
  /// never mutate the model, making concurrent encoding safe. Words absent
  /// from the cache are still encoded correctly (recomputed per call).
  /// Called once the training corpus has been encoded (or after loading).
  void Freeze() { frozen_ = true; }
  bool frozen() const { return frozen_; }

 private:
  BpeModel() = default;

  /// One word's encoding: its subword strings and their vocabulary ids.
  struct EncodedWord {
    std::vector<std::string> pieces;
    std::vector<TokenId> ids;
  };

  /// Applies the merge table to one word. A cache hit returns the cached
  /// entry itself (no copy); a miss encodes into `scratch`, caches it while
  /// the model is not frozen, and returns it.
  const EncodedWord& ApplyMerges(const std::string& word,
                                 EncodedWord& scratch) const;

  Vocab vocab_;
  std::vector<MergeRule> merges_;
  /// rank of each merge pair, keyed by "left\x1Fright".
  std::unordered_map<std::string, size_t> merge_ranks_;
  bool lowercase_ = false;
  /// Per-word encode cache (word -> subword strings and ids). Lazily filled
  /// on the hot path until Freeze(); immutable (and thus thread-safe)
  /// afterwards. The vocabulary is fixed once trained or loaded, so cached
  /// ids never go stale.
  mutable std::unordered_map<std::string, EncodedWord> cache_;
  bool frozen_ = false;
};

}  // namespace goalex::bpe

#endif  // GOALEX_BPE_BPE_TOKENIZER_H_
