#ifndef GOALEX_STORAGE_SEGMENT_H_
#define GOALEX_STORAGE_SEGMENT_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "storage/env.h"
#include "storage/row.h"

namespace goalex::storage {

/// Secondary-index sections of a sealed segment. Each is a sorted
/// string-keyed dictionary of posting lists (ascending row ordinals within
/// the segment), laid out flat so lookups are binary searches over the
/// mmap'ed bytes — no deserialization on load.
enum class SegmentIndex : uint32_t {
  kCompany = 4,       ///< company -> rows
  kFieldKind = 5,     ///< field kind (non-empty value) -> rows
  kFieldValue = 6,    ///< FieldValueKey(kind, value) -> rows
  kDeadlineYear = 7,  ///< YearKey(normalized deadline year) -> rows
  kText = 8,          ///< lowercased word term -> rows (objective + details)
};

/// Composite key of the exact-value index.
std::string FieldValueKey(std::string_view kind, std::string_view value);

/// Order-preserving key encoding of a (possibly negative) year: biased and
/// zero-padded so lexicographic order over keys equals numeric order over
/// years, which is what makes deadline range scans a dictionary walk.
std::string YearKey(int year);

/// Streams the indexable terms of a text: its word tokens under
/// text::WordTokenizer's rules (runs of ASCII alphanumerics and non-ASCII
/// bytes, with '.' and ',' kept between digits, so "62.1" and "10,000" are
/// one term each), ASCII-lowercased. Punctuation tokens are never terms.
/// The one tokenizer of the text index: rows are indexed and queries are
/// parsed through it, so both sides always agree on what a term is. The
/// current term lives in a buffer the scanner reuses, so a scan allocates
/// nothing per token.
class TextTermScanner {
 public:
  explicit TextTermScanner(std::string_view text) : text_(text) {}

  /// Advances to the next term; false at the end of the text.
  bool Next();

  /// The current term, lowercased. Valid until the next call to Next().
  std::string_view term() const { return term_; }

 private:
  std::string_view text_;
  size_t pos_ = 0;
  std::string term_;
};

/// Lowercased indexable terms of `text` (TextTermScanner), in token order
/// with duplicates preserved (the phrase side needs the sequence).
std::vector<std::string> TextIndexTerms(std::string_view text);

/// True when `terms` (from TextIndexTerms) appear contiguously, in order,
/// in the token stream of `text` (case-insensitive). Empty phrases match.
bool ContainsPhrase(std::string_view text,
                    const std::vector<std::string>& terms);

/// Hash of a string-keyed map that also looks keys up by string_view, so
/// probing a key never builds a std::string.
struct StringKeyHash {
  using is_transparent = void;
  size_t operator()(std::string_view key) const {
    return std::hash<std::string_view>{}(key);
  }
};

template <typename Value>
using StringKeyMap =
    std::unordered_map<std::string, Value, StringKeyHash, std::equal_to<>>;

/// A posting list of a segment: `count` u32 ordinals, ascending, inside an
/// mmap'ed file or a growing segment's vector. Accessed by value copy per
/// element (mapped bytes may be unaligned).
class PostingsView {
 public:
  PostingsView() = default;
  PostingsView(const uint8_t* base, size_t count)
      : base_(base), count_(count) {}

  size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }
  uint32_t At(size_t i) const;

 private:
  const uint8_t* base_ = nullptr;
  size_t count_ = 0;
};

/// The one index implementation of the store: a mutable, fully indexed
/// in-memory segment. ObjectiveDatabase keeps each shard's growing rows in
/// one, adding every row to the indexes as it is written; growing-side
/// queries read the same postings; and a seal serializes it as it stands
/// into the sealed-segment file format (DESIGN.md §12.2, §12.4), so a row
/// is indexed once in its life. Save() and tests build files through it
/// too.
///
/// Keys live in hash maps while the segment grows and are sorted once, by
/// Serialize(). Postings are ascending u32 row ordinals, the same
/// PostingsView shape SealedSegment serves, so one query path reads both.
/// Not thread-safe for writers; const access may be concurrent.
class GrowingSegment {
 public:
  /// Appends a row. Row ids must be strictly ascending.
  void Append(Row row);

  /// Replaces the row at `ordinal` (< num_rows) with `row`, which keeps the
  /// row id: the old row's postings and counts are removed and the new
  /// row's added, so the result is exactly what appending the new row in
  /// that position would have built.
  void Replace(uint32_t ordinal, Row row);

  size_t num_rows() const { return rows_.size(); }
  bool empty() const { return rows_.empty(); }
  int64_t min_row_id() const {
    return rows_.empty() ? 0 : rows_.front().row_id;
  }
  int64_t max_row_id() const {
    return rows_.empty() ? -1 : rows_.back().row_id;
  }

  /// The row at `ordinal` (< num_rows).
  const Row& row(uint64_t ordinal) const { return rows_[ordinal]; }

  /// Copies the row at `ordinal` into `out` (the SealedSegment shape).
  bool ReadRow(uint64_t ordinal, Row* out) const;

  /// Binary-searches the rows by id. nullopt when absent.
  std::optional<uint64_t> FindRowId(int64_t row_id) const;

  /// Posting list for `key` in `index` (empty when the key is absent).
  /// Valid until the next Append or Replace.
  PostingsView Postings(SegmentIndex index, std::string_view key) const;

  /// Visits every key of `index`, in no particular order.
  void ForEachKey(SegmentIndex index,
                  const std::function<void(std::string_view)>& fn) const;

  /// Visits the posting list of every deadline year in [min_year,
  /// max_year], in no particular order.
  void ForEachYearInRange(
      int min_year, int max_year,
      const std::function<void(const PostingsView&)>& fn) const;

  /// Per-company row counts and per-(company, kind) non-empty-field counts,
  /// keyed as in SealedSegment.
  const StringKeyMap<int64_t>& company_rows() const { return company_rows_; }
  const StringKeyMap<int64_t>& company_kind_rows() const {
    return company_kind_rows_;
  }

  /// Serializes the complete segment file image: rows in ordinal order,
  /// every dictionary sorted by key.
  std::string Serialize() const;

  /// Writes Serialize() to `path` via `env` and fsyncs it. The caller is
  /// responsible for the temp-file + rename commit protocol.
  Status WriteTo(Env* env, const std::string& path) const;

 private:
  using Dict = StringKeyMap<std::vector<uint32_t>>;
  static constexpr size_t kIndexCount = 5;

  Dict& DictFor(SegmentIndex index);
  const Dict& DictFor(SegmentIndex index) const;

  /// Adds (`delta` = +1) or removes (-1) every index entry and count of
  /// `row` at `ordinal`.
  void IndexRow(const Row& row, uint32_t ordinal, int delta);

  std::vector<Row> rows_;
  Dict dicts_[kIndexCount];  ///< By SegmentIndex, in enum order.
  StringKeyMap<int64_t> company_rows_;
  StringKeyMap<int64_t> company_kind_rows_;
};

/// An immutable, mmap-backed sealed segment. Open() maps the file, checks
/// the framing magic and the whole-body CRC-32 (one streaming pass at
/// memory bandwidth — this is what keeps million-row cold starts fast while
/// still turning any bit flip into a clean DataLoss), and binds section
/// pointers; rows and posting lists are then read straight out of the
/// mapping, materialized only when a query touches them.
///
/// Every accessor is bounds-checked against the mapped region, so even a
/// hypothetically corrupt segment (CRC collision) degrades to empty/missing
/// results, never to out-of-bounds reads.
class SealedSegment {
 public:
  static StatusOr<std::shared_ptr<SealedSegment>> Open(
      Env* env, const std::string& path);

  uint64_t num_rows() const { return row_count_; }
  const std::string& path() const { return path_; }

  /// Row id stored at `ordinal` (< num_rows).
  int64_t RowIdAt(uint64_t ordinal) const;
  int64_t min_row_id() const { return row_count_ == 0 ? 0 : RowIdAt(0); }
  int64_t max_row_id() const {
    return row_count_ == 0 ? -1 : RowIdAt(row_count_ - 1);
  }

  /// Materializes the row at `ordinal`. False only on a corrupt segment.
  bool ReadRow(uint64_t ordinal, Row* out) const;

  /// Binary-searches the row-id column. nullopt when absent.
  std::optional<uint64_t> FindRowId(int64_t row_id) const;

  /// Posting list for `key` in `index` (empty when the key is absent).
  PostingsView Postings(SegmentIndex index, std::string_view key) const;

  /// Visits every key of `index` in ascending order.
  void ForEachKey(SegmentIndex index,
                  const std::function<void(std::string_view)>& fn) const;

  /// Visits the posting list of every deadline year in [min_year,
  /// max_year], ascending.
  void ForEachYearInRange(
      int min_year, int max_year,
      const std::function<void(const PostingsView&)>& fn) const;

  /// Per-company row counts (STATS section, parsed at open).
  const StringKeyMap<int64_t>& company_rows() const { return company_rows_; }
  /// Per-(company, kind) non-empty-field counts, keyed
  /// company + '\x1f' + kind.
  const StringKeyMap<int64_t>& company_kind_rows() const {
    return company_kind_rows_;
  }

 private:
  /// A bound string-keyed dictionary section.
  struct Dict {
    uint64_t term_count = 0;
    const uint8_t* key_offsets = nullptr;   ///< u64[term_count + 1]
    const uint8_t* post_offsets = nullptr;  ///< u64[term_count + 1]
    const uint8_t* key_blob = nullptr;
    uint64_t key_blob_size = 0;
    const uint8_t* postings = nullptr;  ///< u32[total_postings]
    uint64_t total_postings = 0;

    std::string_view KeyAt(uint64_t i) const;
    PostingsView PostingsAt(uint64_t i) const;
    /// Index of the first key >= `key`.
    uint64_t LowerBound(std::string_view key) const;
  };

  SealedSegment() = default;

  Status Bind();  // Parses the section table and binds pointers.
  const Dict* DictFor(SegmentIndex index) const;

  std::string path_;
  std::unique_ptr<MmapFile> file_;
  uint64_t row_count_ = 0;
  const uint8_t* row_ids_ = nullptr;      ///< i64[row_count]
  const uint8_t* row_offsets_ = nullptr;  ///< u64[row_count + 1]
  const uint8_t* row_data_ = nullptr;
  uint64_t row_data_size_ = 0;
  Dict company_;
  Dict field_kind_;
  Dict field_value_;
  Dict year_;
  Dict text_;
  StringKeyMap<int64_t> company_rows_;
  StringKeyMap<int64_t> company_kind_rows_;
};

}  // namespace goalex::storage

#endif  // GOALEX_STORAGE_SEGMENT_H_
