#include "core/database.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <sstream>
#include <utility>

#include "common/check.h"
#include "common/string_util.h"
#include "obs/scope.h"
#include "storage/row.h"
#include "values/value_normalizer.h"

namespace goalex::core {
namespace {

std::string CsvEscape(const std::string& raw) {
  // RFC 4180: quote when the field contains a separator, a quote, or any
  // line-break byte. CR matters as much as LF — a bare carriage return in
  // objective text would otherwise split the row in most readers.
  bool needs_quote = raw.find_first_of(",\"\n\r") != std::string::npos;
  if (!needs_quote) return raw;
  std::string out = "\"";
  for (char c : raw) {
    if (c == '"') out += "\"\"";
    else out.push_back(c);
  }
  out.push_back('"');
  return out;
}

void SortByRowId(std::vector<DbRow>* rows) {
  std::sort(rows->begin(), rows->end(),
            [](const DbRow& a, const DbRow& b) { return a.row_id < b.row_id; });
}

// --- Legacy v1 binary snapshot (SaveLegacy / LoadLegacyFile) ---------------

constexpr char kMagic[8] = {'G', 'O', 'A', 'L', 'E', 'X', 'D', 'B'};
constexpr uint32_t kLegacyFormatVersion = 1;
constexpr uint64_t kMaxStringBytes = uint64_t{1} << 30;

void WriteU32(std::ostream& out, uint32_t v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

void WriteU64(std::ostream& out, uint64_t v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

void WriteI64(std::ostream& out, int64_t v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

void WriteI32(std::ostream& out, int32_t v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

void WriteString(std::ostream& out, const std::string& s) {
  WriteU64(out, s.size());
  out.write(s.data(), static_cast<std::streamsize>(s.size()));
}

bool ReadU32(std::istream& in, uint32_t* v) {
  return static_cast<bool>(in.read(reinterpret_cast<char*>(v), sizeof(*v)));
}

bool ReadU64(std::istream& in, uint64_t* v) {
  return static_cast<bool>(in.read(reinterpret_cast<char*>(v), sizeof(*v)));
}

bool ReadI64(std::istream& in, int64_t* v) {
  return static_cast<bool>(in.read(reinterpret_cast<char*>(v), sizeof(*v)));
}

bool ReadI32(std::istream& in, int32_t* v) {
  return static_cast<bool>(in.read(reinterpret_cast<char*>(v), sizeof(*v)));
}

bool ReadString(std::istream& in, std::string* s) {
  uint64_t size = 0;
  if (!ReadU64(in, &size) || size > kMaxStringBytes) return false;
  s->resize(size);
  return static_cast<bool>(
      in.read(s->data(), static_cast<std::streamsize>(size)));
}

std::string SnapshotPath(const std::string& dir) {
  return (std::filesystem::path(dir) / "objectives.db").string();
}

std::string SegmentFileName(size_t shard_index, uint64_t sequence) {
  return "seg-" + std::to_string(shard_index) + "-" +
         std::to_string(sequence) + ".gxseg";
}

std::string WalFileName(size_t shard_index) {
  return "wal-" + std::to_string(shard_index) + ".log";
}

/// Writes `segment` as `dir`/`name` (temp file + fsync + rename, the
/// segment half of the seal protocol) and returns its manifest entry.
StatusOr<storage::ManifestSegment> WriteSegmentFile(
    storage::Env* env, const std::string& dir, const std::string& name,
    size_t shard, const storage::GrowingSegment& segment) {
  const std::string path = dir + "/" + name;
  GOALEX_RETURN_IF_ERROR(segment.WriteTo(env, path + ".tmp"));
  GOALEX_RETURN_IF_ERROR(env->Rename(path + ".tmp", path));
  storage::ManifestSegment entry;
  entry.shard = static_cast<int>(shard);
  entry.file = name;
  entry.rows = segment.num_rows();
  entry.min_row_id = segment.min_row_id();
  entry.max_row_id = segment.max_row_id();
  return entry;
}

/// The WAL framing overhead per record: [u32 crc][u32 len].
constexpr uint64_t kWalRecordHeaderBytes = 8;

// --- QueryText helpers -----------------------------------------------------

struct ParsedTextQuery {
  /// Distinct terms, all of which must appear in a matching row.
  std::vector<std::string> terms;
  /// Multi-term phrases that must additionally appear contiguously.
  std::vector<std::vector<std::string>> phrases;
};

/// Splits `query` into bare terms and "quoted phrases". Phrase terms also
/// join the AND term set (the index prunes candidates; contiguity is
/// checked on the materialized row). An unterminated quote runs to the end
/// of the query.
ParsedTextQuery ParseTextQuery(const std::string& query) {
  ParsedTextQuery parsed;
  std::string bare;
  size_t pos = 0;
  while (pos < query.size()) {
    size_t open = query.find('"', pos);
    if (open == std::string::npos) {
      bare.append(query, pos, query.size() - pos);
      break;
    }
    bare.append(query, pos, open - pos);
    bare.push_back(' ');
    size_t close = query.find('"', open + 1);
    std::string inside = close == std::string::npos
                             ? query.substr(open + 1)
                             : query.substr(open + 1, close - open - 1);
    std::vector<std::string> terms = storage::TextIndexTerms(inside);
    for (const std::string& term : terms) parsed.terms.push_back(term);
    if (terms.size() > 1) parsed.phrases.push_back(std::move(terms));
    pos = close == std::string::npos ? query.size() : close + 1;
  }
  for (std::string& term : storage::TextIndexTerms(bare)) {
    parsed.terms.push_back(std::move(term));
  }
  std::sort(parsed.terms.begin(), parsed.terms.end());
  parsed.terms.erase(std::unique(parsed.terms.begin(), parsed.terms.end()),
                     parsed.terms.end());
  return parsed;
}

/// True when every phrase appears contiguously in the row's objective text
/// or in one of its non-empty field values.
bool RowMatchesPhrases(const DbRow& row,
                       const std::vector<std::vector<std::string>>& phrases) {
  for (const std::vector<std::string>& phrase : phrases) {
    if (storage::ContainsPhrase(row.record.objective_text, phrase)) continue;
    bool matched = false;
    for (const auto& [kind, value] : row.record.fields) {
      if (!value.empty() && storage::ContainsPhrase(value, phrase)) {
        matched = true;
        break;
      }
    }
    if (!matched) return false;
  }
  return true;
}

/// Intersects a sorted candidate vector with a sorted posting list.
std::vector<uint32_t> IntersectWithView(const std::vector<uint32_t>& a,
                                        const storage::PostingsView& b) {
  std::vector<uint32_t> out;
  size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    uint32_t x = a[i], y = b.At(j);
    if (x == y) {
      out.push_back(x);
      ++i;
      ++j;
    } else if (x < y) {
      ++i;
    } else {
      ++j;
    }
  }
  return out;
}

template <typename T>
std::vector<T> IntersectSorted(const std::vector<T>& a,
                               const std::vector<T>& b) {
  std::vector<T> out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

/// True when `row_id` is masked by a newer version of its objective.
bool Masked(const std::unordered_map<int64_t, DbRow>& superseded,
            int64_t row_id) {
  return !superseded.empty() && superseded.count(row_id) > 0;
}

/// Materializes the rows of `postings` from `segment` (sealed or growing)
/// into `out`, skipping rows masked by `superseded`.
template <typename Segment>
void CollectRows(const Segment& segment, const storage::PostingsView& postings,
                 const std::unordered_map<int64_t, DbRow>& superseded,
                 std::vector<DbRow>* out) {
  for (size_t i = 0; i < postings.size(); ++i) {
    DbRow row;
    if (!segment.ReadRow(postings.At(i), &row)) continue;
    if (Masked(superseded, row.row_id)) continue;
    out->push_back(std::move(row));
  }
}

/// Year bounds for a deadline filter, clamped to values YearKey encodes
/// losslessly (NormalizeYear never leaves this range).
constexpr int kMinFilterYear = -1000000;
constexpr int kMaxFilterYear = 1000000;

// --- Versioned-upsert helpers ----------------------------------------------

void SetRecordVersion(data::DetailRecord* record, int32_t version) {
  record->fields[kVersionField] = std::to_string(version);
}

void SetRecordSequence(data::DetailRecord* record, int64_t sequence) {
  record->fields[kSequenceField] = std::to_string(sequence);
}

/// True when two rows of the same objective identity carry identical
/// content — metadata, text, and every field including _version (callers
/// build the candidate with the live row's version, so a pure restatement
/// compares equal and becomes a no-op).
bool SameObjectiveContent(const DbRow& a, const DbRow& b) {
  return a.company == b.company && a.document == b.document &&
         a.page == b.page && a.record.objective_id == b.record.objective_id &&
         a.record.objective_text == b.record.objective_text &&
         a.record.fields == b.record.fields;
}

}  // namespace

int32_t RecordVersion(const data::DetailRecord& record) {
  const std::string value = record.FieldOrEmpty(kVersionField);
  if (value.empty()) return 1;
  int version = std::atoi(value.c_str());
  return version >= 1 ? version : 1;
}

int64_t RecordSequence(const data::DetailRecord& record) {
  const std::string value = record.FieldOrEmpty(kSequenceField);
  if (value.empty()) return -1;
  int64_t sequence = std::atoll(value.c_str());
  return sequence >= 0 ? sequence : -1;
}

std::string ObjectiveUpsertKey(const std::string& company,
                               const data::DetailRecord& record) {
  std::string action = record.FieldOrEmpty("Action");
  std::string lemma =
      action.empty() ? std::string() : values::NormalizeAction(action);
  std::string qualifier =
      AsciiToLower(StripAsciiWhitespace(record.FieldOrEmpty("Qualifier")));
  std::string key;
  key.reserve(company.size() + lemma.size() + qualifier.size() + 3);
  key += company;
  key += '\x1f';
  key += lemma;
  key += '\x1f';
  key += qualifier;
  if (lemma.empty() && qualifier.empty()) {
    key += AsciiToLower(StripAsciiWhitespace(record.objective_text));
  }
  return key;
}

ObjectiveDatabase::ObjectiveDatabase(int num_shards, DbOptions options)
    : options_(options),
      env_(options.env != nullptr ? options.env : storage::Env::Default()) {
  if (obs::Active()) {
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Default();
    insert_seconds_ = registry.GetLatencyHistogram("db.insert.seconds");
    query_seconds_ = registry.GetLatencyHistogram("db.query.seconds");
    mmap_load_seconds_ = registry.GetLatencyHistogram("db.mmap_load.seconds");
    insert_counter_ = registry.GetCounter("db.inserts");
    query_counter_ = registry.GetCounter("db.queries");
    wal_append_counter_ = registry.GetCounter("db.wal.appends");
    wal_error_counter_ = registry.GetCounter("db.wal.errors");
    wal_replayed_counter_ = registry.GetCounter("db.wal.replayed_records");
    wal_truncated_bytes_counter_ =
        registry.GetCounter("db.wal.truncated_bytes");
    seal_counter_ = registry.GetCounter("db.segment.seals");
    seal_error_counter_ = registry.GetCounter("db.segment.seal_errors");
    rows_gauge_ = registry.GetGauge("db.rows");
    rows_per_shard_gauge_ = registry.GetGauge("db.rows_per_shard");
    segments_gauge_ = registry.GetGauge("db.segments");
    if (options.track_upserts) {
      upsert_inserted_counter_ = registry.GetCounter("db.upserts.inserted");
      upsert_updated_counter_ = registry.GetCounter("db.upserts.updated");
      upsert_unchanged_counter_ = registry.GetCounter("db.upserts.unchanged");
      superseded_gauge_ = registry.GetGauge("db.superseded_rows");
    }
  }
  ResetShards(num_shards);
}

ObjectiveDatabase::~ObjectiveDatabase() { StopSealer(); }

void ObjectiveDatabase::ResetShards(int count) {
  if (count < 1) count = 1;
  std::vector<std::unique_ptr<Shard>> fresh;
  fresh.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) fresh.push_back(std::make_unique<Shard>());
  shards_.swap(fresh);
  size_.store(0, std::memory_order_release);
  next_id_.store(0, std::memory_order_relaxed);
  superseded_count_.store(0, std::memory_order_release);
  if (superseded_gauge_ != nullptr) superseded_gauge_->Set(0.0);
  if (obs::Active()) {
    obs::MetricsRegistry::Default().GetGauge("db.shards")->Set(
        static_cast<double>(count));
  }
}

size_t ObjectiveDatabase::ShardIndexFor(const std::string& company) const {
  return std::hash<std::string>{}(company) % shards_.size();
}

std::optional<DbRow> ObjectiveDatabase::ReadRowLocked(const Shard& shard,
                                                     int64_t row_id) {
  std::optional<DbRow> found;
  ForEachSegment(shard, [&](const auto& segment) {
    if (found.has_value() || row_id < segment.min_row_id() ||
        row_id > segment.max_row_id()) {
      return;
    }
    if (std::optional<uint64_t> ordinal = segment.FindRowId(row_id)) {
      DbRow row;
      if (segment.ReadRow(*ordinal, &row)) found = std::move(row);
    }
  });
  return found;
}

void ObjectiveDatabase::LogRowLocked(Shard& shard, const DbRow& row) {
  if (shard.wal == nullptr) return;
  std::string payload;
  storage::EncodeRow(row, &payload);
  Status logged = shard.wal->Append(payload);
  if (logged.ok()) {
    if (wal_append_counter_ != nullptr) wal_append_counter_->Increment();
  } else if (wal_error_counter_ != nullptr) {
    wal_error_counter_->Increment();
  }
}

int64_t ObjectiveDatabase::Insert(const data::DetailRecord& record,
                                  const std::string& company,
                                  const std::string& document, int page) {
  obs::ScopedTimer timer(insert_seconds_);
  size_t shard_index = ShardIndexFor(company);
  Shard& shard = *shards_[shard_index];
  int64_t id;
  bool want_seal = false;
  {
    std::unique_lock lock(shard.mu);
    // Id assignment happens under the shard lock so each shard's rows stay
    // sorted by row id (Get binary-searches on that invariant, and the WAL
    // records land in id order).
    id = next_id_.fetch_add(1, std::memory_order_relaxed);
    DbRow row;
    row.row_id = id;
    row.company = company;
    row.document = document;
    row.page = page;
    row.record = record;
    LogRowLocked(shard, row);
    if (options_.track_upserts) {
      // Insert bypasses dedup by design, but keep the identity map
      // coherent for later Upserts: the newest row wins the key.
      shard.latest_by_key[ObjectiveUpsertKey(company, record)] = id;
    }
    shard.growing.Append(std::move(row));
    want_seal =
        attached_.load(std::memory_order_acquire) &&
        options_.seal_threshold > 0 &&
        shard.growing.num_rows() >=
            static_cast<size_t>(options_.seal_threshold);
  }
  size_t total = size_.fetch_add(1, std::memory_order_acq_rel) + 1;
  if (insert_counter_ != nullptr) {
    insert_counter_->Increment();
    UpdateRowGauges(total);
  }
  if (want_seal) RequestSeal(shard_index);
  return id;
}

UpsertResult ObjectiveDatabase::Upsert(const data::DetailRecord& record,
                                       const std::string& company,
                                       const std::string& document,
                                       int page, int64_t source_sequence) {
  GOALEX_CHECK_MSG(options_.track_upserts,
                   "Upsert requires DbOptions::track_upserts");
  obs::ScopedTimer timer(insert_seconds_);
  size_t shard_index = ShardIndexFor(company);
  Shard& shard = *shards_[shard_index];
  std::string key = ObjectiveUpsertKey(company, record);
  UpsertResult result;
  bool appended_row = false;
  bool want_seal = false;
  {
    std::unique_lock lock(shard.mu);
    auto make_row = [&](int64_t id, int32_t version) {
      DbRow row;
      row.row_id = id;
      row.company = company;
      row.document = document;
      row.page = page;
      row.record = record;
      SetRecordVersion(&row.record, version);
      if (source_sequence >= 0) {
        SetRecordSequence(&row.record, source_sequence);
      }
      return row;
    };
    auto key_it = shard.latest_by_key.find(key);
    if (key_it == shard.latest_by_key.end()) {
      // First sighting of this objective identity.
      result.row_id = next_id_.fetch_add(1, std::memory_order_relaxed);
      result.version = 1;
      result.inserted = true;
      DbRow row = make_row(result.row_id, 1);
      LogRowLocked(shard, row);
      shard.growing.Append(std::move(row));
      shard.latest_by_key.emplace(std::move(key), result.row_id);
      appended_row = true;
    } else {
      int64_t live_id = key_it->second;
      // Only a growing row is updated in place. Rows of a frozen segment
      // are immutable like sealed ones: the seal in flight is writing them
      // out as they stand, so an in-place update there would be lost when
      // the sealed file replaces them.
      std::optional<uint64_t> ordinal = shard.growing.FindRowId(live_id);
      std::optional<DbRow> immutable;
      if (!ordinal.has_value()) {
        immutable = ReadRowLocked(shard, live_id);
        GOALEX_CHECK_MSG(immutable.has_value(),
                         "live row " << live_id << " missing from segments");
      }
      const DbRow* old =
          ordinal.has_value() ? &shard.growing.row(*ordinal) : &*immutable;
      int32_t old_version = RecordVersion(old->record);
      const int64_t live_sequence = RecordSequence(old->record);
      if (source_sequence >= 0 && live_sequence >= 0 &&
          source_sequence < live_sequence) {
        // A replayed historical publication of this target: the feed
        // already delivered something newer. Drop it — re-applying old
        // content would walk the row backwards through its history.
        result.row_id = live_id;
        result.version = old_version;
        result.stale = true;
      } else {
        DbRow fresh = make_row(live_id, old_version);
        if (SameObjectiveContent(*old, fresh)) {
          // Byte-identical restatement: replaying a feed is idempotent.
          result.row_id = live_id;
          result.version = old_version;
        } else {
          result.version = old_version + 1;
          result.updated = true;
          SetRecordVersion(&fresh.record, result.version);
          if (ordinal.has_value()) {
            // Update in place: same row id, WAL re-logs it (replay
            // replaces the original record by id).
            result.row_id = live_id;
            LogRowLocked(shard, fresh);
            shard.growing.Replace(static_cast<uint32_t>(*ordinal),
                                  std::move(fresh));
          } else {
            // The live row is sealed or frozen. New versions must keep
            // growing ids above every immutable row, so the update becomes
            // a fresh row and the old one is masked via the overlay.
            result.row_id = next_id_.fetch_add(1, std::memory_order_relaxed);
            fresh.row_id = result.row_id;
            LogRowLocked(shard, fresh);
            shard.growing.Append(std::move(fresh));
            shard.superseded.emplace(live_id, std::move(*immutable));
            superseded_count_.fetch_add(1, std::memory_order_acq_rel);
            key_it->second = result.row_id;
            appended_row = true;
          }
        }
      }
    }
    want_seal =
        appended_row && attached_.load(std::memory_order_acquire) &&
        options_.seal_threshold > 0 &&
        shard.growing.num_rows() >=
            static_cast<size_t>(options_.seal_threshold);
  }
  if (appended_row) {
    size_t total = size_.fetch_add(1, std::memory_order_acq_rel) + 1;
    if (insert_counter_ != nullptr) {
      insert_counter_->Increment();
      UpdateRowGauges(total);
    }
  }
  if (result.inserted) {
    if (upsert_inserted_counter_ != nullptr) {
      upsert_inserted_counter_->Increment();
    }
  } else if (result.updated) {
    if (upsert_updated_counter_ != nullptr) upsert_updated_counter_->Increment();
  } else if (upsert_unchanged_counter_ != nullptr) {
    upsert_unchanged_counter_->Increment();
  }
  if (superseded_gauge_ != nullptr) {
    superseded_gauge_->Set(
        static_cast<double>(superseded_count_.load(std::memory_order_acquire)));
  }
  if (want_seal) RequestSeal(shard_index);
  return result;
}

void ObjectiveDatabase::UpdateRowGauges(size_t total) const {
  if (rows_gauge_ == nullptr) return;
  rows_gauge_->Set(static_cast<double>(total));
  rows_per_shard_gauge_->Set(static_cast<double>(total) /
                             static_cast<double>(shards_.size()));
}

std::vector<size_t> ObjectiveDatabase::RowsPerShard() const {
  std::vector<size_t> out;
  out.reserve(shards_.size());
  for (const auto& shard : shards_) {
    std::shared_lock lock(shard->mu);
    size_t rows = 0;
    ForEachSegment(*shard,
                   [&](const auto& segment) { rows += segment.num_rows(); });
    out.push_back(rows);
  }
  return out;
}

size_t ObjectiveDatabase::SealedSegmentCount() const {
  size_t count = 0;
  for (const auto& shard : shards_) {
    std::shared_lock lock(shard->mu);
    count += shard->sealed.size();
  }
  return count;
}

obs::Histogram* ObjectiveDatabase::QueryHistogram() const {
  if (query_counter_ != nullptr) query_counter_->Increment();
  return query_seconds_;
}

std::optional<DbRow> ObjectiveDatabase::Get(int64_t row_id) const {
  obs::ScopedTimer timer(QueryHistogram());
  for (const auto& shard : shards_) {
    std::shared_lock lock(shard->mu);
    if (std::optional<DbRow> row = ReadRowLocked(*shard, row_id)) return row;
  }
  return std::nullopt;
}

std::vector<DbRow> ObjectiveDatabase::ByCompany(
    const std::string& company) const {
  obs::ScopedTimer timer(QueryHistogram());
  std::vector<DbRow> out;
  const Shard& shard = *shards_[ShardIndexFor(company)];
  std::shared_lock lock(shard.mu);
  ForEachSegment(shard, [&](const auto& segment) {
    CollectRows(segment,
                segment.Postings(storage::SegmentIndex::kCompany, company),
                shard.superseded, &out);
  });
  return out;  // Segments in row-id order, so ascending row id.
}

std::vector<DbRow> ObjectiveDatabase::WithField(
    const std::string& kind) const {
  obs::ScopedTimer timer(QueryHistogram());
  std::vector<DbRow> out;
  for (const auto& shard : shards_) {
    std::shared_lock lock(shard->mu);
    ForEachSegment(*shard, [&](const auto& segment) {
      CollectRows(segment,
                  segment.Postings(storage::SegmentIndex::kFieldKind, kind),
                  shard->superseded, &out);
    });
  }
  SortByRowId(&out);
  return out;
}

std::vector<DbRow> ObjectiveDatabase::WhereFieldEquals(
    const std::string& kind, const std::string& value) const {
  obs::ScopedTimer timer(QueryHistogram());
  std::vector<DbRow> out;
  std::string key = storage::FieldValueKey(kind, value);
  for (const auto& shard : shards_) {
    std::shared_lock lock(shard->mu);
    ForEachSegment(*shard, [&](const auto& segment) {
      CollectRows(segment,
                  segment.Postings(storage::SegmentIndex::kFieldValue, key),
                  shard->superseded, &out);
    });
  }
  SortByRowId(&out);
  return out;
}

std::vector<DbRow> ObjectiveDatabase::ByDeadlineYear(int year) const {
  return DeadlineYearBetween(year, year);
}

std::vector<DbRow> ObjectiveDatabase::DeadlineYearBetween(
    int min_year, int max_year) const {
  obs::ScopedTimer timer(QueryHistogram());
  std::vector<DbRow> out;
  for (const auto& shard : shards_) {
    std::shared_lock lock(shard->mu);
    ForEachSegment(*shard, [&](const auto& segment) {
      segment.ForEachYearInRange(
          min_year, max_year, [&](const storage::PostingsView& postings) {
            CollectRows(segment, postings, shard->superseded, &out);
          });
    });
  }
  SortByRowId(&out);
  return out;
}

std::vector<DbRow> ObjectiveDatabase::QueryText(
    const std::string& query, const TextFilter& filter) const {
  obs::ScopedTimer timer(QueryHistogram());
  std::vector<DbRow> out;
  ParsedTextQuery parsed = ParseTextQuery(query);
  bool use_year = filter.min_deadline_year.has_value() ||
                  filter.max_deadline_year.has_value();
  bool has_filter =
      !filter.company.empty() || !filter.with_field.empty() || use_year;
  if (parsed.terms.empty() && !has_filter) return out;
  int min_year = filter.min_deadline_year.value_or(kMinFilterYear);
  int max_year = filter.max_deadline_year.value_or(kMaxFilterYear);

  auto eval_segment = [&](const Shard& shard, const auto& segment) {
    // Gather every posting list the row must appear in; any empty list
    // rules the whole segment out.
    std::vector<storage::PostingsView> views;
    for (const std::string& term : parsed.terms) {
      storage::PostingsView view =
          segment.Postings(storage::SegmentIndex::kText, term);
      if (view.empty()) return;
      views.push_back(view);
    }
    if (!filter.company.empty()) {
      storage::PostingsView view =
          segment.Postings(storage::SegmentIndex::kCompany, filter.company);
      if (view.empty()) return;
      views.push_back(view);
    }
    if (!filter.with_field.empty()) {
      storage::PostingsView view = segment.Postings(
          storage::SegmentIndex::kFieldKind, filter.with_field);
      if (view.empty()) return;
      views.push_back(view);
    }
    std::vector<uint32_t> year_rows;
    if (use_year) {
      segment.ForEachYearInRange(
          min_year, max_year, [&](const storage::PostingsView& postings) {
            for (size_t i = 0; i < postings.size(); ++i) {
              year_rows.push_back(postings.At(i));
            }
          });
      std::sort(year_rows.begin(), year_rows.end());
      if (year_rows.empty()) return;
    }
    std::vector<uint32_t> candidates;
    if (!views.empty()) {
      size_t smallest = 0;
      for (size_t i = 1; i < views.size(); ++i) {
        if (views[i].size() < views[smallest].size()) smallest = i;
      }
      candidates.reserve(views[smallest].size());
      for (size_t i = 0; i < views[smallest].size(); ++i) {
        candidates.push_back(views[smallest].At(i));
      }
      for (size_t i = 0; i < views.size(); ++i) {
        if (i == smallest) continue;
        candidates = IntersectWithView(candidates, views[i]);
        if (candidates.empty()) return;
      }
      if (use_year) candidates = IntersectSorted(candidates, year_rows);
    } else {
      candidates = std::move(year_rows);
    }
    for (uint32_t ordinal : candidates) {
      DbRow row;
      if (!segment.ReadRow(ordinal, &row)) continue;
      if (Masked(shard.superseded, row.row_id)) continue;
      if (!RowMatchesPhrases(row, parsed.phrases)) continue;
      out.push_back(std::move(row));
    }
  };

  auto visit_shard = [&](const Shard& shard) {
    std::shared_lock lock(shard.mu);
    ForEachSegment(shard, [&](const auto& segment) {
      eval_segment(shard, segment);
    });
  };

  if (!filter.company.empty()) {
    // Rows of one company live in exactly one shard.
    visit_shard(*shards_[ShardIndexFor(filter.company)]);
  } else {
    for (const auto& shard : shards_) visit_shard(*shard);
  }
  SortByRowId(&out);
  return out;
}

std::vector<std::string> ObjectiveDatabase::Companies() const {
  obs::ScopedTimer timer(QueryHistogram());
  std::set<std::string> names;
  for (const auto& shard : shards_) {
    std::shared_lock lock(shard->mu);
    ForEachSegment(*shard, [&](const auto& segment) {
      segment.ForEachKey(
          storage::SegmentIndex::kCompany,
          [&](std::string_view name) { names.insert(std::string(name)); });
    });
  }
  return std::vector<std::string>(names.begin(), names.end());
}

std::map<std::string, int64_t> ObjectiveDatabase::CountPerCompany() const {
  obs::ScopedTimer timer(QueryHistogram());
  std::map<std::string, int64_t> out;
  for (const auto& shard : shards_) {
    std::shared_lock lock(shard->mu);
    ForEachSegment(*shard, [&](const auto& segment) {
      for (const auto& [company, count] : segment.company_rows()) {
        out[company] += count;
      }
    });
    // The per-company counts of every segment include rows masked by a
    // newer version; subtract their stored copies. The overlay is small —
    // a handful of restated objectives, not a row scan.
    for (const auto& [row_id, row] : shard->superseded) {
      auto it = out.find(row.company);
      if (it != out.end() && --it->second <= 0) out.erase(it);
    }
  }
  return out;
}

std::map<std::string, double> ObjectiveDatabase::FieldCoverageByCompany(
    const std::string& kind) const {
  obs::ScopedTimer timer(QueryHistogram());
  std::map<std::string, int64_t> totals;
  std::map<std::string, int64_t> with_field;
  for (const auto& shard : shards_) {
    std::shared_lock lock(shard->mu);
    ForEachSegment(*shard, [&](const auto& segment) {
      for (const auto& [company, count] : segment.company_rows()) {
        totals[company] += count;
        auto it = segment.company_kind_rows().find(
            storage::FieldValueKey(company, kind));
        if (it != segment.company_kind_rows().end()) {
          with_field[company] += it->second;
        }
      }
    });
    // Subtract rows masked by a newer version (see CountPerCompany).
    for (const auto& [row_id, row] : shard->superseded) {
      auto total_it = totals.find(row.company);
      if (total_it != totals.end() && --total_it->second <= 0) {
        totals.erase(total_it);
      }
      if (!row.record.FieldOrEmpty(kind).empty()) {
        auto field_it = with_field.find(row.company);
        if (field_it != with_field.end() && --field_it->second <= 0) {
          with_field.erase(field_it);
        }
      }
    }
  }
  std::map<std::string, double> out;
  for (const auto& [company, total] : totals) {
    int64_t covered = 0;
    auto it = with_field.find(company);
    if (it != with_field.end()) covered = it->second;
    out[company] =
        static_cast<double>(covered) / static_cast<double>(total);
  }
  return out;
}

std::vector<DbRow> ObjectiveDatabase::CollectShardRows(
    const Shard& shard) const {
  std::shared_lock lock(shard.mu);
  std::vector<DbRow> rows;
  ForEachSegment(shard, [&](const auto& segment) {
    for (uint64_t ordinal = 0; ordinal < segment.num_rows(); ++ordinal) {
      DbRow row;
      if (!segment.ReadRow(ordinal, &row)) continue;
      if (Masked(shard.superseded, row.row_id)) continue;
      rows.push_back(std::move(row));
    }
  });
  return rows;
}

std::vector<DbRow> ObjectiveDatabase::SnapshotRows() const {
  std::vector<DbRow> out;
  out.reserve(size());
  for (const auto& shard : shards_) {
    std::vector<DbRow> rows = CollectShardRows(*shard);
    out.insert(out.end(), std::make_move_iterator(rows.begin()),
               std::make_move_iterator(rows.end()));
  }
  SortByRowId(&out);
  return out;
}

std::string ObjectiveDatabase::ExportCsv(
    const std::vector<std::string>& kinds) const {
  obs::ScopedTimer timer(QueryHistogram());
  std::ostringstream out;
  out << "row_id,company,document,page,objective";
  for (const std::string& kind : kinds) out << ',' << CsvEscape(kind);
  out << '\n';
  for (const DbRow& row : SnapshotRows()) {
    out << row.row_id << ',' << CsvEscape(row.company) << ','
        << CsvEscape(row.document) << ',' << row.page << ','
        << CsvEscape(row.record.objective_text);
    for (const std::string& kind : kinds) {
      out << ',' << CsvEscape(row.record.FieldOrEmpty(kind));
    }
    out << '\n';
  }
  return out.str();
}

// --- Persistence -----------------------------------------------------------

std::string ObjectiveDatabase::WalPath(size_t shard_index) const {
  return dir_ + "/" + WalFileName(shard_index);
}

Status ObjectiveDatabase::Save(const std::string& dir) const {
  if (attached_.load(std::memory_order_acquire) && dir == dir_) {
    return FailedPreconditionError(
        "Save into the attached directory; use Flush()");
  }
  GOALEX_RETURN_IF_ERROR(env_->CreateDirs(dir));
  storage::Manifest manifest;
  manifest.num_shards = num_shards();
  uint64_t sequence = 0;
  for (size_t i = 0; i < shards_.size(); ++i) {
    storage::GrowingSegment segment;
    for (DbRow& row : CollectShardRows(*shards_[i])) {
      segment.Append(std::move(row));
    }
    if (segment.empty()) continue;
    StatusOr<storage::ManifestSegment> entry = WriteSegmentFile(
        env_, dir, SegmentFileName(i, sequence++), i, segment);
    if (!entry.ok()) return entry.status();
    manifest.segments.push_back(std::move(entry).value());
  }
  manifest.next_segment = sequence;
  GOALEX_RETURN_IF_ERROR(storage::WriteManifest(env_, dir, manifest));
  // Drop stale shard WALs (e.g. Save over a directory a database was once
  // attached to), so a later Load sees exactly this snapshot.
  for (size_t i = 0; i < shards_.size(); ++i) {
    (void)env_->RemoveFile(dir + "/" + WalFileName(i));
  }
  return Status::Ok();
}

Status ObjectiveDatabase::SaveLegacy(const std::string& dir) const {
  GOALEX_RETURN_IF_ERROR(env_->CreateDirs(dir));
  std::string path = SnapshotPath(dir);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return InternalError("cannot open " + path + " for writing");

  std::vector<DbRow> rows = SnapshotRows();
  out.write(kMagic, sizeof(kMagic));
  WriteU32(out, kLegacyFormatVersion);
  WriteU64(out, rows.size());
  for (const DbRow& row : rows) {
    WriteI64(out, row.row_id);
    WriteString(out, row.company);
    WriteString(out, row.document);
    WriteI32(out, row.page);
    WriteString(out, row.record.objective_id);
    WriteString(out, row.record.objective_text);
    WriteU64(out, row.record.fields.size());
    for (const auto& [kind, value] : row.record.fields) {
      WriteString(out, kind);
      WriteString(out, value);
    }
  }
  out.flush();
  if (!out) return DataLossError("short write to " + path);
  return Status::Ok();
}

Status ObjectiveDatabase::LoadLegacyFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return NotFoundError("cannot open " + path);

  char magic[sizeof(kMagic)];
  if (!in.read(magic, sizeof(magic)) ||
      std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return DataLossError(path + " is not an objectives.db snapshot");
  }
  uint32_t version = 0;
  if (!ReadU32(in, &version) || version != kLegacyFormatVersion) {
    return DataLossError("unsupported objectives.db version in " + path);
  }
  uint64_t row_count = 0;
  if (!ReadU64(in, &row_count)) {
    return DataLossError("truncated objectives.db header in " + path);
  }

  std::vector<DbRow> rows;
  rows.reserve(row_count);
  int64_t max_id = -1;
  for (uint64_t i = 0; i < row_count; ++i) {
    DbRow row;
    uint64_t field_count = 0;
    if (!ReadI64(in, &row.row_id) || !ReadString(in, &row.company) ||
        !ReadString(in, &row.document) || !ReadI32(in, &row.page) ||
        !ReadString(in, &row.record.objective_id) ||
        !ReadString(in, &row.record.objective_text) ||
        !ReadU64(in, &field_count)) {
      return DataLossError("truncated row in " + path);
    }
    for (uint64_t f = 0; f < field_count; ++f) {
      std::string kind, value;
      if (!ReadString(in, &kind) || !ReadString(in, &value)) {
        return DataLossError("truncated field in " + path);
      }
      row.record.fields.emplace(std::move(kind), std::move(value));
    }
    max_id = std::max(max_id, row.row_id);
    rows.push_back(std::move(row));
  }

  // Snapshot rows are sorted by id, so appending in file order preserves
  // each shard's ascending-id invariant.
  for (DbRow& row : rows) {
    Shard& shard = *shards_[ShardIndexFor(row.company)];
    std::unique_lock lock(shard.mu);
    shard.growing.Append(std::move(row));
  }
  size_.store(rows.size(), std::memory_order_release);
  next_id_.store(max_id + 1, std::memory_order_relaxed);
  UpdateRowGauges(rows.size());
  BuildUpsertState();
  return Status::Ok();
}

void ObjectiveDatabase::BuildUpsertState() {
  if (!options_.track_upserts) return;
  size_t masked_total = 0;
  for (auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    std::unique_lock lock(shard.mu);
    shard.latest_by_key.clear();
    shard.superseded.clear();
    // Winner per key = highest (_version, row_id). A loser is masked only
    // when the winner carries a strictly newer version: plain Insert can
    // legitimately write several same-version rows for one key (dedup
    // bypass), and those all stay visible.
    std::unordered_map<std::string, DbRow> winners;
    auto offer = [&](DbRow row) {
      std::string key = ObjectiveUpsertKey(row.company, row.record);
      auto [it, inserted] = winners.try_emplace(std::move(key), row);
      if (inserted) return;
      DbRow& incumbent = it->second;
      int32_t row_version = RecordVersion(row.record);
      int32_t incumbent_version = RecordVersion(incumbent.record);
      if (std::pair(row_version, row.row_id) >
          std::pair(incumbent_version, incumbent.row_id)) {
        if (row_version > incumbent_version) {
          shard.superseded.emplace(incumbent.row_id, incumbent);
        }
        incumbent = std::move(row);
      } else if (incumbent_version > row_version) {
        shard.superseded.emplace(row.row_id, std::move(row));
      }
    };
    ForEachSegment(shard, [&](const auto& segment) {
      for (uint64_t ordinal = 0; ordinal < segment.num_rows(); ++ordinal) {
        DbRow row;
        if (segment.ReadRow(ordinal, &row)) offer(std::move(row));
      }
    });
    shard.latest_by_key.reserve(winners.size());
    for (const auto& [key, row] : winners) {
      shard.latest_by_key.emplace(key, row.row_id);
    }
    masked_total += shard.superseded.size();
  }
  superseded_count_.store(masked_total, std::memory_order_release);
  if (superseded_gauge_ != nullptr) {
    superseded_gauge_->Set(static_cast<double>(masked_total));
  }
}

Status ObjectiveDatabase::LoadManifest(const storage::Manifest& manifest,
                                       bool read_write) {
  obs::ScopedTimer timer(mmap_load_seconds_);
  ResetShards(manifest.num_shards);
  {
    std::lock_guard<std::mutex> lock(manifest_mu_);
    manifest_ = manifest;
  }
  next_segment_.store(manifest.next_segment, std::memory_order_relaxed);

  int64_t max_id = -1;
  size_t total = 0;
  for (const storage::ManifestSegment& entry : manifest.segments) {
    std::string path = dir_ + "/" + entry.file;
    StatusOr<std::shared_ptr<storage::SealedSegment>> segment =
        storage::SealedSegment::Open(env_, path);
    if (!segment.ok()) return segment.status();
    Shard& shard = *shards_[static_cast<size_t>(entry.shard)];
    if ((*segment)->num_rows() != entry.rows ||
        (*segment)->min_row_id() != entry.min_row_id ||
        (*segment)->max_row_id() != entry.max_row_id ||
        entry.min_row_id <= shard.max_sealed_id) {
      return DataLossError(path + " does not match its manifest entry");
    }
    shard.max_sealed_id = entry.max_row_id;
    shard.sealed.push_back(std::move(segment).value());
    total += entry.rows;
    max_id = std::max(max_id, entry.max_row_id);
  }

  // Replay each shard's WAL on top of the sealed segments. Records already
  // covered by a sealed segment (a crash between manifest commit and WAL
  // shrink) are dropped; the first record that fails to decode or breaks
  // the ascending-id invariant ends the valid prefix, exactly like a torn
  // tail at the framing layer.
  for (size_t i = 0; i < shards_.size(); ++i) {
    Shard& shard = *shards_[i];
    std::string path = WalPath(i);
    StatusOr<storage::WalReplayResult> replayed =
        storage::ReplayWal(env_, path);
    if (!replayed.ok()) return replayed.status();
    uint64_t valid_bytes = 0;
    bool stopped_early = false;
    int64_t last_id = shard.max_sealed_id;
    size_t appended = 0;
    for (const std::string& payload : replayed->payloads) {
      DbRow row;
      if (!storage::DecodeRowExact(payload, &row)) {
        stopped_early = true;
        break;
      }
      if (row.row_id > shard.max_sealed_id && row.row_id <= last_id) {
        // A re-logged id is how Upsert records an in-place update of a
        // growing row: same row_id, newer content. Replay it as a
        // replacement. An id we have never seen in the growing segment is
        // genuine corruption and ends the valid prefix.
        std::unique_lock lock(shard.mu);
        std::optional<uint64_t> ordinal = shard.growing.FindRowId(row.row_id);
        if (!ordinal.has_value()) {
          stopped_early = true;
          break;
        }
        valid_bytes += kWalRecordHeaderBytes + payload.size();
        shard.growing.Replace(static_cast<uint32_t>(*ordinal), std::move(row));
        continue;
      }
      valid_bytes += kWalRecordHeaderBytes + payload.size();
      if (row.row_id <= shard.max_sealed_id) continue;  // Already sealed.
      last_id = row.row_id;
      std::unique_lock lock(shard.mu);
      shard.growing.Append(std::move(row));
      ++appended;
    }
    total += appended;
    if (appended > 0) max_id = std::max(max_id, last_id);
    if (wal_replayed_counter_ != nullptr && appended > 0) {
      wal_replayed_counter_->Increment(static_cast<uint64_t>(appended));
    }
    if (stopped_early || replayed->truncated_tail) {
      uint64_t keep = stopped_early ? valid_bytes : replayed->valid_bytes;
      if (env_->FileExists(path)) {
        StatusOr<uint64_t> file_size = env_->FileSize(path);
        if (file_size.ok() && wal_truncated_bytes_counter_ != nullptr &&
            *file_size > keep) {
          wal_truncated_bytes_counter_->Increment(*file_size - keep);
        }
        if (read_write) {
          GOALEX_RETURN_IF_ERROR(env_->Truncate(path, keep));
        }
      }
    }
  }

  size_.store(total, std::memory_order_release);
  next_id_.store(max_id + 1, std::memory_order_relaxed);
  UpdateRowGauges(total);
  if (segments_gauge_ != nullptr) {
    segments_gauge_->Set(static_cast<double>(manifest.segments.size()));
  }
  BuildUpsertState();
  return Status::Ok();
}

Status ObjectiveDatabase::Load(const std::string& dir) {
  if (attached_.load(std::memory_order_acquire)) {
    return FailedPreconditionError(
        "Load on an attached database; construct a fresh one");
  }
  StatusOr<storage::Manifest> manifest = storage::ReadManifest(env_, dir);
  if (manifest.ok()) {
    dir_ = dir;
    return LoadManifest(manifest.value(), /*read_write=*/false);
  }
  if (manifest.status().code() != StatusCode::kNotFound) {
    return manifest.status();
  }
  std::string legacy = SnapshotPath(dir);
  if (!env_->FileExists(legacy)) return NotFoundError("cannot open " + legacy);
  ResetShards(num_shards());
  return LoadLegacyFile(legacy);
}

Status ObjectiveDatabase::Open(const std::string& dir) {
  if (attached_.load(std::memory_order_acquire)) {
    return FailedPreconditionError("database is already attached");
  }
  GOALEX_RETURN_IF_ERROR(env_->CreateDirs(dir));
  dir_ = dir;
  bool migrate_legacy = false;
  StatusOr<storage::Manifest> manifest = storage::ReadManifest(env_, dir);
  if (manifest.ok()) {
    GOALEX_RETURN_IF_ERROR(LoadManifest(manifest.value(),
                                        /*read_write=*/true));
  } else if (manifest.status().code() == StatusCode::kNotFound) {
    ResetShards(num_shards());
    std::string legacy = SnapshotPath(dir);
    if (env_->FileExists(legacy)) {
      GOALEX_RETURN_IF_ERROR(LoadLegacyFile(legacy));
      migrate_legacy = true;
    }
    {
      std::lock_guard<std::mutex> lock(manifest_mu_);
      manifest_ = storage::Manifest();
      manifest_.num_shards = num_shards();
      GOALEX_RETURN_IF_ERROR(storage::WriteManifest(env_, dir_, manifest_));
    }
    next_segment_.store(0, std::memory_order_relaxed);
  } else {
    return manifest.status();
  }

  for (size_t i = 0; i < shards_.size(); ++i) {
    StatusOr<std::unique_ptr<storage::WalWriter>> wal = storage::WalWriter::Open(
        env_, WalPath(i), options_.wal_fsync_interval);
    if (!wal.ok()) return wal.status();
    std::unique_lock lock(shards_[i]->mu);
    shards_[i]->wal = std::move(wal).value();
  }
  attached_.store(true, std::memory_order_release);

  // A legacy store has its rows only in memory at this point — seal them
  // immediately so the directory is v2 (and crash-safe) from here on.
  if (migrate_legacy) GOALEX_RETURN_IF_ERROR(Flush());

  if (options_.background_seal && !sealer_.joinable()) {
    stop_sealer_ = false;
    sealer_ = std::thread(&ObjectiveDatabase::SealerLoop, this);
  }
  return Status::Ok();
}

Status ObjectiveDatabase::Flush() {
  if (!attached_.load(std::memory_order_acquire)) {
    return FailedPreconditionError("Flush requires an attached database");
  }
  std::lock_guard<std::mutex> op(seal_op_mu_);
  for (size_t i = 0; i < shards_.size(); ++i) {
    GOALEX_RETURN_IF_ERROR(SealShard(i));
  }
  return Status::Ok();
}

Status ObjectiveDatabase::SealShard(size_t index) {
  Shard& shard = *shards_[index];
  while (true) {
    std::shared_ptr<const storage::GrowingSegment> frozen;
    bool leftover;
    {
      // Freeze the growing segment: it becomes immutable and keeps serving
      // queries while it is written out; writes from here on go to a fresh
      // growing segment.
      std::unique_lock lock(shard.mu);
      leftover = shard.frozen != nullptr;
      if (!leftover) {
        if (shard.growing.empty()) return Status::Ok();
        shard.frozen = std::make_shared<const storage::GrowingSegment>(
            std::exchange(shard.growing, storage::GrowingSegment()));
      }
      frozen = shard.frozen;
    }
    GOALEX_RETURN_IF_ERROR(SealFrozen(index, frozen));
    if (!leftover) return Status::Ok();
  }
}

Status ObjectiveDatabase::SealFrozen(
    size_t index,
    const std::shared_ptr<const storage::GrowingSegment>& frozen) {
  Shard& shard = *shards_[index];
  // The frozen segment is immutable, so serializing and writing it needs
  // no shard lock: queries and writes proceed meanwhile.
  uint64_t sequence = next_segment_.fetch_add(1, std::memory_order_relaxed);
  StatusOr<storage::ManifestSegment> entry = WriteSegmentFile(
      env_, dir_, SegmentFileName(index, sequence), index, *frozen);
  if (!entry.ok()) return entry.status();
  StatusOr<std::shared_ptr<storage::SealedSegment>> segment =
      storage::SealedSegment::Open(env_, dir_ + "/" + entry->file);
  if (!segment.ok()) return segment.status();

  std::unique_lock lock(shard.mu);
  {
    // Commit the manifest before touching in-memory state or the WAL: a
    // crash after this point replays the (still complete) WAL and drops
    // everything the new segment covers; a crash before it leaves the new
    // segment an ignored orphan.
    std::lock_guard<std::mutex> mlock(manifest_mu_);
    manifest_.segments.push_back(entry.value());
    manifest_.next_segment = next_segment_.load(std::memory_order_relaxed);
    Status committed = storage::WriteManifest(env_, dir_, manifest_);
    if (!committed.ok()) {
      manifest_.segments.pop_back();
      return committed;
    }
  }
  shard.sealed.push_back(std::move(segment).value());
  shard.max_sealed_id = frozen->max_row_id();
  shard.frozen.reset();
  if (seal_counter_ != nullptr) seal_counter_->Increment();
  if (segments_gauge_ != nullptr) {
    std::lock_guard<std::mutex> mlock(manifest_mu_);
    segments_gauge_->Set(static_cast<double>(manifest_.segments.size()));
  }
  RewriteWalLocked(shard, index);
  return Status::Ok();
}

void ObjectiveDatabase::RewriteWalLocked(Shard& shard, size_t index) {
  std::string path = WalPath(index);
  std::string tmp = path + ".tmp";
  (void)env_->RemoveFile(tmp);  // Stale temp from an earlier failure.
  StatusOr<std::unique_ptr<storage::WalWriter>> writer =
      storage::WalWriter::Open(env_, tmp, /*fsync_interval=*/0);
  if (!writer.ok()) return;
  for (uint64_t ordinal = 0; ordinal < shard.growing.num_rows(); ++ordinal) {
    const DbRow& row = shard.growing.row(ordinal);
    std::string payload;
    storage::EncodeRow(row, &payload);
    if (!(*writer)->Append(payload).ok()) return;
  }
  if (!(*writer)->Sync().ok()) return;
  writer->reset();  // Close before the rename commits the new log.
  if (!env_->Rename(tmp, path).ok()) return;
  shard.wal.reset();
  StatusOr<std::unique_ptr<storage::WalWriter>> reopened =
      storage::WalWriter::Open(env_, path, options_.wal_fsync_interval);
  if (reopened.ok()) {
    shard.wal = std::move(reopened).value();
  } else if (wal_error_counter_ != nullptr) {
    // Logging is disarmed for this shard (only reachable when the storage
    // environment is failing every write — i.e. mid-crash).
    wal_error_counter_->Increment();
  }
}

void ObjectiveDatabase::RequestSeal(size_t index) {
  std::lock_guard<std::mutex> lock(seal_mu_);
  if (!sealer_.joinable() || stop_sealer_) return;
  seal_pending_.insert(index);
  seal_cv_.notify_one();
}

void ObjectiveDatabase::SealerLoop() {
  std::unique_lock<std::mutex> lock(seal_mu_);
  while (true) {
    seal_cv_.wait(lock,
                  [this] { return stop_sealer_ || !seal_pending_.empty(); });
    if (stop_sealer_) return;
    size_t index = *seal_pending_.begin();
    seal_pending_.erase(seal_pending_.begin());
    lock.unlock();
    {
      std::lock_guard<std::mutex> op(seal_op_mu_);
      Status sealed = SealShard(index);
      if (!sealed.ok() && seal_error_counter_ != nullptr) {
        seal_error_counter_->Increment();
      }
    }
    lock.lock();
  }
}

void ObjectiveDatabase::StopSealer() {
  {
    std::lock_guard<std::mutex> lock(seal_mu_);
    if (!sealer_.joinable()) return;
    stop_sealer_ = true;
  }
  seal_cv_.notify_all();
  sealer_.join();
}

}  // namespace goalex::core
