#include "storage/segment.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "common/check.h"
#include "storage/crc32.h"

namespace goalex::storage {
namespace {

constexpr char kMagic[8] = {'G', 'X', 'S', 'E', 'G', '0', '0', '1'};
constexpr char kEndMagic[8] = {'G', 'X', 'S', 'E', 'G', 'E', 'N', 'D'};
constexpr uint32_t kFormatVersion = 1;
constexpr size_t kHeaderBytes = 24;  // magic + version + reserved + row_count
constexpr size_t kTailBytes = 20;    // table_offset + crc + end magic

// Section ids of the fixed layout.
constexpr uint32_t kSecRowIds = 1;
constexpr uint32_t kSecRowOffsets = 2;
constexpr uint32_t kSecRowData = 3;
constexpr uint32_t kSecStats = 9;

uint32_t LoadU32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

uint64_t LoadU64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

int64_t LoadI64(const uint8_t* p) {
  int64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

void AppendU32(std::string* out, uint32_t v) {
  char buf[sizeof(v)];
  std::memcpy(buf, &v, sizeof(v));
  out->append(buf, sizeof(v));
}

void AppendU64(std::string* out, uint64_t v) {
  char buf[sizeof(v)];
  std::memcpy(buf, &v, sizeof(v));
  out->append(buf, sizeof(v));
}

void AppendI64(std::string* out, int64_t v) {
  AppendU64(out, static_cast<uint64_t>(v));
}

/// The entries of a hash map sorted by key: the on-disk dictionary order.
template <typename Value>
std::vector<const std::pair<const std::string, Value>*> SortedEntries(
    const StringKeyMap<Value>& map) {
  std::vector<const std::pair<const std::string, Value>*> entries;
  entries.reserve(map.size());
  for (const auto& entry : map) entries.push_back(&entry);
  std::sort(entries.begin(), entries.end(),
            [](const auto* a, const auto* b) { return a->first < b->first; });
  return entries;
}

/// Serializes a term -> postings map in the flat dictionary layout, keys
/// ascending: u64 T, u64 key_offsets[T+1], u64 post_offsets[T+1], key
/// blob, u32 postings[].
void AppendDict(std::string* out,
                const StringKeyMap<std::vector<uint32_t>>& dict) {
  const auto entries = SortedEntries(dict);
  AppendU64(out, entries.size());
  uint64_t key_offset = 0;
  AppendU64(out, key_offset);
  for (const auto* entry : entries) {
    key_offset += entry->first.size();
    AppendU64(out, key_offset);
  }
  uint64_t post_offset = 0;
  AppendU64(out, post_offset);
  for (const auto* entry : entries) {
    post_offset += entry->second.size();
    AppendU64(out, post_offset);
  }
  for (const auto* entry : entries) out->append(entry->first);
  for (const auto* entry : entries) {
    out->append(reinterpret_cast<const char*>(entry->second.data()),
                entry->second.size() * sizeof(uint32_t));
  }
}

void AppendStatsMap(std::string* out, const StringKeyMap<int64_t>& counts) {
  const auto entries = SortedEntries(counts);
  AppendU64(out, entries.size());
  for (const auto* entry : entries) {
    AppendU32(out, static_cast<uint32_t>(entry->first.size()));
    out->append(entry->first);
    AppendI64(out, entry->second);
  }
}

bool ParseStatsMap(const uint8_t* data, size_t size, size_t* pos,
                   StringKeyMap<int64_t>* out) {
  if (size - *pos < sizeof(uint64_t)) return false;
  uint64_t count = LoadU64(data + *pos);
  *pos += sizeof(uint64_t);
  if (count > size) return false;  // Cheap sanity bound.
  out->reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    if (size - *pos < sizeof(uint32_t)) return false;
    uint64_t len = LoadU32(data + *pos);
    *pos += sizeof(uint32_t);
    if (size - *pos < len + sizeof(int64_t)) return false;
    std::string key(reinterpret_cast<const char*>(data) + *pos, len);
    *pos += len;
    int64_t value = LoadI64(data + *pos);
    *pos += sizeof(int64_t);
    (*out)[std::move(key)] = value;
  }
  return true;
}

/// FieldValueKey into a reused buffer.
void AssignFieldValueKey(std::string_view kind, std::string_view value,
                         std::string* key) {
  key->assign(kind);
  key->push_back('\x1f');
  key->append(value);
}

bool IsWordByte(unsigned char b) {
  return (b >= '0' && b <= '9') || (b >= 'a' && b <= 'z') ||
         (b >= 'A' && b <= 'Z') || b >= 0x80;
}

bool IsDigit(char c) { return c >= '0' && c <= '9'; }

/// Adds `ordinal` to a sorted posting list unless it is already there.
/// Appending a row passes the largest ordinal, so that is a push_back; a
/// replaced row's ordinal lands mid-list.
void AddPosting(std::vector<uint32_t>& postings, uint32_t ordinal) {
  if (postings.empty() || postings.back() < ordinal) {
    postings.push_back(ordinal);
    return;
  }
  auto it = std::lower_bound(postings.begin(), postings.end(), ordinal);
  if (*it != ordinal) postings.insert(it, ordinal);
}

template <typename Value>
Value& Slot(StringKeyMap<Value>& map, std::string_view key) {
  auto it = map.find(key);
  if (it == map.end()) it = map.emplace(std::string(key), Value()).first;
  return it->second;
}

}  // namespace

std::string FieldValueKey(std::string_view kind, std::string_view value) {
  std::string key;
  AssignFieldValueKey(kind, value, &key);
  return key;
}

std::string YearKey(int year) {
  // Bias so every int year maps to a non-negative value; zero-pad to a
  // fixed 10 digits so lexicographic key order equals numeric year order.
  constexpr int64_t kBias = 1000000000;
  int64_t biased = static_cast<int64_t>(year) + kBias;
  if (biased < 0) biased = 0;
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%010lld", static_cast<long long>(biased));
  return std::string(buf);
}

bool TextTermScanner::Next() {
  const size_t size = text_.size();
  // Skip to the next word byte: whitespace and punctuation tokens are
  // never terms.
  while (pos_ < size && !IsWordByte(static_cast<unsigned char>(text_[pos_]))) {
    ++pos_;
  }
  if (pos_ == size) return false;
  const size_t start = pos_;
  while (pos_ < size) {
    const char c = text_[pos_];
    if (IsWordByte(static_cast<unsigned char>(c))) {
      ++pos_;
      continue;
    }
    // Decimal points and thousands separators stay inside numbers.
    if ((c == '.' || c == ',') && IsDigit(text_[pos_ - 1]) &&
        pos_ + 1 < size && IsDigit(text_[pos_ + 1])) {
      ++pos_;
      continue;
    }
    break;
  }
  term_.assign(text_.data() + start, pos_ - start);
  for (char& c : term_) {
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
  }
  return true;
}

std::vector<std::string> TextIndexTerms(std::string_view text) {
  std::vector<std::string> terms;
  TextTermScanner scanner(text);
  while (scanner.Next()) terms.emplace_back(scanner.term());
  return terms;
}

bool ContainsPhrase(std::string_view text,
                    const std::vector<std::string>& terms) {
  if (terms.empty()) return true;
  std::vector<std::string> stream = TextIndexTerms(text);
  if (stream.size() < terms.size()) return false;
  for (size_t start = 0; start + terms.size() <= stream.size(); ++start) {
    bool match = true;
    for (size_t i = 0; i < terms.size(); ++i) {
      if (stream[start + i] != terms[i]) {
        match = false;
        break;
      }
    }
    if (match) return true;
  }
  return false;
}

uint32_t PostingsView::At(size_t i) const {
  GOALEX_CHECK(i < count_);
  return LoadU32(base_ + i * sizeof(uint32_t));
}

// --- GrowingSegment --------------------------------------------------------

GrowingSegment::Dict& GrowingSegment::DictFor(SegmentIndex index) {
  return dicts_[static_cast<uint32_t>(index) -
                static_cast<uint32_t>(SegmentIndex::kCompany)];
}

const GrowingSegment::Dict& GrowingSegment::DictFor(
    SegmentIndex index) const {
  return dicts_[static_cast<uint32_t>(index) -
                static_cast<uint32_t>(SegmentIndex::kCompany)];
}

void GrowingSegment::IndexRow(const Row& row, uint32_t ordinal, int delta) {
  auto post = [&](SegmentIndex index, std::string_view key) {
    Dict& dict = DictFor(index);
    if (delta > 0) {
      AddPosting(Slot(dict, key), ordinal);
      return;
    }
    auto it = dict.find(key);
    if (it == dict.end()) return;  // A repeated term, already removed.
    std::vector<uint32_t>& postings = it->second;
    auto at = std::lower_bound(postings.begin(), postings.end(), ordinal);
    if (at != postings.end() && *at == ordinal) postings.erase(at);
    if (postings.empty()) dict.erase(it);
  };
  auto count = [&](StringKeyMap<int64_t>& counts, std::string_view key) {
    int64_t& n = Slot(counts, key);
    n += delta;
    if (n == 0) counts.erase(counts.find(key));
  };

  post(SegmentIndex::kCompany, row.company);
  count(company_rows_, row.company);
  std::string key;
  for (const auto& [kind, value] : row.record.fields) {
    if (value.empty()) continue;
    post(SegmentIndex::kFieldKind, kind);
    AssignFieldValueKey(kind, value, &key);
    post(SegmentIndex::kFieldValue, key);
    AssignFieldValueKey(row.company, kind, &key);
    count(company_kind_rows_, key);
  }
  if (std::optional<int> year = DeadlineYearOfRecord(row.record)) {
    post(SegmentIndex::kDeadlineYear, YearKey(*year));
  }
  auto post_terms = [&](std::string_view text) {
    TextTermScanner scanner(text);
    while (scanner.Next()) post(SegmentIndex::kText, scanner.term());
  };
  post_terms(row.record.objective_text);
  for (const auto& [kind, value] : row.record.fields) post_terms(value);
}

void GrowingSegment::Append(Row row) {
  GOALEX_CHECK_MSG(rows_.empty() || row.row_id > rows_.back().row_id,
                   "segment rows must be added in ascending row_id order");
  const uint32_t ordinal = static_cast<uint32_t>(rows_.size());
  IndexRow(row, ordinal, +1);
  rows_.push_back(std::move(row));
}

void GrowingSegment::Replace(uint32_t ordinal, Row row) {
  GOALEX_CHECK(ordinal < rows_.size());
  Row& slot = rows_[ordinal];
  GOALEX_CHECK_MSG(row.row_id == slot.row_id,
                   "Replace must keep the row id");
  IndexRow(slot, ordinal, -1);
  slot = std::move(row);
  IndexRow(slot, ordinal, +1);
}

bool GrowingSegment::ReadRow(uint64_t ordinal, Row* out) const {
  if (ordinal >= rows_.size()) return false;
  *out = rows_[ordinal];
  return true;
}

std::optional<uint64_t> GrowingSegment::FindRowId(int64_t row_id) const {
  auto it = std::lower_bound(
      rows_.begin(), rows_.end(), row_id,
      [](const Row& row, int64_t id) { return row.row_id < id; });
  if (it == rows_.end() || it->row_id != row_id) return std::nullopt;
  return static_cast<uint64_t>(it - rows_.begin());
}

PostingsView GrowingSegment::Postings(SegmentIndex index,
                                      std::string_view key) const {
  const Dict& dict = DictFor(index);
  auto it = dict.find(key);
  if (it == dict.end()) return {};
  return PostingsView(reinterpret_cast<const uint8_t*>(it->second.data()),
                      it->second.size());
}

void GrowingSegment::ForEachKey(
    SegmentIndex index,
    const std::function<void(std::string_view)>& fn) const {
  for (const auto& [key, postings] : DictFor(index)) fn(key);
}

void GrowingSegment::ForEachYearInRange(
    int min_year, int max_year,
    const std::function<void(const PostingsView&)>& fn) const {
  if (min_year > max_year) return;
  const std::string lo_key = YearKey(min_year);
  const std::string hi_key = YearKey(max_year);
  for (const auto& [key, postings] : DictFor(SegmentIndex::kDeadlineYear)) {
    if (key < lo_key || key > hi_key) continue;
    fn(PostingsView(reinterpret_cast<const uint8_t*>(postings.data()),
                    postings.size()));
  }
}

std::string GrowingSegment::Serialize() const {
  std::string row_data;
  std::vector<uint64_t> row_offsets{0};
  row_offsets.reserve(rows_.size() + 1);
  for (const Row& row : rows_) {
    EncodeRow(row, &row_data);
    row_offsets.push_back(row_data.size());
  }

  std::string out;
  out.append(kMagic, sizeof(kMagic));
  AppendU32(&out, kFormatVersion);
  AppendU32(&out, 0);  // reserved
  AppendU64(&out, rows_.size());

  struct Entry {
    uint32_t id;
    uint64_t offset;
    uint64_t size;
  };
  std::vector<Entry> table;
  auto add_section = [&](uint32_t id, const auto& write) {
    const uint64_t begin = out.size();
    write();
    table.push_back({id, begin, out.size() - begin});
  };

  add_section(kSecRowIds, [&] {
    for (const Row& row : rows_) AppendI64(&out, row.row_id);
  });
  add_section(kSecRowOffsets, [&] {
    for (uint64_t offset : row_offsets) AppendU64(&out, offset);
  });
  add_section(kSecRowData, [&] { out.append(row_data); });
  for (uint32_t i = 0; i < kIndexCount; ++i) {
    add_section(static_cast<uint32_t>(SegmentIndex::kCompany) + i,
                [&] { AppendDict(&out, dicts_[i]); });
  }
  add_section(kSecStats, [&] {
    AppendStatsMap(&out, company_rows_);
    AppendStatsMap(&out, company_kind_rows_);
  });

  uint64_t table_offset = out.size();
  AppendU32(&out, static_cast<uint32_t>(table.size()));
  for (const Entry& entry : table) {
    AppendU32(&out, entry.id);
    AppendU64(&out, entry.offset);
    AppendU64(&out, entry.size);
  }

  AppendU64(&out, table_offset);
  // The CRC covers everything before itself: header, sections, table, and
  // the table offset word.
  AppendU32(&out, Crc32(out.data(), out.size()));
  out.append(kEndMagic, sizeof(kEndMagic));
  return out;
}

Status GrowingSegment::WriteTo(Env* env, const std::string& path) const {
  StatusOr<std::unique_ptr<WritableFile>> file =
      env->NewWritableFile(path, /*truncate=*/true);
  if (!file.ok()) return file.status();
  GOALEX_RETURN_IF_ERROR((*file)->Append(Serialize()));
  GOALEX_RETURN_IF_ERROR((*file)->Sync());
  return (*file)->Close();
}

// --- SealedSegment ---------------------------------------------------------

std::string_view SealedSegment::Dict::KeyAt(uint64_t i) const {
  if (i >= term_count) return {};
  uint64_t begin = LoadU64(key_offsets + i * sizeof(uint64_t));
  uint64_t end = LoadU64(key_offsets + (i + 1) * sizeof(uint64_t));
  if (begin > end || end > key_blob_size) return {};
  return std::string_view(reinterpret_cast<const char*>(key_blob) + begin,
                          end - begin);
}

PostingsView SealedSegment::Dict::PostingsAt(uint64_t i) const {
  if (i >= term_count) return {};
  uint64_t begin = LoadU64(post_offsets + i * sizeof(uint64_t));
  uint64_t end = LoadU64(post_offsets + (i + 1) * sizeof(uint64_t));
  if (begin > end || end > total_postings) return {};
  return PostingsView(postings + begin * sizeof(uint32_t), end - begin);
}

uint64_t SealedSegment::Dict::LowerBound(std::string_view key) const {
  uint64_t lo = 0;
  uint64_t hi = term_count;
  while (lo < hi) {
    uint64_t mid = lo + (hi - lo) / 2;
    if (KeyAt(mid) < key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

StatusOr<std::shared_ptr<SealedSegment>> SealedSegment::Open(
    Env* env, const std::string& path) {
  StatusOr<std::unique_ptr<MmapFile>> file = env->MmapReadOnly(path);
  if (!file.ok()) return file.status();
  std::shared_ptr<SealedSegment> segment(new SealedSegment());
  segment->path_ = path;
  segment->file_ = std::move(file.value());
  Status bound = segment->Bind();
  if (!bound.ok()) {
    return Status(StatusCode::kDataLoss,
                  "corrupt segment " + path + ": " + bound.message());
  }
  return segment;
}

Status SealedSegment::Bind() {
  const uint8_t* data = file_->data();
  const uint64_t size = file_->size();
  if (size < kHeaderBytes + sizeof(uint32_t) + kTailBytes) {
    return DataLossError("file too small");
  }
  if (std::memcmp(data, kMagic, sizeof(kMagic)) != 0) {
    return DataLossError("bad magic");
  }
  if (LoadU32(data + 8) != kFormatVersion) {
    return DataLossError("unsupported version");
  }
  if (std::memcmp(data + size - sizeof(kEndMagic), kEndMagic,
                  sizeof(kEndMagic)) != 0) {
    return DataLossError("bad end magic (truncated?)");
  }
  uint32_t stored_crc = LoadU32(data + size - 12);
  if (Crc32(data, size - 12) != stored_crc) {
    return DataLossError("body checksum mismatch");
  }
  row_count_ = LoadU64(data + 16);

  uint64_t table_end = size - kTailBytes;
  uint64_t table_offset = LoadU64(data + size - kTailBytes);
  if (table_offset < kHeaderBytes || table_offset > table_end ||
      table_end - table_offset < sizeof(uint32_t)) {
    return DataLossError("section table offset out of range");
  }
  uint32_t section_count = LoadU32(data + table_offset);
  constexpr uint64_t kEntryBytes = 4 + 8 + 8;
  if (section_count > 64 ||
      table_offset + sizeof(uint32_t) + section_count * kEntryBytes !=
          table_end) {
    return DataLossError("section table size mismatch");
  }

  struct Section {
    const uint8_t* data = nullptr;
    uint64_t size = 0;
    bool present = false;
  };
  std::unordered_map<uint32_t, Section> sections;
  const uint8_t* entry = data + table_offset + sizeof(uint32_t);
  for (uint32_t i = 0; i < section_count; ++i, entry += kEntryBytes) {
    uint32_t id = LoadU32(entry);
    uint64_t offset = LoadU64(entry + 4);
    uint64_t sec_size = LoadU64(entry + 12);
    if (offset < kHeaderBytes || offset > table_offset ||
        sec_size > table_offset - offset) {
      return DataLossError("section bounds out of range");
    }
    sections[id] = Section{data + offset, sec_size, true};
  }

  auto require = [&](uint32_t id) -> Section* {
    auto it = sections.find(id);
    return it == sections.end() ? nullptr : &it->second;
  };

  Section* row_ids = require(kSecRowIds);
  Section* row_offsets = require(kSecRowOffsets);
  Section* row_data = require(kSecRowData);
  Section* stats = require(kSecStats);
  if (row_ids == nullptr || row_offsets == nullptr || row_data == nullptr ||
      stats == nullptr) {
    return DataLossError("missing mandatory section");
  }
  if (row_count_ > (uint64_t{1} << 32) - 1 ||
      row_ids->size != row_count_ * sizeof(int64_t) ||
      row_offsets->size != (row_count_ + 1) * sizeof(uint64_t)) {
    return DataLossError("row column size mismatch");
  }
  row_ids_ = row_ids->data;
  row_offsets_ = row_offsets->data;
  row_data_ = row_data->data;
  row_data_size_ = row_data->size;
  if (LoadU64(row_offsets_) != 0 ||
      LoadU64(row_offsets_ + row_count_ * sizeof(uint64_t)) !=
          row_data_size_) {
    return DataLossError("row offsets do not span row data");
  }

  auto bind_dict = [&](SegmentIndex index, Dict* dict) -> Status {
    Section* section = require(static_cast<uint32_t>(index));
    if (section == nullptr) return DataLossError("missing index section");
    const uint8_t* base = section->data;
    uint64_t sec_size = section->size;
    if (sec_size < sizeof(uint64_t)) return DataLossError("index too small");
    uint64_t term_count = LoadU64(base);
    if (term_count > (sec_size - 8) / 16) {
      return DataLossError("index term count out of range");
    }
    uint64_t arrays = 2 * (term_count + 1) * sizeof(uint64_t);
    if (sec_size < sizeof(uint64_t) + arrays) {
      return DataLossError("index arrays out of range");
    }
    dict->term_count = term_count;
    dict->key_offsets = base + sizeof(uint64_t);
    dict->post_offsets =
        dict->key_offsets + (term_count + 1) * sizeof(uint64_t);
    dict->key_blob = dict->post_offsets + (term_count + 1) * sizeof(uint64_t);
    dict->key_blob_size =
        LoadU64(dict->key_offsets + term_count * sizeof(uint64_t));
    dict->total_postings =
        LoadU64(dict->post_offsets + term_count * sizeof(uint64_t));
    uint64_t body = sizeof(uint64_t) + arrays;
    if (dict->key_blob_size > sec_size - body) {
      return DataLossError("index key blob out of range");
    }
    dict->postings = dict->key_blob + dict->key_blob_size;
    if (dict->total_postings * sizeof(uint32_t) !=
        sec_size - body - dict->key_blob_size) {
      return DataLossError("index postings out of range");
    }
    return Status::Ok();
  };
  GOALEX_RETURN_IF_ERROR(bind_dict(SegmentIndex::kCompany, &company_));
  GOALEX_RETURN_IF_ERROR(bind_dict(SegmentIndex::kFieldKind, &field_kind_));
  GOALEX_RETURN_IF_ERROR(bind_dict(SegmentIndex::kFieldValue, &field_value_));
  GOALEX_RETURN_IF_ERROR(bind_dict(SegmentIndex::kDeadlineYear, &year_));
  GOALEX_RETURN_IF_ERROR(bind_dict(SegmentIndex::kText, &text_));

  size_t pos = 0;
  if (!ParseStatsMap(stats->data, stats->size, &pos, &company_rows_) ||
      !ParseStatsMap(stats->data, stats->size, &pos, &company_kind_rows_) ||
      pos != stats->size) {
    return DataLossError("corrupt stats section");
  }
  return Status::Ok();
}

int64_t SealedSegment::RowIdAt(uint64_t ordinal) const {
  if (ordinal >= row_count_) return -1;
  return LoadI64(row_ids_ + ordinal * sizeof(int64_t));
}

bool SealedSegment::ReadRow(uint64_t ordinal, Row* out) const {
  if (ordinal >= row_count_) return false;
  uint64_t begin = LoadU64(row_offsets_ + ordinal * sizeof(uint64_t));
  uint64_t end = LoadU64(row_offsets_ + (ordinal + 1) * sizeof(uint64_t));
  if (begin > end || end > row_data_size_) return false;
  size_t pos = 0;
  return DecodeRow(row_data_ + begin, end - begin, &pos, out) &&
         pos == end - begin;
}

std::optional<uint64_t> SealedSegment::FindRowId(int64_t row_id) const {
  uint64_t lo = 0;
  uint64_t hi = row_count_;
  while (lo < hi) {
    uint64_t mid = lo + (hi - lo) / 2;
    if (RowIdAt(mid) < row_id) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo < row_count_ && RowIdAt(lo) == row_id) return lo;
  return std::nullopt;
}

const SealedSegment::Dict* SealedSegment::DictFor(SegmentIndex index) const {
  switch (index) {
    case SegmentIndex::kCompany:
      return &company_;
    case SegmentIndex::kFieldKind:
      return &field_kind_;
    case SegmentIndex::kFieldValue:
      return &field_value_;
    case SegmentIndex::kDeadlineYear:
      return &year_;
    case SegmentIndex::kText:
      return &text_;
  }
  return nullptr;
}

PostingsView SealedSegment::Postings(SegmentIndex index,
                                     std::string_view key) const {
  const Dict* dict = DictFor(index);
  if (dict == nullptr) return {};
  uint64_t i = dict->LowerBound(key);
  if (i < dict->term_count && dict->KeyAt(i) == key) {
    return dict->PostingsAt(i);
  }
  return {};
}

void SealedSegment::ForEachKey(
    SegmentIndex index,
    const std::function<void(std::string_view)>& fn) const {
  const Dict* dict = DictFor(index);
  if (dict == nullptr) return;
  for (uint64_t i = 0; i < dict->term_count; ++i) fn(dict->KeyAt(i));
}

void SealedSegment::ForEachYearInRange(
    int min_year, int max_year,
    const std::function<void(const PostingsView&)>& fn) const {
  if (min_year > max_year) return;
  std::string lo_key = YearKey(min_year);
  std::string hi_key = YearKey(max_year);
  for (uint64_t i = year_.LowerBound(lo_key);
       i < year_.term_count && year_.KeyAt(i) <= hi_key; ++i) {
    fn(year_.PostingsAt(i));
  }
}

}  // namespace goalex::storage
