#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "storage/crc32.h"
#include "storage/env.h"
#include "storage/fault_env.h"
#include "storage/manifest.h"
#include "storage/row.h"
#include "storage/segment.h"
#include "storage/wal.h"

namespace goalex::storage {
namespace {

class StorageTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("goalex_storage_test_" +
             std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
             "_" + ::testing::UnitTest::GetInstance()
                       ->current_test_info()
                       ->name()))
               .string();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    env_ = Env::Default();
  }

  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string Path(const std::string& name) const { return dir_ + "/" + name; }

  std::string dir_;
  Env* env_ = nullptr;
};

Row MakeRow(int64_t id, const std::string& company, const std::string& text,
            std::map<std::string, std::string> fields) {
  Row row;
  row.row_id = id;
  row.company = company;
  row.document = company + "-report.pdf";
  row.page = static_cast<int>(id % 40);
  row.record.objective_id = "obj-" + std::to_string(id);
  row.record.objective_text = text;
  row.record.fields = std::move(fields);
  return row;
}

// --- CRC-32 ----------------------------------------------------------------

TEST_F(StorageTest, Crc32MatchesKnownVectors) {
  // The canonical CRC-32 (IEEE 802.3) check value.
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(Crc32("", 0), 0u);
  EXPECT_EQ(Crc32("a", 1), 0xE8B7BE43u);
}

TEST_F(StorageTest, Crc32SeedChainsAcrossChunks) {
  std::string data =
      "the quick brown fox jumps over the lazy dog, several times, with "
      "enough bytes to exercise the sliced bulk loop and the tails";
  uint32_t whole = Crc32(data.data(), data.size());
  for (size_t split : {size_t{0}, size_t{1}, size_t{7}, size_t{8}, size_t{63},
                       data.size()}) {
    uint32_t part = Crc32(data.data(), split);
    uint32_t chained = Crc32(data.data() + split, data.size() - split, part);
    EXPECT_EQ(chained, whole) << "split at " << split;
  }
}

// --- Env -------------------------------------------------------------------

TEST_F(StorageTest, EnvWritesReadsAndMapsFiles) {
  std::string path = Path("file.bin");
  {
    auto file = env_->NewWritableFile(path, /*truncate=*/true);
    ASSERT_TRUE(file.ok()) << file.status().message();
    ASSERT_TRUE((*file)->Append("hello ").ok());
    ASSERT_TRUE((*file)->Append("world").ok());
    ASSERT_TRUE((*file)->Sync().ok());
    ASSERT_TRUE((*file)->Close().ok());
  }
  auto text = env_->ReadFileToString(path);
  ASSERT_TRUE(text.ok());
  EXPECT_EQ(*text, "hello world");
  auto size = env_->FileSize(path);
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, 11u);
  EXPECT_TRUE(env_->FileExists(path));

  // Append mode continues after the existing tail.
  {
    auto file = env_->NewWritableFile(path, /*truncate=*/false);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE((*file)->Append("!").ok());
  }
  auto mapped = env_->MmapReadOnly(path);
  ASSERT_TRUE(mapped.ok());
  ASSERT_EQ((*mapped)->size(), 12u);
  EXPECT_EQ(std::string(reinterpret_cast<const char*>((*mapped)->data()), 12),
            "hello world!");

  ASSERT_TRUE(env_->Truncate(path, 5).ok());
  text = env_->ReadFileToString(path);
  ASSERT_TRUE(text.ok());
  EXPECT_EQ(*text, "hello");

  std::string renamed = Path("renamed.bin");
  ASSERT_TRUE(env_->Rename(path, renamed).ok());
  EXPECT_FALSE(env_->FileExists(path));
  EXPECT_TRUE(env_->FileExists(renamed));
  ASSERT_TRUE(env_->RemoveFile(renamed).ok());
  EXPECT_FALSE(env_->FileExists(renamed));
}

TEST_F(StorageTest, EnvMissingFilesAreNotFound) {
  std::string path = Path("absent");
  EXPECT_FALSE(env_->FileExists(path));
  EXPECT_EQ(env_->ReadFileToString(path).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(env_->MmapReadOnly(path).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(env_->FileSize(path).status().code(), StatusCode::kNotFound);
}

TEST_F(StorageTest, EnvMapsEmptyFileAsEmpty) {
  std::string path = Path("empty");
  {
    auto file = env_->NewWritableFile(path, true);
    ASSERT_TRUE(file.ok());
  }
  auto mapped = env_->MmapReadOnly(path);
  ASSERT_TRUE(mapped.ok());
  EXPECT_EQ((*mapped)->size(), 0u);
}

// --- Row codec -------------------------------------------------------------

TEST_F(StorageTest, RowCodecRoundTrips) {
  Row row = MakeRow(42, "Acme, \"Inc\"", "Reduce emissions 50% by 2030\n",
                    {{"Amount", "50%"}, {"Deadline", "2030"}, {"Empty", ""}});
  std::string encoded;
  EncodeRow(row, &encoded);
  Row decoded;
  ASSERT_TRUE(DecodeRowExact(encoded, &decoded));
  EXPECT_EQ(decoded.row_id, row.row_id);
  EXPECT_EQ(decoded.company, row.company);
  EXPECT_EQ(decoded.document, row.document);
  EXPECT_EQ(decoded.page, row.page);
  EXPECT_EQ(decoded.record.objective_id, row.record.objective_id);
  EXPECT_EQ(decoded.record.objective_text, row.record.objective_text);
  EXPECT_EQ(decoded.record.fields, row.record.fields);

  // Deterministic: re-encoding the decoded row yields identical bytes.
  std::string reencoded;
  EncodeRow(decoded, &reencoded);
  EXPECT_EQ(reencoded, encoded);
}

TEST_F(StorageTest, RowCodecRejectsTruncationAndTrailingGarbage) {
  Row row = MakeRow(7, "Acme", "net zero by 2050", {{"Deadline", "2050"}});
  std::string encoded;
  EncodeRow(row, &encoded);
  for (size_t cut = 0; cut < encoded.size(); ++cut) {
    Row out;
    EXPECT_FALSE(DecodeRowExact(encoded.substr(0, cut), &out))
        << "decoded from a " << cut << "-byte prefix";
  }
  Row out;
  EXPECT_FALSE(DecodeRowExact(encoded + "x", &out));
}

// --- WAL -------------------------------------------------------------------

TEST_F(StorageTest, WalAppendAndReplayRoundTrips) {
  std::string path = Path("wal.log");
  std::vector<std::string> payloads = {"first", "second record",
                                       std::string(1000, 'x')};
  {
    auto wal = WalWriter::Open(env_, path, /*fsync_interval=*/1);
    ASSERT_TRUE(wal.ok());
    for (const std::string& payload : payloads) {
      ASSERT_TRUE((*wal)->Append(payload).ok());
    }
    EXPECT_EQ((*wal)->appended_records(), payloads.size());
  }
  auto replayed = ReplayWal(env_, path);
  ASSERT_TRUE(replayed.ok());
  EXPECT_EQ(replayed->payloads, payloads);
  EXPECT_FALSE(replayed->truncated_tail);
  auto size = env_->FileSize(path);
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(replayed->valid_bytes, *size);
}

TEST_F(StorageTest, WalReplayOfMissingFileIsEmpty) {
  auto replayed = ReplayWal(env_, Path("no-such.log"));
  ASSERT_TRUE(replayed.ok());
  EXPECT_TRUE(replayed->payloads.empty());
  EXPECT_EQ(replayed->valid_bytes, 0u);
  EXPECT_FALSE(replayed->truncated_tail);
}

TEST_F(StorageTest, WalReplayTruncatesTornTailAtEveryCut) {
  std::string path = Path("wal.log");
  std::vector<std::string> payloads = {"aaaa", "bbbbbbbb", "cc"};
  std::vector<uint64_t> boundaries = {0};  // Valid prefixes in bytes.
  {
    auto wal = WalWriter::Open(env_, path, 1);
    ASSERT_TRUE(wal.ok());
    for (const std::string& payload : payloads) {
      ASSERT_TRUE((*wal)->Append(payload).ok());
      boundaries.push_back(boundaries.back() + 8 + payload.size());
    }
  }
  auto full = env_->ReadFileToString(path);
  ASSERT_TRUE(full.ok());
  ASSERT_EQ(full->size(), boundaries.back());

  for (uint64_t cut = 0; cut <= full->size(); ++cut) {
    std::string torn_path = Path("torn.log");
    {
      auto file = env_->NewWritableFile(torn_path, true);
      ASSERT_TRUE(file.ok());
      ASSERT_TRUE((*file)->Append(full->substr(0, cut)).ok());
    }
    auto replayed = ReplayWal(env_, torn_path);
    ASSERT_TRUE(replayed.ok());
    // The valid prefix is the last record boundary at or before the cut.
    size_t records = 0;
    while (records + 1 < boundaries.size() && boundaries[records + 1] <= cut) {
      ++records;
    }
    EXPECT_EQ(replayed->payloads.size(), records) << "cut at " << cut;
    EXPECT_EQ(replayed->valid_bytes, boundaries[records]) << "cut at " << cut;
    EXPECT_EQ(replayed->truncated_tail, cut != boundaries[records])
        << "cut at " << cut;
  }
}

TEST_F(StorageTest, WalReplayStopsAtZeroFilledTail) {
  // The classic torn-page shape: a record followed by preallocated zeros.
  std::string path = Path("wal.log");
  {
    auto wal = WalWriter::Open(env_, path, 1);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE((*wal)->Append("payload").ok());
  }
  uint64_t valid = 8 + 7;
  {
    auto file = env_->NewWritableFile(path, false);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE((*file)->Append(std::string(512, '\0')).ok());
  }
  auto replayed = ReplayWal(env_, path);
  ASSERT_TRUE(replayed.ok());
  ASSERT_EQ(replayed->payloads.size(), 1u);
  EXPECT_EQ(replayed->payloads[0], "payload");
  EXPECT_EQ(replayed->valid_bytes, valid);
  EXPECT_TRUE(replayed->truncated_tail);
}

TEST_F(StorageTest, WalReplayStopsAtCorruptRecord) {
  std::string path = Path("wal.log");
  {
    auto wal = WalWriter::Open(env_, path, 1);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE((*wal)->Append("good record").ok());
    ASSERT_TRUE((*wal)->Append("second record").ok());
  }
  auto bytes = env_->ReadFileToString(path);
  ASSERT_TRUE(bytes.ok());
  std::string corrupted = *bytes;
  corrupted[8 + 11 + 8 + 2] ^= 0x40;  // A payload byte of record two.
  {
    auto file = env_->NewWritableFile(path, true);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE((*file)->Append(corrupted).ok());
  }
  auto replayed = ReplayWal(env_, path);
  ASSERT_TRUE(replayed.ok());
  ASSERT_EQ(replayed->payloads.size(), 1u);
  EXPECT_EQ(replayed->payloads[0], "good record");
  EXPECT_EQ(replayed->valid_bytes, 8u + 11u);
  EXPECT_TRUE(replayed->truncated_tail);
}

// --- Fault-injection env ---------------------------------------------------

TEST_F(StorageTest, FaultEnvTearsWritesAtTheBudgetByte) {
  FaultInjectionEnv fault(env_);
  std::string path = Path("fault.bin");
  fault.SetWriteBudget(5);
  auto file = fault.NewWritableFile(path, true);
  ASSERT_TRUE(file.ok());
  EXPECT_FALSE((*file)->Append("0123456789").ok());
  EXPECT_TRUE(fault.killed());

  // Exactly 5 bytes made it to "disk"; reads still work post-kill.
  auto text = fault.ReadFileToString(path);
  ASSERT_TRUE(text.ok());
  EXPECT_EQ(*text, "01234");

  // Every further mutation fails.
  EXPECT_FALSE((*file)->Append("more").ok());
  EXPECT_FALSE((*file)->Sync().ok());
  EXPECT_FALSE(fault.NewWritableFile(Path("other"), true).ok());
  EXPECT_FALSE(fault.Truncate(path, 0).ok());
  EXPECT_FALSE(fault.Rename(path, Path("moved")).ok());
  EXPECT_FALSE(fault.RemoveFile(path).ok());
  EXPECT_FALSE(fault.CreateDirs(Path("sub")).ok());
  text = fault.ReadFileToString(path);
  ASSERT_TRUE(text.ok());
  EXPECT_EQ(*text, "01234");

  // Reviving the env resumes normal service.
  fault.SetWriteBudget(-1);
  EXPECT_FALSE(fault.killed());
  auto revived = fault.NewWritableFile(path, true);
  ASSERT_TRUE(revived.ok());
  ASSERT_TRUE((*revived)->Append("fresh").ok());
}

TEST_F(StorageTest, FaultEnvCountsEveryByteWritten) {
  FaultInjectionEnv fault(env_);
  auto file = fault.NewWritableFile(Path("counted"), true);
  ASSERT_TRUE(file.ok());
  uint64_t before = fault.TotalBytesWritten();
  ASSERT_TRUE((*file)->Append("abcde").ok());
  ASSERT_TRUE((*file)->Append("fg").ok());
  EXPECT_EQ(fault.TotalBytesWritten() - before, 7u);
}

// --- Text index helpers ----------------------------------------------------

TEST_F(StorageTest, TextIndexTermsLowercaseAndDropPunctuation) {
  std::vector<std::string> terms =
      TextIndexTerms("Reduce CO2-Emissions by 50% (by 2030)!");
  EXPECT_EQ(terms, (std::vector<std::string>{"reduce", "co2", "emissions",
                                             "by", "50", "by", "2030"}));
  EXPECT_TRUE(TextIndexTerms("... !!! ---").empty());
  EXPECT_TRUE(TextIndexTerms("").empty());
}

TEST_F(StorageTest, ContainsPhraseChecksContiguity) {
  std::string text = "Achieve net zero emissions across scope 1 and 2";
  EXPECT_TRUE(ContainsPhrase(text, {"net", "zero"}));
  EXPECT_TRUE(ContainsPhrase(text, {"NET", "ZERO", "EMISSIONS"}) ||
              ContainsPhrase(text, {"net", "zero", "emissions"}));
  EXPECT_FALSE(ContainsPhrase(text, {"zero", "net"}));
  EXPECT_FALSE(ContainsPhrase(text, {"net", "emissions"}));
  EXPECT_TRUE(ContainsPhrase(text, {}));  // Empty phrase matches anything.
}

// --- Sealed segments -------------------------------------------------------

std::vector<Row> SegmentRows() {
  std::vector<Row> rows;
  rows.push_back(MakeRow(10, "Acme", "Reduce emissions 50% by 2030",
                         {{"Amount", "50%"}, {"Deadline", "2030"}}));
  rows.push_back(MakeRow(11, "Beta Corp", "Plant one million trees",
                         {{"Amount", "one million"}, {"Deadline", ""}}));
  rows.push_back(MakeRow(13, "Acme", "Net zero operations by 2040",
                         {{"Deadline", "2040"}}));
  rows.push_back(MakeRow(17, "Gamma", "Improve diversity reporting", {}));
  rows.push_back(MakeRow(21, "Acme", "Switch to renewable energy by 2030",
                         {{"Deadline", "2030"}, {"Scope", "scope 2"}}));
  return rows;
}

TEST_F(StorageTest, SegmentBuildsAndReopensWithAllIndexes) {
  std::vector<Row> rows = SegmentRows();
  GrowingSegment growing;
  for (const Row& row : rows) growing.Append(row);
  EXPECT_EQ(growing.num_rows(), rows.size());
  std::string path = Path("seg.gxseg");
  ASSERT_TRUE(growing.WriteTo(env_, path).ok());

  auto opened = SealedSegment::Open(env_, path);
  ASSERT_TRUE(opened.ok()) << opened.status().message();
  const SealedSegment& segment = **opened;
  ASSERT_EQ(segment.num_rows(), rows.size());
  EXPECT_EQ(segment.min_row_id(), 10);
  EXPECT_EQ(segment.max_row_id(), 21);

  // Row column and payload round trip.
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(segment.RowIdAt(i), rows[i].row_id);
    Row out;
    ASSERT_TRUE(segment.ReadRow(i, &out));
    EXPECT_EQ(out.row_id, rows[i].row_id);
    EXPECT_EQ(out.company, rows[i].company);
    EXPECT_EQ(out.record.objective_text, rows[i].record.objective_text);
    EXPECT_EQ(out.record.fields, rows[i].record.fields);
    auto found = segment.FindRowId(rows[i].row_id);
    ASSERT_TRUE(found.has_value());
    EXPECT_EQ(*found, i);
  }
  EXPECT_FALSE(segment.FindRowId(12).has_value());
  EXPECT_FALSE(segment.FindRowId(9).has_value());
  EXPECT_FALSE(segment.FindRowId(22).has_value());

  // Company postings.
  PostingsView acme = segment.Postings(SegmentIndex::kCompany, "Acme");
  ASSERT_EQ(acme.size(), 3u);
  EXPECT_EQ(acme.At(0), 0u);
  EXPECT_EQ(acme.At(1), 2u);
  EXPECT_EQ(acme.At(2), 4u);
  EXPECT_TRUE(segment.Postings(SegmentIndex::kCompany, "Nobody").empty());

  // Field-kind postings skip empty values.
  PostingsView deadlines = segment.Postings(SegmentIndex::kFieldKind,
                                            "Deadline");
  ASSERT_EQ(deadlines.size(), 3u);
  EXPECT_EQ(deadlines.At(0), 0u);
  EXPECT_EQ(deadlines.At(1), 2u);
  EXPECT_EQ(deadlines.At(2), 4u);

  // Exact-value postings.
  PostingsView y2030 = segment.Postings(SegmentIndex::kFieldValue,
                                        FieldValueKey("Deadline", "2030"));
  ASSERT_EQ(y2030.size(), 2u);
  EXPECT_EQ(y2030.At(0), 0u);
  EXPECT_EQ(y2030.At(1), 4u);

  // Deadline-year range walk.
  std::vector<uint32_t> in_range;
  segment.ForEachYearInRange(2030, 2035, [&](const PostingsView& postings) {
    for (size_t i = 0; i < postings.size(); ++i) {
      in_range.push_back(postings.At(i));
    }
  });
  EXPECT_EQ(in_range, (std::vector<uint32_t>{0, 4}));

  // Inverted text index covers objective text and field values.
  PostingsView zero = segment.Postings(SegmentIndex::kText, "zero");
  ASSERT_EQ(zero.size(), 1u);
  EXPECT_EQ(zero.At(0), 2u);
  PostingsView million = segment.Postings(SegmentIndex::kText, "million");
  ASSERT_EQ(million.size(), 1u);
  EXPECT_EQ(million.At(0), 1u);
  PostingsView by = segment.Postings(SegmentIndex::kText, "by");
  EXPECT_EQ(by.size(), 3u);

  // Keys enumerate in sorted order.
  std::vector<std::string> companies;
  segment.ForEachKey(SegmentIndex::kCompany, [&](std::string_view key) {
    companies.push_back(std::string(key));
  });
  EXPECT_EQ(companies,
            (std::vector<std::string>{"Acme", "Beta Corp", "Gamma"}));

  // Stats.
  ASSERT_EQ(segment.company_rows().count("Acme"), 1u);
  EXPECT_EQ(segment.company_rows().at("Acme"), 3);
  EXPECT_EQ(segment.company_kind_rows().at(FieldValueKey("Acme", "Deadline")),
            3);
}

TEST_F(StorageTest, SegmentOpenRejectsEveryCorruption) {
  std::vector<Row> rows = SegmentRows();
  GrowingSegment growing;
  for (const Row& row : rows) growing.Append(row);
  std::string image = growing.Serialize();
  std::string path = Path("seg.gxseg");

  auto write_and_open = [&](const std::string& bytes) {
    auto file = env_->NewWritableFile(path, true);
    EXPECT_TRUE(file.ok());
    EXPECT_TRUE((*file)->Append(bytes).ok());
    EXPECT_TRUE((*file)->Close().ok());
    return SealedSegment::Open(env_, path);
  };

  // The pristine image opens.
  ASSERT_TRUE(write_and_open(image).ok());

  // A single flipped bit anywhere is DataLoss, never UB: sample offsets
  // across the whole image including the header, body, and 20-byte tail.
  size_t step = std::max<size_t>(1, image.size() / 97);
  for (size_t offset = 0; offset < image.size(); offset += step) {
    std::string mutated = image;
    mutated[offset] ^= 0x01;
    auto opened = write_and_open(mutated);
    EXPECT_FALSE(opened.ok()) << "bit flip at " << offset;
    EXPECT_EQ(opened.status().code(), StatusCode::kDataLoss)
        << "bit flip at " << offset;
  }
  for (size_t tail = image.size() - 20; tail < image.size(); ++tail) {
    std::string mutated = image;
    mutated[tail] ^= 0x80;
    EXPECT_EQ(write_and_open(mutated).status().code(), StatusCode::kDataLoss)
        << "tail flip at " << tail;
  }

  // Truncation at every sampled length is DataLoss.
  for (size_t cut = 0; cut < image.size(); cut += step) {
    auto opened = write_and_open(image.substr(0, cut));
    EXPECT_FALSE(opened.ok()) << "truncated to " << cut;
    EXPECT_EQ(opened.status().code(), StatusCode::kDataLoss)
        << "truncated to " << cut;
  }

  // Trailing garbage breaks the end magic.
  EXPECT_EQ(write_and_open(image + "extra").status().code(),
            StatusCode::kDataLoss);
  // Garbage of plausible size is rejected too.
  EXPECT_EQ(write_and_open(std::string(4096, 'Z')).status().code(),
            StatusCode::kDataLoss);
}

// --- Manifest --------------------------------------------------------------

TEST_F(StorageTest, ManifestRoundTripsAndDetectsCorruption) {
  Manifest manifest;
  manifest.num_shards = 4;
  manifest.next_segment = 7;
  manifest.segments.push_back({0, "seg-0-0.gxseg", 100, 0, 201});
  manifest.segments.push_back({3, "seg-3-5.gxseg", 10, 202, 240});
  ASSERT_TRUE(WriteManifest(env_, dir_, manifest).ok());

  auto read = ReadManifest(env_, dir_);
  ASSERT_TRUE(read.ok()) << read.status().message();
  EXPECT_EQ(read->num_shards, 4);
  EXPECT_EQ(read->next_segment, 7u);
  ASSERT_EQ(read->segments.size(), 2u);
  EXPECT_EQ(read->segments[1].file, "seg-3-5.gxseg");
  EXPECT_EQ(read->segments[1].shard, 3);
  EXPECT_EQ(read->segments[1].rows, 10u);
  EXPECT_EQ(read->segments[1].min_row_id, 202);
  EXPECT_EQ(read->segments[1].max_row_id, 240);

  // No temp file is left behind by the commit.
  EXPECT_FALSE(env_->FileExists(dir_ + "/MANIFEST.tmp"));

  std::string serialized = manifest.Serialize();
  for (size_t offset = 0; offset < serialized.size(); ++offset) {
    std::string mutated = serialized;
    mutated[offset] ^= 0x04;
    auto parsed = ParseManifest(mutated);
    // A flip may keep the file parseable only if it never lands — CRC
    // covers every byte before the checksum line, and the checksum line
    // itself must match what it states.
    EXPECT_FALSE(parsed.ok()) << "flip at " << offset;
    EXPECT_EQ(parsed.status().code(), StatusCode::kDataLoss)
        << "flip at " << offset;
  }
  for (size_t cut = 0; cut < serialized.size(); ++cut) {
    EXPECT_EQ(ParseManifest(serialized.substr(0, cut)).status().code(),
              StatusCode::kDataLoss)
        << "cut at " << cut;
  }
  EXPECT_EQ(ReadManifest(env_, Path("nowhere")).status().code(),
            StatusCode::kNotFound);
}

TEST_F(StorageTest, ManifestRejectsMalformedContent) {
  auto reject = [&](const std::string& body) {
    std::string with_crc = body + "crc ";
    char hex[16];
    std::snprintf(hex, sizeof(hex), "%08x", Crc32(body.data(), body.size()));
    with_crc += hex;
    with_crc += '\n';
    auto parsed = ParseManifest(with_crc);
    EXPECT_FALSE(parsed.ok()) << body;
    EXPECT_EQ(parsed.status().code(), StatusCode::kDataLoss) << body;
  };
  reject("not-a-manifest\nshards 4\n");
  reject("goalexdb-manifest-v2\n");                      // Missing shards.
  reject("goalexdb-manifest-v2\nshards 0\n");            // Out of range.
  reject("goalexdb-manifest-v2\nshards 4\nwhat 1\n");    // Unknown line.
  reject("goalexdb-manifest-v2\nshards 2\nsegment 2 f.gxseg 1 0 0\n");
  reject("goalexdb-manifest-v2\nshards 2\nsegment 0 a/b.gxseg 1 0 0\n");
  reject("goalexdb-manifest-v2\nshards 2\nsegment 0 f.gxseg x 0 0\n");
}

}  // namespace
}  // namespace goalex::storage
