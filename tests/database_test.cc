#include "core/database.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "storage/env.h"
#include "storage/fault_env.h"

namespace goalex::core {
namespace {

data::DetailRecord MakeRecord(const std::string& text,
                              std::map<std::string, std::string> fields) {
  data::DetailRecord record;
  record.objective_text = text;
  record.fields = std::move(fields);
  return record;
}

/// Minimal RFC 4180 CSV reader used by the round-trip tests: splits into
/// records honoring quoted fields with doubled quotes and embedded
/// separators / CR / LF.
std::vector<std::vector<std::string>> ParseCsv(const std::string& csv) {
  std::vector<std::vector<std::string>> records;
  std::vector<std::string> fields;
  std::string field;
  bool in_quotes = false;
  size_t i = 0;
  while (i < csv.size()) {
    char c = csv[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < csv.size() && csv[i + 1] == '"') {
          field.push_back('"');
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        field.push_back(c);
      }
    } else if (c == '"') {
      in_quotes = true;
    } else if (c == ',') {
      fields.push_back(std::move(field));
      field.clear();
    } else if (c == '\n') {
      fields.push_back(std::move(field));
      field.clear();
      records.push_back(std::move(fields));
      fields.clear();
    } else {
      field.push_back(c);
    }
    ++i;
  }
  if (!field.empty() || !fields.empty()) {
    fields.push_back(std::move(field));
    records.push_back(std::move(fields));
  }
  return records;
}

TEST(DatabaseTest, InsertAssignsSequentialIds) {
  ObjectiveDatabase db;
  EXPECT_EQ(db.Insert(MakeRecord("a", {}), "C1"), 0);
  EXPECT_EQ(db.Insert(MakeRecord("b", {}), "C2"), 1);
  EXPECT_EQ(db.size(), 2u);
}

TEST(DatabaseTest, ByCompany) {
  ObjectiveDatabase db;
  db.Insert(MakeRecord("a", {}), "C1");
  db.Insert(MakeRecord("b", {}), "C2");
  db.Insert(MakeRecord("c", {}), "C1");
  std::vector<DbRow> rows = db.ByCompany("C1");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].record.objective_text, "a");
  EXPECT_EQ(rows[1].record.objective_text, "c");
  EXPECT_TRUE(db.ByCompany("C9").empty());
}

TEST(DatabaseTest, WithFieldFiltersEmpty) {
  ObjectiveDatabase db;
  db.Insert(MakeRecord("a", {{"Deadline", "2030"}}), "C1");
  db.Insert(MakeRecord("b", {}), "C1");
  db.Insert(MakeRecord("c", {{"Deadline", ""}}), "C1");
  std::vector<DbRow> rows = db.WithField("Deadline");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].record.objective_text, "a");
}

TEST(DatabaseTest, WhereFieldEquals) {
  ObjectiveDatabase db;
  db.Insert(MakeRecord("a", {{"Deadline", "2030"}}), "C1");
  db.Insert(MakeRecord("b", {{"Deadline", "2040"}}), "C1");
  db.Insert(MakeRecord("c", {{"Deadline", "2040"}}), "C2");
  std::vector<DbRow> rows = db.WhereFieldEquals("Deadline", "2040");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].record.objective_text, "b");
  EXPECT_EQ(rows[1].record.objective_text, "c");
  EXPECT_TRUE(db.WhereFieldEquals("Deadline", "1999").empty());
  EXPECT_TRUE(db.WhereFieldEquals("NoSuchKind", "2040").empty());
}

TEST(DatabaseTest, GetByRowId) {
  ObjectiveDatabase db;
  db.Insert(MakeRecord("a", {}), "C1");
  int64_t id = db.Insert(MakeRecord("b", {}), "C2", "doc.pdf", 7);
  std::optional<DbRow> row = db.Get(id);
  ASSERT_TRUE(row.has_value());
  EXPECT_EQ(row->record.objective_text, "b");
  EXPECT_EQ(row->document, "doc.pdf");
  EXPECT_EQ(row->page, 7);
  EXPECT_FALSE(db.Get(999).has_value());
}

TEST(DatabaseTest, DeadlineYearIndex) {
  ObjectiveDatabase db;
  db.Insert(MakeRecord("a", {{"Deadline", "2030"}}), "C1");
  db.Insert(MakeRecord("b", {{"Deadline", "by the end of 2025"}}), "C2");
  db.Insert(MakeRecord("c", {{"Deadline", "soon"}}), "C3");
  db.Insert(MakeRecord("d", {{"TargetYear", "2040"}}), "C4");
  db.Insert(MakeRecord("e", {}), "C5");

  std::vector<DbRow> y2030 = db.ByDeadlineYear(2030);
  ASSERT_EQ(y2030.size(), 1u);
  EXPECT_EQ(y2030[0].record.objective_text, "a");

  std::vector<DbRow> due = db.DeadlineYearBetween(2025, 2035);
  ASSERT_EQ(due.size(), 2u);
  EXPECT_EQ(due[0].record.objective_text, "a");
  EXPECT_EQ(due[1].record.objective_text, "b");

  EXPECT_EQ(db.DeadlineYearBetween(1900, 2100).size(), 3u);
  EXPECT_TRUE(db.ByDeadlineYear(1999).empty());
}

TEST(DatabaseTest, CountPerCompany) {
  ObjectiveDatabase db;
  db.Insert(MakeRecord("a", {}), "C1");
  db.Insert(MakeRecord("b", {}), "C1");
  db.Insert(MakeRecord("c", {}), "C2");
  std::map<std::string, int64_t> counts = db.CountPerCompany();
  EXPECT_EQ(counts["C1"], 2);
  EXPECT_EQ(counts["C2"], 1);
}

TEST(DatabaseTest, Companies) {
  ObjectiveDatabase db;
  db.Insert(MakeRecord("a", {}), "Zeta");
  db.Insert(MakeRecord("b", {}), "Alpha");
  db.Insert(MakeRecord("c", {}), "Alpha");
  EXPECT_EQ(db.Companies(), (std::vector<std::string>{"Alpha", "Zeta"}));
}

TEST(DatabaseTest, FieldCoverageByCompany) {
  ObjectiveDatabase db;
  db.Insert(MakeRecord("a", {{"Amount", "20%"}}), "C1");
  db.Insert(MakeRecord("b", {}), "C1");
  db.Insert(MakeRecord("c", {{"Amount", "5%"}}), "C2");
  std::map<std::string, double> coverage = db.FieldCoverageByCompany("Amount");
  EXPECT_NEAR(coverage["C1"], 0.5, 1e-9);
  EXPECT_NEAR(coverage["C2"], 1.0, 1e-9);
}

TEST(DatabaseTest, FieldCoverageGolden) {
  // Coverage across many companies and shards, against hand-computed
  // fractions (empty values never count as coverage).
  ObjectiveDatabase db(4);
  for (int company = 0; company < 8; ++company) {
    std::string name = "Co" + std::to_string(company);
    for (int row = 0; row < 4; ++row) {
      std::map<std::string, std::string> fields;
      if (row < company % 5) fields["Deadline"] = "2030";
      if (row == 0) fields["Qualifier"] = "";  // Empty: not covered.
      db.Insert(MakeRecord("obj", fields), name);
    }
  }
  std::map<std::string, double> deadline = db.FieldCoverageByCompany("Deadline");
  for (int company = 0; company < 8; ++company) {
    std::string name = "Co" + std::to_string(company);
    EXPECT_NEAR(deadline[name], (company % 5) / 4.0, 1e-9) << name;
  }
  std::map<std::string, double> qualifier =
      db.FieldCoverageByCompany("Qualifier");
  for (const auto& [name, fraction] : qualifier) {
    EXPECT_DOUBLE_EQ(fraction, 0.0) << name;
  }
}

TEST(DatabaseTest, RowsPerShardSumsToSize) {
  ObjectiveDatabase db(4);
  for (int i = 0; i < 100; ++i) {
    db.Insert(MakeRecord("obj", {}), "Company" + std::to_string(i % 13));
  }
  std::vector<size_t> per_shard = db.RowsPerShard();
  EXPECT_EQ(per_shard.size(), 4u);
  size_t total = 0;
  for (size_t n : per_shard) total += n;
  EXPECT_EQ(total, 100u);
}

// Regression for the seed-era dangling-pointer bug: query results used to be
// const DbRow* into a std::vector that reallocated on the next Insert. Now
// results are copies (and rows live in per-shard deques), so results read
// back identically after the store has grown far past any reallocation
// boundary.
TEST(DatabaseTest, QueryResultsSurviveGrowth) {
  ObjectiveDatabase db;
  db.Insert(MakeRecord("first", {{"Deadline", "2030"}}), "C1");
  db.Insert(MakeRecord("second", {{"Deadline", "2040"}}), "C1");

  std::vector<DbRow> by_company = db.ByCompany("C1");
  std::vector<DbRow> with_field = db.WithField("Deadline");
  ASSERT_EQ(by_company.size(), 2u);
  ASSERT_EQ(with_field.size(), 2u);

  // Grow the store by several thousand rows — far past every capacity
  // doubling a vector-backed store would have performed.
  for (int i = 0; i < 5000; ++i) {
    db.Insert(MakeRecord("filler" + std::to_string(i), {}),
              std::string("C").append(std::to_string(i % 7)));
  }

  EXPECT_EQ(by_company[0].record.objective_text, "first");
  EXPECT_EQ(by_company[1].record.objective_text, "second");
  EXPECT_EQ(with_field[0].record.FieldOrEmpty("Deadline"), "2030");
  EXPECT_EQ(with_field[1].record.FieldOrEmpty("Deadline"), "2040");

  // Row-id handles stay resolvable too.
  std::optional<DbRow> reread = db.Get(by_company[0].row_id);
  ASSERT_TRUE(reread.has_value());
  EXPECT_EQ(reread->record.objective_text, "first");
}

TEST(DatabaseTest, ExportCsvEscapes) {
  ObjectiveDatabase db;
  db.Insert(MakeRecord("goal with, comma",
                       {{"Qualifier", "say \"hi\""}}),
            "C1", "doc.pdf", 3);
  std::string csv = db.ExportCsv({"Qualifier"});
  EXPECT_NE(csv.find("\"goal with, comma\""), std::string::npos);
  EXPECT_NE(csv.find("\"say \"\"hi\"\"\""), std::string::npos);
  EXPECT_NE(csv.find("row_id,company,document,page,objective,Qualifier"),
            std::string::npos);
}

// Regression: a bare carriage return used to pass through unquoted and
// split the CSV row in most readers.
TEST(DatabaseTest, ExportCsvQuotesCarriageReturn) {
  ObjectiveDatabase db;
  db.Insert(MakeRecord("line1\rline2", {}), "C1");
  std::string csv = db.ExportCsv({});
  EXPECT_NE(csv.find("\"line1\rline2\""), std::string::npos);
  // Exactly header + 1 row when parsed (the CR is inside quotes).
  EXPECT_EQ(ParseCsv(csv).size(), 2u);
}

TEST(DatabaseTest, ExportCsvRoundTripsTrickyContent) {
  ObjectiveDatabase db;
  db.Insert(MakeRecord("embedded\r\nnewline, and \"quotes\"",
                       {{"Qualifier", "a\rb"}, {"Action", "x,y"}}),
            "Comma, Inc.", "doc\r.pdf", 1);
  db.Insert(MakeRecord("plain", {{"Action", "reduce"}}), "C2");
  std::string csv = db.ExportCsv({"Action", "Qualifier"});

  std::vector<std::vector<std::string>> records = ParseCsv(csv);
  ASSERT_EQ(records.size(), 3u);  // Header + 2 rows.
  EXPECT_EQ(records[0],
            (std::vector<std::string>{"row_id", "company", "document", "page",
                                      "objective", "Action", "Qualifier"}));
  EXPECT_EQ(records[1],
            (std::vector<std::string>{"0", "Comma, Inc.", "doc\r.pdf", "1",
                                      "embedded\r\nnewline, and \"quotes\"",
                                      "x,y", "a\rb"}));
  EXPECT_EQ(records[2], (std::vector<std::string>{"1", "C2", "", "0", "plain",
                                                  "reduce", ""}));
}

TEST(DatabaseTest, ExportCsvGoldenColumnOrdering) {
  ObjectiveDatabase db;
  db.Insert(MakeRecord("cut emissions",
                       {{"Action", "cut"}, {"Deadline", "2030"}}),
            "Acme", "report.pdf", 12);
  db.Insert(MakeRecord("plant trees", {{"Action", "plant"}}), "Beta");
  std::string expected =
      "row_id,company,document,page,objective,Action,Amount,Deadline\n"
      "0,Acme,report.pdf,12,cut emissions,cut,,2030\n"
      "1,Beta,,0,plant trees,plant,,\n";
  EXPECT_EQ(db.ExportCsv({"Action", "Amount", "Deadline"}), expected);
}

TEST(DatabaseTest, ExportCsvRowCount) {
  ObjectiveDatabase db;
  db.Insert(MakeRecord("a", {}), "C1");
  db.Insert(MakeRecord("b", {}), "C2");
  std::string csv = db.ExportCsv({});
  // Header + 2 rows = 3 newline-terminated lines.
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 3);
}

TEST(DatabaseTest, SaveLoadRoundTripsByteIdentically) {
  std::string dir = (std::filesystem::temp_directory_path() /
                     "goalex_db_roundtrip")
                        .string();
  std::filesystem::remove_all(dir);

  ObjectiveDatabase db;
  db.Insert(MakeRecord("cut, emissions \"fast\"\r\nnow",
                       {{"Action", "cut"},
                        {"Amount", "20%"},
                        {"Deadline", "by 2030"}}),
            "Acme Corp", "esg report.pdf", 4);
  db.Insert(MakeRecord("net zero", {{"Amount", "net-zero"}}), "Beta");
  for (int i = 0; i < 200; ++i) {
    db.Insert(MakeRecord("obj" + std::to_string(i),
                         {{"Deadline", std::to_string(2025 + i % 20)}}),
              "Company" + std::to_string(i % 9));
  }
  ASSERT_TRUE(db.Save(dir).ok());

  ObjectiveDatabase loaded(/*num_shards=*/4);  // Re-sharding must not matter.
  ASSERT_TRUE(loaded.Load(dir).ok());
  EXPECT_EQ(loaded.size(), db.size());

  std::vector<std::string> kinds = {"Action", "Amount", "Deadline"};
  EXPECT_EQ(loaded.ExportCsv(kinds), db.ExportCsv(kinds));
  EXPECT_EQ(loaded.CountPerCompany(), db.CountPerCompany());
  EXPECT_EQ(loaded.FieldCoverageByCompany("Deadline"),
            db.FieldCoverageByCompany("Deadline"));
  EXPECT_EQ(loaded.ByDeadlineYear(2030).size(), db.ByDeadlineYear(2030).size());

  // Inserts continue above the highest loaded id.
  int64_t next = loaded.Insert(MakeRecord("new", {}), "Acme Corp");
  EXPECT_EQ(next, static_cast<int64_t>(db.size()));

  std::filesystem::remove_all(dir);
}

TEST(DatabaseTest, LoadRejectsMissingAndCorruptSnapshots) {
  ObjectiveDatabase db;
  Status missing = db.Load("/nonexistent/goalex-db-dir");
  EXPECT_EQ(missing.code(), StatusCode::kNotFound);

  std::string dir = (std::filesystem::temp_directory_path() /
                     "goalex_db_corrupt")
                        .string();
  std::filesystem::create_directories(dir);
  {
    std::ofstream out(dir + "/objectives.db", std::ios::binary);
    out << "not a snapshot";
  }
  Status corrupt = db.Load(dir);
  EXPECT_EQ(corrupt.code(), StatusCode::kDataLoss);
  std::filesystem::remove_all(dir);
}

// Concurrency stress: writers insert across companies (and thus shards)
// while readers hammer every indexed query and the exporter. Run under the
// TSAN CI job; invariants are re-checked after the threads join.
TEST(DatabaseTest, ConcurrentInsertAndQueryStress) {
  ObjectiveDatabase db(8);
  constexpr int kWriters = 4;
  constexpr int kReaders = 4;
  constexpr int kRowsPerWriter = 500;
  std::atomic<bool> done{false};

  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&db, w] {
      for (int i = 0; i < kRowsPerWriter; ++i) {
        std::map<std::string, std::string> fields;
        if (i % 2 == 0) fields["Deadline"] = std::to_string(2025 + i % 10);
        if (i % 3 == 0) fields["Amount"] = "20%";
        // A per-writer company plus one shared hot company.
        std::string company =
            i % 5 == 0 ? "Shared" : "Writer" + std::to_string(w);
        std::string text = std::string("w").append(std::to_string(w)) +
                           "#" + std::to_string(i);
        db.Insert(MakeRecord(text, fields), company, "doc", i);
      }
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&db, &done, r] {
      size_t checksum = 0;
      while (!done.load(std::memory_order_acquire)) {
        checksum += db.ByCompany("Shared").size();
        checksum += db.WithField("Deadline").size();
        checksum += db.WhereFieldEquals("Amount", "20%").size();
        checksum += db.DeadlineYearBetween(2025, 2030).size();
        checksum += db.CountPerCompany().size();
        checksum += db.FieldCoverageByCompany("Amount").size();
        if (r == 0) checksum += db.ExportCsv({"Deadline"}).size();
        std::optional<DbRow> row = db.Get(static_cast<int64_t>(checksum % 97));
        if (row.has_value()) checksum += row->record.objective_text.size();
      }
      volatile size_t sink = checksum;  // Keep the reads observable.
      (void)sink;
    });
  }
  for (int w = 0; w < kWriters; ++w) threads[w].join();
  done.store(true, std::memory_order_release);
  for (size_t i = kWriters; i < threads.size(); ++i) threads[i].join();

  // Post-conditions: every row landed exactly once with a unique id.
  ASSERT_EQ(db.size(), static_cast<size_t>(kWriters * kRowsPerWriter));
  std::vector<DbRow> rows = db.SnapshotRows();
  std::set<int64_t> ids;
  for (const DbRow& row : rows) ids.insert(row.row_id);
  EXPECT_EQ(ids.size(), rows.size());
  EXPECT_EQ(*ids.begin(), 0);
  EXPECT_EQ(*ids.rbegin(), static_cast<int64_t>(rows.size()) - 1);

  std::map<std::string, int64_t> counts = db.CountPerCompany();
  int64_t total = 0;
  for (const auto& [company, count] : counts) total += count;
  EXPECT_EQ(total, kWriters * kRowsPerWriter);
  EXPECT_EQ(counts["Shared"], kWriters * (kRowsPerWriter / 5));
  EXPECT_EQ(db.WithField("Deadline").size(),
            static_cast<size_t>(kWriters * (kRowsPerWriter / 2)));
}

TEST(DatabaseTest, LoadEmptyOrNonexistentDirIsCleanNotFound) {
  ObjectiveDatabase db;
  db.Insert(MakeRecord("keep me", {}), "Acme");

  // Nonexistent directory.
  Status missing = db.Load("/nonexistent/goalex-db-dir");
  EXPECT_EQ(missing.code(), StatusCode::kNotFound);

  // Existing but empty directory: neither a manifest nor a legacy file.
  std::string dir = (std::filesystem::temp_directory_path() /
                     "goalex_db_empty_dir")
                        .string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  Status empty = db.Load(dir);
  EXPECT_EQ(empty.code(), StatusCode::kNotFound);

  // A failed Load leaves the database contents untouched.
  EXPECT_EQ(db.size(), 1u);
  EXPECT_EQ(db.ByCompany("Acme").size(), 1u);
  std::filesystem::remove_all(dir);
}

TEST(DatabaseTest, SaveIntoUnwritableTargetFailsWithErrorStatus) {
  std::string blocker = (std::filesystem::temp_directory_path() /
                         "goalex_db_blocker")
                            .string();
  std::filesystem::remove_all(blocker);
  {
    std::ofstream out(blocker, std::ios::binary);
    out << "a regular file where a directory is needed";
  }

  ObjectiveDatabase db;
  db.Insert(MakeRecord("x", {}), "Acme");
  // The target's parent is a regular file, so the directory cannot be
  // created: Save must fail with an error Status, not crash or half-write.
  Status status = db.Save(blocker + "/store");
  EXPECT_FALSE(status.ok());
  Status legacy = db.SaveLegacy(blocker + "/store");
  EXPECT_FALSE(legacy.ok());
  std::filesystem::remove_all(blocker);
}

TEST(DatabaseTest, OpenRecoversWalRowsAcrossReopen) {
  std::string dir = (std::filesystem::temp_directory_path() /
                     "goalex_db_wal_reopen")
                        .string();
  std::filesystem::remove_all(dir);
  DbOptions options;
  options.background_seal = false;

  std::string reference_csv;
  {
    ObjectiveDatabase db(4, options);
    ASSERT_TRUE(db.Open(dir).ok());
    EXPECT_TRUE(db.attached());
    // Re-opening while attached is refused.
    EXPECT_EQ(db.Open(dir).code(), StatusCode::kFailedPrecondition);
    // Saving into the attached directory is refused (use Flush).
    EXPECT_EQ(db.Save(dir).code(), StatusCode::kFailedPrecondition);
    for (int i = 0; i < 50; ++i) {
      db.Insert(MakeRecord("wal row " + std::to_string(i),
                           {{"Amount", std::to_string(i) + "%"}}),
                "Company" + std::to_string(i % 5));
    }
    reference_csv = db.ExportCsv({"Amount"});
    // No Flush: all 50 rows live only in the shard WALs.
    EXPECT_EQ(db.SealedSegmentCount(), 0u);
  }

  ObjectiveDatabase reopened(4, options);
  ASSERT_TRUE(reopened.Open(dir).ok());
  EXPECT_EQ(reopened.size(), 50u);
  EXPECT_EQ(reopened.ExportCsv({"Amount"}), reference_csv);

  // Ids continue after recovery, and recovered rows are queryable.
  EXPECT_EQ(reopened.Insert(MakeRecord("new", {}), "Company0"), 50);
  EXPECT_EQ(reopened.WhereFieldEquals("Amount", "7%").size(), 1u);
  std::filesystem::remove_all(dir);
}

TEST(DatabaseTest, BackgroundSealerSealsPastThreshold) {
  std::string dir = (std::filesystem::temp_directory_path() /
                     "goalex_db_background_seal")
                        .string();
  std::filesystem::remove_all(dir);
  DbOptions options;
  options.seal_threshold = 16;
  options.background_seal = true;

  {
    // Scoped so both sealer threads are joined before the directory is
    // removed (a seal still writing its WAL temp file races remove_all).
    ObjectiveDatabase db(2, options);
    ASSERT_TRUE(db.Open(dir).ok());
    for (int i = 0; i < 200; ++i) {
      db.Insert(MakeRecord("row " + std::to_string(i),
                           {{"Deadline", std::to_string(2025 + i % 10)}}),
                "Company" + std::to_string(i % 4));
    }
    // The sealer runs asynchronously; poll until it has sealed something.
    for (int spin = 0; spin < 500 && db.SealedSegmentCount() == 0; ++spin) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    EXPECT_GT(db.SealedSegmentCount(), 0u);

    // Sealing moved rows out of the growing segments without losing any.
    EXPECT_EQ(db.size(), 200u);
    EXPECT_EQ(db.SnapshotRows().size(), 200u);
    EXPECT_EQ(db.ByDeadlineYear(2025).size(), 20u);

    // Everything — sealed and still-growing — survives a reopen.
    ObjectiveDatabase reopened(2, options);
    ASSERT_TRUE(reopened.Open(dir).ok());
    EXPECT_EQ(reopened.size(), 200u);
    EXPECT_EQ(reopened.ExportCsv({"Deadline"}), db.ExportCsv({"Deadline"}));
  }
  std::filesystem::remove_all(dir);
}

// Attached-mode concurrency stress: writers insert while the background
// sealer compacts shards under a tiny threshold and readers query across
// the sealed/growing boundary. Run under the TSAN CI job.
TEST(DatabaseTest, AttachedConcurrentInsertQuerySealStress) {
  std::string dir = (std::filesystem::temp_directory_path() /
                     "goalex_db_attached_stress")
                        .string();
  std::filesystem::remove_all(dir);
  DbOptions options;
  options.seal_threshold = 32;
  options.background_seal = true;
  options.wal_fsync_interval = 0;  // Throughput: this test is about races.

  constexpr int kWriters = 3;
  constexpr int kRowsPerWriter = 300;
  {
    ObjectiveDatabase db(4, options);
    ASSERT_TRUE(db.Open(dir).ok());
    std::atomic<bool> done{false};
    std::vector<std::thread> threads;
    for (int w = 0; w < kWriters; ++w) {
      threads.emplace_back([&db, w] {
        for (int i = 0; i < kRowsPerWriter; ++i) {
          std::map<std::string, std::string> fields;
          if (i % 2 == 0) fields["Deadline"] = std::to_string(2025 + i % 10);
          std::string text = std::string("w").append(std::to_string(w)) +
                             "#" + std::to_string(i);
          db.Insert(MakeRecord(text, fields),
                    i % 4 == 0 ? "Shared" : "Writer" + std::to_string(w));
        }
      });
    }
    for (int r = 0; r < 2; ++r) {
      threads.emplace_back([&db, &done] {
        size_t checksum = 0;
        while (!done.load(std::memory_order_acquire)) {
          checksum += db.ByCompany("Shared").size();
          checksum += db.DeadlineYearBetween(2025, 2030).size();
          checksum += db.QueryText("w0", TextFilter{}).size();
          checksum += db.SnapshotRows().size();
        }
        volatile size_t sink = checksum;
        (void)sink;
      });
    }
    for (int w = 0; w < kWriters; ++w) threads[w].join();
    done.store(true, std::memory_order_release);
    for (size_t i = kWriters; i < threads.size(); ++i) threads[i].join();
    ASSERT_TRUE(db.Flush().ok());
    ASSERT_EQ(db.size(), static_cast<size_t>(kWriters * kRowsPerWriter));
  }

  // Every row survives the concurrent seals and a reopen, exactly once.
  ObjectiveDatabase reopened(4, options);
  ASSERT_TRUE(reopened.Open(dir).ok());
  ASSERT_EQ(reopened.size(), static_cast<size_t>(kWriters * kRowsPerWriter));
  std::set<int64_t> ids;
  for (const DbRow& row : reopened.SnapshotRows()) ids.insert(row.row_id);
  EXPECT_EQ(ids.size(), static_cast<size_t>(kWriters * kRowsPerWriter));
  EXPECT_EQ(*ids.rbegin(),
            static_cast<int64_t>(kWriters * kRowsPerWriter) - 1);
  std::filesystem::remove_all(dir);
}

DbOptions UpsertOptions() {
  DbOptions options;
  options.background_seal = false;
  options.track_upserts = true;
  return options;
}

TEST(DatabaseUpsertTest, InsertUpdateAndNoOpSemantics) {
  ObjectiveDatabase db(4, UpsertOptions());
  data::DetailRecord v1 = MakeRecord(
      "Reduce emissions by 20% by 2030",
      {{"Action", "Reduce"}, {"Qualifier", "emissions"}, {"Amount", "20%"}});
  UpsertResult first = db.Upsert(v1, "Acme");
  EXPECT_TRUE(first.inserted);
  EXPECT_EQ(first.version, 1);
  EXPECT_EQ(db.live_size(), 1u);

  // A restated target (same company + action lemma + qualifier, new
  // amount) updates the existing row in place: same id, version bump,
  // no new row.
  data::DetailRecord v2 = MakeRecord(
      "Reduce emissions by 30% by 2030",
      {{"Action", "Reduce"}, {"Qualifier", "emissions"}, {"Amount", "30%"}});
  UpsertResult second = db.Upsert(v2, "Acme");
  EXPECT_TRUE(second.updated);
  EXPECT_EQ(second.version, 2);
  EXPECT_EQ(second.row_id, first.row_id);
  EXPECT_EQ(db.size(), 1u);
  EXPECT_EQ(db.live_size(), 1u);

  // Replaying the identical document is a no-op, not version 3.
  UpsertResult replay = db.Upsert(v2, "Acme");
  EXPECT_TRUE(replay.unchanged());
  EXPECT_EQ(replay.version, 2);

  // The action lemma and qualifier case-fold, so surface variants of the
  // same objective still match ("will reduce" / "Reducing" -> "reduce").
  data::DetailRecord v3 = MakeRecord(
      "We will be reducing Emissions by 35% by 2030",
      {{"Action", "Reducing"}, {"Qualifier", "Emissions"}, {"Amount", "35%"}});
  UpsertResult third = db.Upsert(v3, "Acme");
  EXPECT_TRUE(third.updated);
  EXPECT_EQ(third.version, 3);

  // A different qualifier is a different objective.
  data::DetailRecord other = MakeRecord(
      "Reduce water use by 10% by 2030",
      {{"Action", "Reduce"}, {"Qualifier", "water use"}, {"Amount", "10%"}});
  EXPECT_TRUE(db.Upsert(other, "Acme").inserted);
  // Same objective at a different company is also distinct.
  EXPECT_TRUE(db.Upsert(v2, "Globex").inserted);
  EXPECT_EQ(db.live_size(), 3u);

  std::optional<DbRow> live = db.Get(first.row_id);
  ASSERT_TRUE(live.has_value());
  EXPECT_EQ(live->record.FieldOrEmpty("Amount"), "35%");
  EXPECT_EQ(RecordVersion(live->record), 3);
  EXPECT_EQ(db.ByCompany("Acme").size(), 2u);
}

TEST(DatabaseUpsertTest, EmptyKeyFieldsFallBackToObjectiveText) {
  ObjectiveDatabase db(2, UpsertOptions());
  data::DetailRecord bare = MakeRecord("Achieve net-zero by 2040", {});
  EXPECT_TRUE(db.Upsert(bare, "Acme").inserted);
  // Same text (modulo case/whitespace) matches; different text does not.
  data::DetailRecord bare_again = MakeRecord("  achieve NET-ZERO by 2040 ", {});
  UpsertResult again = db.Upsert(bare_again, "Acme");
  EXPECT_TRUE(again.updated);  // Same key; the raw text differs, so v2.
  EXPECT_EQ(again.version, 2);
  EXPECT_TRUE(db.Upsert(MakeRecord("Plant one million trees", {}), "Acme")
                  .inserted);
  EXPECT_EQ(db.live_size(), 2u);
}

TEST(DatabaseUpsertTest, SealedRowSupersededByNewVersion) {
  std::string dir = (std::filesystem::temp_directory_path() /
                     "goalex_db_upsert_sealed")
                        .string();
  std::filesystem::remove_all(dir);
  ObjectiveDatabase db(2, UpsertOptions());
  ASSERT_TRUE(db.Open(dir).ok());
  data::DetailRecord v1 = MakeRecord(
      "Cut waste by 40% by 2035",
      {{"Action", "Cut"}, {"Qualifier", "waste"}, {"Amount", "40%"}});
  UpsertResult first = db.Upsert(v1, "Acme");
  db.Upsert(MakeRecord("Reduce water use by 10%",
                       {{"Action", "Reduce"},
                        {"Qualifier", "water use"},
                        {"Amount", "10%"}}),
            "Acme");
  ASSERT_TRUE(db.Flush().ok());
  ASSERT_GT(db.SealedSegmentCount(), 0u);

  // Updating a sealed row appends a fresh row (mmap segments are
  // immutable) and masks the old id everywhere except Get().
  data::DetailRecord v2 = MakeRecord(
      "Cut waste by 50% by 2035",
      {{"Action", "Cut"}, {"Qualifier", "waste"}, {"Amount", "50%"}});
  UpsertResult second = db.Upsert(v2, "Acme");
  EXPECT_TRUE(second.updated);
  EXPECT_EQ(second.version, 2);
  EXPECT_GT(second.row_id, first.row_id);
  EXPECT_EQ(db.size(), 3u);
  EXPECT_EQ(db.live_size(), 2u);
  EXPECT_EQ(db.superseded_count(), 1u);

  // Every query path sees exactly the live rows.
  EXPECT_EQ(db.ByCompany("Acme").size(), 2u);
  EXPECT_EQ(db.WhereFieldEquals("Amount", "40%").size(), 0u);
  EXPECT_EQ(db.WhereFieldEquals("Amount", "50%").size(), 1u);
  EXPECT_EQ(db.CountPerCompany()["Acme"], 2);
  EXPECT_EQ(db.FieldCoverageByCompany("Amount")["Acme"], 1.0);
  EXPECT_EQ(db.SnapshotRows().size(), 2u);
  auto csv_records = ParseCsv(db.ExportCsv({"Amount"}));
  EXPECT_EQ(csv_records.size(), 3u);  // header + 2 live rows

  // Get() intentionally still serves the masked row: version history.
  std::optional<DbRow> old_row = db.Get(first.row_id);
  ASSERT_TRUE(old_row.has_value());
  EXPECT_EQ(old_row->record.FieldOrEmpty("Amount"), "40%");
  EXPECT_EQ(RecordVersion(old_row->record), 1);
  std::filesystem::remove_all(dir);
}

TEST(DatabaseUpsertTest, DedupStateSurvivesReopen) {
  std::string dir = (std::filesystem::temp_directory_path() /
                     "goalex_db_upsert_reopen")
                        .string();
  std::filesystem::remove_all(dir);
  data::DetailRecord v1 = MakeRecord(
      "Cut waste by 40% by 2035",
      {{"Action", "Cut"}, {"Qualifier", "waste"}, {"Amount", "40%"}});
  data::DetailRecord v2 = MakeRecord(
      "Cut waste by 50% by 2035",
      {{"Action", "Cut"}, {"Qualifier", "waste"}, {"Amount", "50%"}});
  {
    ObjectiveDatabase db(2, UpsertOptions());
    ASSERT_TRUE(db.Open(dir).ok());
    db.Upsert(v1, "Acme");
    ASSERT_TRUE(db.Flush().ok());
    EXPECT_TRUE(db.Upsert(v2, "Acme").updated);  // sealed -> superseded
    db.Upsert(MakeRecord("Plant trees", {{"Action", "Plant"},
                                         {"Qualifier", "trees"}}),
              "Globex");
  }

  ObjectiveDatabase reopened(2, UpsertOptions());
  ASSERT_TRUE(reopened.Open(dir).ok());
  EXPECT_EQ(reopened.size(), 3u);
  EXPECT_EQ(reopened.live_size(), 2u);
  EXPECT_EQ(reopened.superseded_count(), 1u);

  // The rebuilt dedup map still recognizes the key: replay is a no-op,
  // a further restatement lands version 3.
  EXPECT_TRUE(reopened.Upsert(v2, "Acme").unchanged());
  data::DetailRecord v3 = MakeRecord(
      "Cut waste by 60% by 2035",
      {{"Action", "Cut"}, {"Qualifier", "waste"}, {"Amount", "60%"}});
  UpsertResult third = reopened.Upsert(v3, "Acme");
  EXPECT_TRUE(third.updated);
  EXPECT_EQ(third.version, 3);
  EXPECT_EQ(reopened.live_size(), 2u);
  std::filesystem::remove_all(dir);
}

TEST(DatabaseUpsertTest, WalReplayAppliesInPlaceUpdates) {
  std::string dir = (std::filesystem::temp_directory_path() /
                     "goalex_db_upsert_wal")
                        .string();
  std::filesystem::remove_all(dir);
  data::DetailRecord v2 = MakeRecord(
      "Cut waste by 50% by 2035",
      {{"Action", "Cut"}, {"Qualifier", "waste"}, {"Amount", "50%"}});
  {
    ObjectiveDatabase db(2, UpsertOptions());
    ASSERT_TRUE(db.Open(dir).ok());
    db.Upsert(MakeRecord("Cut waste by 40% by 2035",
                         {{"Action", "Cut"},
                          {"Qualifier", "waste"},
                          {"Amount", "40%"}}),
              "Acme");
    // No Flush: both the original and the in-place update live only in
    // the WAL, as two records sharing one row id.
    EXPECT_TRUE(db.Upsert(v2, "Acme").updated);
    EXPECT_EQ(db.SealedSegmentCount(), 0u);
  }

  ObjectiveDatabase reopened(2, UpsertOptions());
  ASSERT_TRUE(reopened.Open(dir).ok());
  EXPECT_EQ(reopened.size(), 1u);
  EXPECT_EQ(reopened.live_size(), 1u);
  std::vector<DbRow> rows = reopened.SnapshotRows();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].record.FieldOrEmpty("Amount"), "50%");
  EXPECT_EQ(RecordVersion(rows[0].record), 2);
  EXPECT_TRUE(reopened.Upsert(v2, "Acme").unchanged());
  std::filesystem::remove_all(dir);
}

TEST(DatabaseUpsertTest, SaveCompactsSupersededRows) {
  std::string attached_dir = (std::filesystem::temp_directory_path() /
                              "goalex_db_upsert_compact_src")
                                 .string();
  std::string saved_dir = (std::filesystem::temp_directory_path() /
                           "goalex_db_upsert_compact_dst")
                              .string();
  std::filesystem::remove_all(attached_dir);
  std::filesystem::remove_all(saved_dir);
  ObjectiveDatabase db(2, UpsertOptions());
  ASSERT_TRUE(db.Open(attached_dir).ok());
  db.Upsert(MakeRecord("Cut waste by 40%", {{"Action", "Cut"},
                                            {"Qualifier", "waste"},
                                            {"Amount", "40%"}}),
            "Acme");
  ASSERT_TRUE(db.Flush().ok());
  db.Upsert(MakeRecord("Cut waste by 50%", {{"Action", "Cut"},
                                            {"Qualifier", "waste"},
                                            {"Amount", "50%"}}),
            "Acme");
  EXPECT_EQ(db.size(), 2u);

  // Save() writes only live rows: the superseded copy is compacted away.
  ObjectiveDatabase copy(2, UpsertOptions());
  ASSERT_TRUE(db.Save(saved_dir).ok());
  ASSERT_TRUE(copy.Load(saved_dir).ok());
  EXPECT_EQ(copy.size(), 1u);
  EXPECT_EQ(copy.superseded_count(), 0u);
  std::vector<DbRow> rows = copy.SnapshotRows();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].record.FieldOrEmpty("Amount"), "50%");
  std::filesystem::remove_all(attached_dir);
  std::filesystem::remove_all(saved_dir);
}

TEST(DatabaseUpsertTest, PlainInsertBypassesDedup) {
  ObjectiveDatabase db(2, UpsertOptions());
  data::DetailRecord record = MakeRecord(
      "Cut waste by 40%",
      {{"Action", "Cut"}, {"Qualifier", "waste"}, {"Amount", "40%"}});
  db.Insert(record, "Acme");
  db.Insert(record, "Acme");
  EXPECT_EQ(db.live_size(), 2u);  // Insert never dedups.
  // Upsert then matches the newest inserted row for the key.
  data::DetailRecord restated = MakeRecord(
      "Cut waste by 55%",
      {{"Action", "Cut"}, {"Qualifier", "waste"}, {"Amount", "55%"}});
  UpsertResult result = db.Upsert(restated, "Acme");
  EXPECT_TRUE(result.updated);
  EXPECT_EQ(result.row_id, 1);
  EXPECT_EQ(db.live_size(), 2u);
}

TEST(DatabaseUpsertTest, StaleSequencedDeliveriesAreDropped) {
  std::string dir = (std::filesystem::temp_directory_path() /
                     "goalex_db_upsert_stale")
                        .string();
  std::filesystem::remove_all(dir);
  data::DetailRecord v1 = MakeRecord(
      "Reduce emissions by 20% by 2030",
      {{"Action", "Reduce"}, {"Qualifier", "emissions"}, {"Amount", "20%"}});
  data::DetailRecord v2 = MakeRecord(
      "Reduce emissions by 30% by 2030",
      {{"Action", "Reduce"}, {"Qualifier", "emissions"}, {"Amount", "30%"}});
  int64_t live_id = -1;
  {
    ObjectiveDatabase db(2, UpsertOptions());
    ASSERT_TRUE(db.Open(dir).ok());
    UpsertResult first = db.Upsert(v1, "Acme", "report-2029.pdf", 1, 0);
    EXPECT_TRUE(first.inserted);
    live_id = first.row_id;
    UpsertResult second = db.Upsert(v2, "Acme", "report-2030.pdf", 1, 7);
    EXPECT_TRUE(second.updated);
    EXPECT_EQ(second.version, 2);

    // Replaying the feed re-delivers the v1 publication with its original
    // (older) sequence: dropped as stale, not applied as version 3.
    UpsertResult stale = db.Upsert(v1, "Acme", "report-2029.pdf", 1, 0);
    EXPECT_TRUE(stale.stale);
    EXPECT_TRUE(stale.unchanged());
    EXPECT_EQ(stale.version, 2);
    // Re-delivering the newest publication is a byte-identical no-op.
    UpsertResult replay = db.Upsert(v2, "Acme", "report-2030.pdf", 1, 7);
    EXPECT_FALSE(replay.stale);
    EXPECT_TRUE(replay.unchanged());
    std::optional<DbRow> live = db.Get(live_id);
    ASSERT_TRUE(live.has_value());
    EXPECT_EQ(live->record.FieldOrEmpty("Amount"), "30%");
    EXPECT_EQ(RecordSequence(live->record), 7);
  }
  // The sequence rides the _seq field through the WAL, so the stale guard
  // survives a reopen.
  ObjectiveDatabase reopened(2, UpsertOptions());
  ASSERT_TRUE(reopened.Open(dir).ok());
  UpsertResult stale = reopened.Upsert(v1, "Acme", "report-2029.pdf", 1, 0);
  EXPECT_TRUE(stale.stale);
  EXPECT_EQ(stale.version, 2);
  EXPECT_EQ(reopened.live_size(), 1u);
  std::filesystem::remove_all(dir);
}

/// Forwards to the default Env (through FaultInjectionEnv with no write
/// budget), but parks the first seal that opens its segment temp file until
/// Release(): a window in which a seal is in flight and writers run.
class SealGateEnv : public storage::FaultInjectionEnv {
 public:
  SealGateEnv() : FaultInjectionEnv(storage::Env::Default()) {}

  StatusOr<std::unique_ptr<storage::WritableFile>> NewWritableFile(
      const std::string& path, bool truncate) override {
    if (path.ends_with(".gxseg.tmp")) {
      std::unique_lock<std::mutex> lock(mu_);
      parked_ = true;
      cv_.notify_all();
      cv_.wait(lock, [this] { return released_; });
    }
    return FaultInjectionEnv::NewWritableFile(path, truncate);
  }

  /// Waits (bounded) until a seal is parked; false on timeout.
  bool WaitUntilParked() {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, std::chrono::seconds(30),
                        [this] { return parked_; });
  }

  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool parked_ = false;
  bool released_ = false;
};

// A restatement that lands while a seal of the same shard is writing its
// segment must survive the seal: in memory, in the segment + WAL, and
// across a reopen. (The seal writes the rows as they stood when it
// started; an in-place update of one of them would otherwise be dropped
// when the sealed file replaces them.)
TEST(DatabaseUpsertTest, RestatementDuringSealSurvivesTheSeal) {
  std::string dir = (std::filesystem::temp_directory_path() /
                     "goalex_db_upsert_seal_race")
                        .string();
  std::filesystem::remove_all(dir);
  data::DetailRecord v1 = MakeRecord(
      "Cut waste by 40% by 2035",
      {{"Action", "Cut"}, {"Qualifier", "waste"}, {"Amount", "40%"}});
  data::DetailRecord v2 = MakeRecord(
      "Cut waste by 50% by 2035",
      {{"Action", "Cut"}, {"Qualifier", "waste"}, {"Amount", "50%"}});
  const std::vector<std::string> kinds = {"Amount", kVersionField};
  std::string expected_csv;
  {
    SealGateEnv env;
    DbOptions options = UpsertOptions();
    options.env = &env;
    options.wal_fsync_interval = 1;
    ObjectiveDatabase db(1, options);
    ASSERT_TRUE(db.Open(dir).ok());
    ASSERT_TRUE(db.Upsert(v1, "Acme").inserted);

    Status flushed = InternalError("Flush did not run");
    std::thread flusher([&db, &flushed] { flushed = db.Flush(); });
    bool parked = env.WaitUntilParked();
    EXPECT_TRUE(parked) << "Flush never opened its segment temp file";
    UpsertResult restated = db.Upsert(v2, "Acme");
    EXPECT_TRUE(restated.updated);
    EXPECT_EQ(restated.version, 2);
    env.Release();
    flusher.join();
    ASSERT_TRUE(parked);
    ASSERT_TRUE(flushed.ok()) << flushed.message();

    std::vector<DbRow> live = db.SnapshotRows();
    ASSERT_EQ(live.size(), 1u);
    EXPECT_EQ(live[0].row_id, restated.row_id);
    EXPECT_EQ(live[0].record.FieldOrEmpty("Amount"), "50%");
    EXPECT_EQ(RecordVersion(live[0].record), 2);
    EXPECT_TRUE(db.Upsert(v2, "Acme").unchanged());
    expected_csv = db.ExportCsv(kinds);
  }
  ObjectiveDatabase reopened(1, UpsertOptions());
  ASSERT_TRUE(reopened.Open(dir).ok());
  EXPECT_EQ(reopened.ExportCsv(kinds), expected_csv);
  EXPECT_EQ(reopened.live_size(), 1u);
  EXPECT_TRUE(reopened.Upsert(v2, "Acme").unchanged());
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace goalex::core
