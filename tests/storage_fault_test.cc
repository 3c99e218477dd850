// Crash-recovery and corruption harness of the storage engine:
//
//  - a kill-at-every-write-offset sweep: the database runs a fixed workload
//    through a FaultInjectionEnv whose write budget simulates a crash at one
//    exact byte of the storage write stream; recovery from the surviving
//    files must yield a row-id prefix of the workload whose ExportCsv is
//    byte-identical to a never-crashed store of the same prefix — for every
//    single budget in [0, total bytes written]. One sweep runs an Insert
//    feed, another an Upsert feed with in-place restatements, a Flush and
//    the supersede of a sealed row;
//  - a seeded corruption fuzzer: random bit flips, truncations, zero fills,
//    and garbage appends over every file of a valid database directory must
//    recover a valid subset of rows or fail with a clean DataLoss — never
//    crash, hang, or read out of bounds (the CI ASAN job runs this).
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <functional>
#include <map>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "core/database.h"
#include "storage/env.h"
#include "storage/fault_env.h"

namespace goalex::core {
namespace {

const std::vector<std::string> kKinds = {"Amount", "Deadline"};

/// The deterministic workload every crash test replays: compact rows so the
/// byte-exact kill sweep stays fast.
struct WorkloadOp {
  std::string company;
  data::DetailRecord record;
};

std::vector<WorkloadOp> WorkloadOps(size_t count) {
  const std::vector<std::string> companies = {"Acme", "Beta", "Gamma"};
  const std::vector<std::string> verbs = {"cut", "reuse", "plant", "audit"};
  std::vector<WorkloadOp> ops;
  for (size_t i = 0; i < count; ++i) {
    WorkloadOp op;
    op.company = companies[i % companies.size()];
    op.record.objective_id = std::string("o").append(std::to_string(i));
    op.record.objective_text =
        verbs[i % verbs.size()] + " co2 " + std::to_string(i * 5) + " pct";
    op.record.fields["Amount"] = std::to_string(i * 5) + "%";
    if (i % 2 == 0) {
      op.record.fields["Deadline"] = std::to_string(2030 + (i % 7));
    }
    ops.push_back(std::move(op));
  }
  return ops;
}

DbOptions TestOptions(storage::Env* env) {
  DbOptions options;
  options.env = env;
  options.background_seal = false;  // Seals happen at exact workload points.
  options.seal_threshold = 0;
  options.wal_fsync_interval = 1;
  return options;
}

/// Runs the workload against `dir` through `env`, ignoring failures (the
/// env may "crash" at any byte): Open, insert the first `flush_after` ops,
/// Flush (seals them into a segment), insert the rest.
void RunWorkload(storage::Env* env, const std::string& dir,
                 const std::vector<WorkloadOp>& ops, size_t flush_after,
                 int num_shards) {
  ObjectiveDatabase db(num_shards, TestOptions(env));
  if (!db.Open(dir).ok()) return;
  for (size_t i = 0; i < ops.size(); ++i) {
    if (i == flush_after) (void)db.Flush();
    db.Insert(ops[i].record, ops[i].company);
  }
}

std::string TestDir(const std::string& name) {
  return (std::filesystem::temp_directory_path() /
          ("goalex_fault_test_" + name))
      .string();
}

TEST(StorageFaultTest, KillAtEveryWriteOffsetRecoversAnExactPrefix) {
  std::vector<WorkloadOp> ops = WorkloadOps(8);
  const size_t kFlushAfter = 5;
  std::string dir = TestDir("kill_sweep");

  // Reference pass: total bytes the complete workload writes, and the
  // expected ExportCsv for every possible surviving prefix.
  std::filesystem::remove_all(dir);
  storage::FaultInjectionEnv reference_env(storage::Env::Default());
  RunWorkload(&reference_env, dir, ops, kFlushAfter, /*num_shards=*/1);
  uint64_t total_bytes = reference_env.TotalBytesWritten();
  ASSERT_GT(total_bytes, 0u);
  ASSERT_LT(total_bytes, 60000u) << "workload grew; sweep would crawl";

  std::vector<std::string> reference_csv;  // [k] = CSV of rows 0..k-1.
  {
    ObjectiveDatabase reference(1);
    reference_csv.push_back(reference.ExportCsv(kKinds));
    for (const WorkloadOp& op : ops) {
      reference.Insert(op.record, op.company);
      reference_csv.push_back(reference.ExportCsv(kKinds));
    }
  }

  size_t previous_prefix = 0;
  bool saw_zero = false;
  bool saw_all = false;
  for (uint64_t budget = 0; budget <= total_bytes; ++budget) {
    std::filesystem::remove_all(dir);
    storage::FaultInjectionEnv fault(storage::Env::Default());
    fault.SetWriteBudget(static_cast<int64_t>(budget));
    RunWorkload(&fault, dir, ops, kFlushAfter, 1);

    // Recover from whatever survived, read-write (repairs torn WAL tails).
    ObjectiveDatabase recovered(1, TestOptions(storage::Env::Default()));
    ASSERT_TRUE(recovered.Open(dir).ok()) << "budget " << budget;
    std::vector<DbRow> rows = recovered.SnapshotRows();

    // The surviving rows are exactly ids 0..k-1 — never a gap, never a
    // torn row, never reordering.
    size_t prefix = rows.size();
    ASSERT_LE(prefix, ops.size()) << "budget " << budget;
    for (size_t i = 0; i < prefix; ++i) {
      ASSERT_EQ(rows[i].row_id, static_cast<int64_t>(i))
          << "budget " << budget;
    }
    EXPECT_EQ(recovered.ExportCsv(kKinds), reference_csv[prefix])
        << "budget " << budget;

    // Durability is monotone in the crash point.
    EXPECT_GE(prefix, previous_prefix) << "budget " << budget;
    previous_prefix = prefix;
    if (prefix == 0) saw_zero = true;
    if (prefix == ops.size()) saw_all = true;

    // The recovered store accepts new rows, continuing the id sequence.
    int64_t next = recovered.Insert(ops[0].record, ops[0].company);
    EXPECT_EQ(next, static_cast<int64_t>(prefix)) << "budget " << budget;
  }
  EXPECT_TRUE(saw_zero);
  EXPECT_TRUE(saw_all);
  std::filesystem::remove_all(dir);
}

/// The upsert feed of the crash sweep: each op changes the store (so every
/// prefix has its own ExportCsv), and together they cover an in-place
/// restatement, a Flush, a restatement of a sealed row (supersede) and an
/// in-place restatement after the Flush.
struct UpsertOp {
  std::string company;
  data::DetailRecord record;
};

std::vector<UpsertOp> UpsertOps() {
  auto op = [](const std::string& company, const std::string& action,
               const std::string& qualifier, const std::string& amount) {
    UpsertOp result;
    result.company = company;
    result.record.objective_text =
        action + " " + qualifier + " by " + amount;
    result.record.fields["Action"] = action;
    result.record.fields["Qualifier"] = qualifier;
    result.record.fields["Amount"] = amount;
    return result;
  };
  return {
      op("Acme", "cut", "co2", "10%"),     // 0: new, id 0
      op("Beta", "reuse", "water", "5%"),  // 1: new, id 1
      op("Acme", "cut", "co2", "20%"),     // 2: in place, id 0 -> v2
      op("Gamma", "plant", "trees", "1k"), // 3: new, id 2
      // --- Flush: ids 0..2 are sealed ---
      op("Beta", "reuse", "water", "8%"),  // 4: supersedes id 1 -> id 3
      op("Acme", "audit", "sites", "3"),   // 5: new, id 4
      op("Acme", "audit", "sites", "4"),   // 6: in place, id 4 -> v2
      op("Acme", "cut", "co2", "30%"),     // 7: supersedes id 0 -> id 5
  };
}
constexpr size_t kUpsertFlushAfter = 4;
const std::vector<std::string> kUpsertKinds = {"Amount", kVersionField,
                                               kSequenceField};

DbOptions UpsertTestOptions(storage::Env* env) {
  DbOptions options = TestOptions(env);
  options.track_upserts = true;
  return options;
}

/// Feeds `ops` (sequence = position) to `db`, calling Flush before op
/// `flush_after`; `after_each(k)` runs once k ops are applied.
void RunUpserts(ObjectiveDatabase& db, const std::vector<UpsertOp>& ops,
                const std::function<void(size_t)>& after_each) {
  after_each(0);
  for (size_t i = 0; i < ops.size(); ++i) {
    if (i == kUpsertFlushAfter) (void)db.Flush();
    db.Upsert(ops[i].record, ops[i].company, "doc", 1,
              static_cast<int64_t>(i));
    after_each(i + 1);
  }
}

TEST(StorageFaultTest, UpsertKillAtEveryWriteOffsetRecoversAnExactPrefix) {
  std::vector<UpsertOp> ops = UpsertOps();
  std::string dir = TestDir("upsert_kill_sweep");

  // Oracle: a never-crashed store fed the same ops, its ExportCsv after
  // each prefix. Every op changes the store, so the prefixes are distinct.
  std::vector<std::string> reference_csv;
  std::filesystem::remove_all(dir);
  storage::FaultInjectionEnv reference_env(storage::Env::Default());
  {
    ObjectiveDatabase reference(1, UpsertTestOptions(&reference_env));
    ASSERT_TRUE(reference.Open(dir).ok());
    RunUpserts(reference, ops, [&](size_t) {
      reference_csv.push_back(reference.ExportCsv(kUpsertKinds));
    });
    EXPECT_EQ(reference.superseded_count(), 2u);
  }
  uint64_t total_bytes = reference_env.TotalBytesWritten();
  ASSERT_GT(total_bytes, 0u);
  ASSERT_LT(total_bytes, 60000u) << "workload grew; sweep would crawl";
  std::map<std::string, size_t> prefix_of;
  for (size_t k = 0; k < reference_csv.size(); ++k) {
    ASSERT_TRUE(prefix_of.emplace(reference_csv[k], k).second)
        << "prefixes " << k << " and " << prefix_of[reference_csv[k]]
        << " export the same CSV";
  }

  size_t previous_prefix = 0;
  std::set<size_t> seen;
  for (uint64_t budget = 0; budget <= total_bytes; ++budget) {
    std::filesystem::remove_all(dir);
    {
      storage::FaultInjectionEnv fault(storage::Env::Default());
      fault.SetWriteBudget(static_cast<int64_t>(budget));
      ObjectiveDatabase db(1, UpsertTestOptions(&fault));
      if (db.Open(dir).ok()) RunUpserts(db, ops, [](size_t) {});
    }

    ObjectiveDatabase recovered(1,
                                UpsertTestOptions(storage::Env::Default()));
    ASSERT_TRUE(recovered.Open(dir).ok()) << "budget " << budget;
    auto it = prefix_of.find(recovered.ExportCsv(kUpsertKinds));
    ASSERT_NE(it, prefix_of.end())
        << "budget " << budget << " recovered a state no prefix produces:\n"
        << recovered.ExportCsv(kUpsertKinds);
    const size_t prefix = it->second;
    // Durability is monotone in the crash point.
    EXPECT_GE(prefix, previous_prefix) << "budget " << budget;
    previous_prefix = prefix;
    seen.insert(prefix);
  }
  // With an fsync per record, every prefix is the outcome of some crash.
  EXPECT_EQ(seen.size(), ops.size() + 1);
  std::filesystem::remove_all(dir);
}

TEST(StorageFaultTest, KillSweepKeepsEveryShardPrefixConsistent) {
  std::vector<WorkloadOp> ops = WorkloadOps(9);
  const size_t kFlushAfter = 6;
  const int kShards = 4;
  std::string dir = TestDir("kill_sweep_shards");

  std::filesystem::remove_all(dir);
  storage::FaultInjectionEnv reference_env(storage::Env::Default());
  RunWorkload(&reference_env, dir, ops, kFlushAfter, kShards);
  uint64_t total_bytes = reference_env.TotalBytesWritten();
  ASSERT_GT(total_bytes, 0u);

  // Reference rows, with the ids serial insertion assigns.
  std::vector<DbRow> reference;
  {
    ObjectiveDatabase db(kShards);
    for (const WorkloadOp& op : ops) db.Insert(op.record, op.company);
    reference = db.SnapshotRows();
  }
  ASSERT_EQ(reference.size(), ops.size());

  // Sample every 3rd byte to bound the sweep; the single-shard test is the
  // byte-exact one.
  for (uint64_t budget = 0; budget <= total_bytes; budget += 3) {
    std::filesystem::remove_all(dir);
    storage::FaultInjectionEnv fault(storage::Env::Default());
    fault.SetWriteBudget(static_cast<int64_t>(budget));
    RunWorkload(&fault, dir, ops, kFlushAfter, kShards);

    ObjectiveDatabase recovered(kShards, TestOptions(storage::Env::Default()));
    ASSERT_TRUE(recovered.Open(dir).ok()) << "budget " << budget;
    std::vector<DbRow> rows = recovered.SnapshotRows();

    // Every recovered row matches the reference row of the same id, and
    // the recovered id set is prefix-closed per company shard: a surviving
    // row implies every earlier row of its company survived too (each
    // shard's WAL and segments are strictly ordered).
    std::set<int64_t> ids;
    for (const DbRow& row : rows) {
      ASSERT_GE(row.row_id, 0);
      ASSERT_LT(row.row_id, static_cast<int64_t>(reference.size()));
      const DbRow& expected = reference[static_cast<size_t>(row.row_id)];
      EXPECT_EQ(row.company, expected.company) << "budget " << budget;
      EXPECT_EQ(row.record.objective_text, expected.record.objective_text);
      EXPECT_EQ(row.record.fields, expected.record.fields);
      ids.insert(row.row_id);
    }
    for (const DbRow& row : rows) {
      for (const DbRow& earlier : reference) {
        if (earlier.company == row.company && earlier.row_id < row.row_id) {
          EXPECT_TRUE(ids.count(earlier.row_id))
              << "budget " << budget << ": row " << row.row_id
              << " survived but earlier same-shard row " << earlier.row_id
              << " did not";
        }
      }
    }
  }
  std::filesystem::remove_all(dir);
}

TEST(StorageFaultTest, CorruptionFuzzerRecoversSubsetOrFailsCleanly) {
  std::string dir = TestDir("fuzz");
  std::filesystem::remove_all(dir);

  // Build a valid attached store: one sealed segment per shard plus live
  // WAL rows.
  std::vector<WorkloadOp> ops = WorkloadOps(40);
  RunWorkload(storage::Env::Default(), dir, ops, /*flush_after=*/30,
              /*num_shards=*/2);

  // Pristine reference.
  std::map<int64_t, DbRow> reference;
  {
    ObjectiveDatabase db(2);
    ASSERT_TRUE(db.Load(dir).ok());
    for (DbRow& row : db.SnapshotRows()) {
      int64_t id = row.row_id;
      reference.emplace(id, std::move(row));
    }
  }
  ASSERT_EQ(reference.size(), ops.size());

  // Snapshot every file so each iteration starts pristine.
  std::map<std::string, std::string> pristine;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    auto content = storage::Env::Default()->ReadFileToString(
        entry.path().string());
    ASSERT_TRUE(content.ok());
    pristine[entry.path().filename().string()] = std::move(*content);
  }
  ASSERT_GE(pristine.size(), 4u);  // MANIFEST, 2 segments, WALs.

  std::mt19937_64 rng(20260808);
  std::vector<std::string> names;
  for (const auto& [name, bytes] : pristine) names.push_back(name);

  int ok_count = 0, dataloss_count = 0;
  for (int iteration = 0; iteration < 300; ++iteration) {
    // Restore, then mutate one file.
    for (const auto& [name, bytes] : pristine) {
      auto file = storage::Env::Default()->NewWritableFile(dir + "/" + name,
                                                           /*truncate=*/true);
      ASSERT_TRUE(file.ok());
      ASSERT_TRUE((*file)->Append(bytes).ok());
    }
    const std::string& victim = names[rng() % names.size()];
    std::string mutated = pristine.at(victim);
    switch (rng() % 4) {
      case 0:  // Bit flip.
        if (!mutated.empty()) {
          mutated[rng() % mutated.size()] ^= uint8_t{1} << (rng() % 8);
        }
        break;
      case 1:  // Truncate.
        mutated.resize(mutated.empty() ? 0 : rng() % mutated.size());
        break;
      case 2: {  // Zero-fill a range.
        if (!mutated.empty()) {
          size_t begin = rng() % mutated.size();
          size_t len = 1 + rng() % 64;
          for (size_t i = begin; i < mutated.size() && i < begin + len; ++i) {
            mutated[i] = '\0';
          }
        }
        break;
      }
      default: {  // Append garbage.
        size_t len = 1 + rng() % 256;
        for (size_t i = 0; i < len; ++i) {
          mutated.push_back(static_cast<char>(rng() & 0xFF));
        }
        break;
      }
    }
    {
      auto file = storage::Env::Default()->NewWritableFile(dir + "/" + victim,
                                                           true);
      ASSERT_TRUE(file.ok());
      ASSERT_TRUE((*file)->Append(mutated).ok());
    }

    // Loading the damaged store must either succeed with a valid subset of
    // the reference rows or fail with DataLoss — never crash (ASAN is
    // watching) and never serve fabricated data.
    ObjectiveDatabase db(2);
    Status loaded = db.Load(dir);
    if (loaded.ok()) {
      ++ok_count;
      for (const DbRow& row : db.SnapshotRows()) {
        auto it = reference.find(row.row_id);
        ASSERT_NE(it, reference.end())
            << "iteration " << iteration << " fabricated row " << row.row_id;
        EXPECT_EQ(row.company, it->second.company);
        EXPECT_EQ(row.record.objective_text,
                  it->second.record.objective_text);
        EXPECT_EQ(row.record.fields, it->second.record.fields);
      }
      // Queries over a damaged-but-recovered store stay well-formed.
      (void)db.QueryText("co2", TextFilter{});
      (void)db.CountPerCompany();
    } else {
      ++dataloss_count;
      EXPECT_TRUE(loaded.code() == StatusCode::kDataLoss ||
                  loaded.code() == StatusCode::kNotFound)
          << "iteration " << iteration << ": " << loaded.message();
    }
  }
  // The fuzzer must actually exercise both outcomes.
  EXPECT_GT(ok_count, 10);
  EXPECT_GT(dataloss_count, 10);
  std::filesystem::remove_all(dir);
}

TEST(StorageFaultTest, TornWalTailIsRepairedAndAppendsContinue) {
  std::string dir = TestDir("torn_tail");
  std::filesystem::remove_all(dir);
  std::vector<WorkloadOp> ops = WorkloadOps(6);

  // Crash 3 bytes short of the full workload: the last WAL record is torn.
  storage::FaultInjectionEnv probe(storage::Env::Default());
  RunWorkload(&probe, dir, ops, /*flush_after=*/ops.size(), 1);
  uint64_t total = probe.TotalBytesWritten();
  std::filesystem::remove_all(dir);
  storage::FaultInjectionEnv fault(storage::Env::Default());
  fault.SetWriteBudget(static_cast<int64_t>(total - 3));
  RunWorkload(&fault, dir, ops, ops.size(), 1);
  ASSERT_TRUE(fault.killed());

  // Recovery truncates the torn record and the store keeps working.
  ObjectiveDatabase recovered(1, TestOptions(storage::Env::Default()));
  ASSERT_TRUE(recovered.Open(dir).ok());
  size_t prefix = recovered.size();
  EXPECT_EQ(prefix, ops.size() - 1);
  recovered.Insert(ops.back().record, ops.back().company);

  // A second recovery sees the repaired log plus the new row.
  ObjectiveDatabase again(1, TestOptions(storage::Env::Default()));
  ASSERT_TRUE(again.Open(dir).ok());
  EXPECT_EQ(again.size(), ops.size());
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace goalex::core
