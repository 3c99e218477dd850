#ifndef GOALEX_CORE_DATABASE_H_
#define GOALEX_CORE_DATABASE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <shared_mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "data/schema.h"
#include "obs/metrics.h"
#include "storage/env.h"
#include "storage/manifest.h"
#include "storage/row.h"
#include "storage/segment.h"
#include "storage/wal.h"

namespace goalex::core {

/// A stored row of the structured sustainability database the paper
/// motivates (Section 2.4): the extracted details plus source metadata, so
/// domain experts can index, filter, and compare objectives across
/// companies and track them over time. Defined at the storage layer (the
/// WAL and segment codecs speak it directly) and re-exported here as the
/// public query-result type.
using DbRow = storage::Row;

/// Tuning knobs of ObjectiveDatabase (DESIGN.md §12).
struct DbOptions {
  /// Rows a shard's growing segment may hold before a background seal is
  /// requested (only meaningful once Open() has attached a directory).
  /// <= 0 disables automatic sealing; Flush() still seals on demand.
  int64_t seal_threshold = 64 * 1024;

  /// WAL durability policy: 1 fsyncs after every record (default,
  /// crash-safe), N > 1 after every N-th record (bounded loss window,
  /// higher throughput), 0 never (the OS decides). Mirrors
  /// core::ServeConfig::db_wal_fsync_interval.
  int32_t wal_fsync_interval = 1;

  /// Run sealing on a dedicated background thread. When false, sealing
  /// happens only inside Flush().
  bool background_seal = true;

  /// Storage environment. Null means storage::Env::Default(); tests inject
  /// a storage::FaultInjectionEnv here to crash the database at an exact
  /// write offset.
  storage::Env* env = nullptr;

  /// Maintain the per-shard objective-identity map that Upsert() dedups
  /// against (DESIGN.md §15.2). Off by default: plain Insert ingest pays
  /// nothing for it. When on, Open()/Load() additionally rebuild the map
  /// (and the superseded-row overlay) by scanning every loaded row.
  bool track_upserts = false;
};

/// The reserved field kind Upsert() stores an objective's version number
/// under ("1", "2", ...). Rides the ordinary field codec, so versions
/// survive the WAL, sealed segments, and snapshots without a format bump;
/// exportable like any other kind (e.g. ExportCsv({"_version"})).
inline constexpr char kVersionField[] = "_version";

/// The version of `record` as stored by Upsert(); 1 when the row has no
/// _version field (plain Insert rows, pre-upsert data).
int32_t RecordVersion(const data::DetailRecord& record);

/// The reserved field kind Upsert() stores the delivery's source sequence
/// under when the caller provides one. Persisting it on the row (same
/// codec ride-along as _version) is what makes feed replay idempotent
/// across reopen: a replayed *earlier* publication of a restated target
/// carries a sequence below the live row's and is dropped as stale
/// instead of ping-ponging the row back through its history.
inline constexpr char kSequenceField[] = "_seq";

/// The source sequence of `record` as stored by Upsert(); -1 when the row
/// has no _seq field (sequence-less upserts, plain Insert rows).
int64_t RecordSequence(const data::DetailRecord& record);

/// The dedup identity of an objective row: company + normalized action
/// lemma (values::NormalizeAction) + lowercased qualifier, '\x1f'-joined.
/// Two statements of the same target — "Reduce water usage by 20% by
/// 2030" restated as "Reducing water usage by 35% by 2035" — share a key
/// and therefore one versioned row. Records carrying neither an Action
/// nor a Qualifier field (e.g. NetZeroFacts rows) fall back to the
/// lowercased objective text, so unextractable rows never collapse into
/// one identity per company.
std::string ObjectiveUpsertKey(const std::string& company,
                               const data::DetailRecord& record);

/// What Upsert() did with a record.
struct UpsertResult {
  int64_t row_id = -1;   ///< The live row holding this objective now.
  int32_t version = 1;   ///< Its version after the call.
  bool inserted = false; ///< New objective identity: fresh row, version 1.
  bool updated = false;  ///< Existing identity, content changed: bumped.
  /// Delivery's source sequence was older than the live row's: a replayed
  /// historical publication. Dropped without a write (implies unchanged()).
  bool stale = false;
  /// !inserted && !updated: byte-identical restatement or stale replay;
  /// no write at all.
  bool unchanged() const { return !inserted && !updated; }
};

/// Company / field / deadline constraints combined (AND) with a QueryText
/// term match. Empty members are inactive.
struct TextFilter {
  std::string company;     ///< Exact company name.
  std::string with_field;  ///< Field kind that must be non-empty.
  std::optional<int> min_deadline_year;
  std::optional<int> max_deadline_year;
};

/// Thread-safe sharded serving store for extracted sustainability
/// objectives (DESIGN.md §10, storage engine §12).
///
/// Rows are partitioned into shards by a hash of the company name. Each
/// shard is a small LSM: a mutable *growing* segment (a
/// storage::GrowingSegment, which indexes each row as it is written,
/// guarded by the shard's reader/writer lock) in front of a stack of
/// immutable *sealed* segments — columnar, index-complete files that
/// Load()/Open() mmap back in without deserializing, so a million-row cold
/// start is a CRC pass over the mapped bytes instead of a row-by-row
/// rebuild. A seal serializes the growing segment's own index; no row is
/// indexed twice.
///
/// Durability: Open(dir) attaches a directory read-write. Every Insert is
/// then appended to the owning shard's write-ahead log (per-record CRC;
/// fsync policy via DbOptions::wal_fsync_interval) before it becomes
/// visible. When a growing segment passes DbOptions::seal_threshold, a
/// background thread seals it: segment file (temp + fsync + rename), then
/// manifest commit, then WAL shrink — in that order, so a crash at any
/// byte leaves a prefix-consistent store (replay dedups rows whose id is
/// already covered by a sealed segment; orphan segment files are ignored).
///
/// Queries merge the posting lists of every segment, sealed or growing:
///
///   - by company (ByCompany, CountPerCompany, FieldCoverageByCompany),
///   - by non-empty field kind (WithField),
///   - by exact field value (WhereFieldEquals),
///   - by normalized deadline year via values::NormalizeDeadlineYear
///     (ByDeadlineYear, DeadlineYearBetween),
///   - by full text over objective text and field values (QueryText:
///     AND of terms and "quoted phrases", optional TextFilter).
///
/// Every query returns copies of rows (or plain row ids), never pointers
/// into internal storage, so results stay valid across later inserts and
/// seals. Row ids are assigned from a global counter under the owning
/// shard's lock; serial insertion yields the sequential ids 0, 1, 2, ...
/// and every query result is sorted by row id, so single-threaded behavior
/// is deterministic and matches the pre-storage-engine store exactly.
class ObjectiveDatabase {
 public:
  /// Default shard count: enough to keep a machine-sized worker pool from
  /// serializing on one lock, small enough that per-shard overhead is noise.
  static constexpr int kDefaultShards = 16;

  explicit ObjectiveDatabase(int num_shards = kDefaultShards,
                             DbOptions options = DbOptions());

  ObjectiveDatabase(const ObjectiveDatabase&) = delete;
  ObjectiveDatabase& operator=(const ObjectiveDatabase&) = delete;

  /// Stops the background sealer. Does not flush: an attached database
  /// whose growing rows are only in the WAL recovers them on next Open().
  ~ObjectiveDatabase();

  /// Inserts a record with source metadata; returns its row id.
  /// Thread-safe: concurrent inserts to different companies usually land on
  /// different shards and proceed in parallel. When attached, the row is
  /// WAL-logged before it becomes visible.
  int64_t Insert(const data::DetailRecord& record,
                 const std::string& company,
                 const std::string& document = "", int page = 0);

  /// Versioned insert-or-update (requires DbOptions::track_upserts; the
  /// streaming pipeline's write path, DESIGN.md §15.2). The record's
  /// ObjectiveUpsertKey decides its fate:
  ///
  ///   - unseen key: inserted as a fresh row at version 1;
  ///   - known key, identical content (metadata, text, and fields all
  ///     equal): no write at all — replaying a feed is idempotent;
  ///   - known key, changed content: the version is bumped. A still-
  ///     growing live row is updated *in place* (same row id, WAL re-logs
  ///     the id); a sealed live row is immutable, so the new version gets
  ///     a fresh row id and the sealed row is masked from every query via
  ///     the superseded overlay (Get(old_id) still returns it — that is
  ///     the version history).
  ///
  /// `source_sequence` (>= 0) is the delivery's position in its source
  /// feed; it is stored on the row under kSequenceField and guards
  /// against out-of-order redelivery: a known key whose live row carries
  /// a *newer* sequence drops the upsert as stale (UpsertResult::stale)
  /// instead of regressing the row to older content. Feed replay is
  /// therefore idempotent even for multiply-restated targets — earlier
  /// publications replay as stale, the final one as byte-identical. Pass
  /// -1 (default) for sequence-less upserts; mixing sequenced and
  /// sequence-less upserts on one key is not meaningful (the _seq field
  /// itself participates in the content comparison).
  ///
  /// Thread-safe like Insert. Concurrent upserts of the same key are
  /// serialized by the shard lock.
  UpsertResult Upsert(const data::DetailRecord& record,
                      const std::string& company,
                      const std::string& document = "", int page = 0,
                      int64_t source_sequence = -1);

  /// Total row count (exact; maintained atomically).
  size_t size() const { return size_.load(std::memory_order_acquire); }

  /// Rows visible to queries: size() minus superseded (masked) rows.
  size_t live_size() const {
    return size() - superseded_count_.load(std::memory_order_acquire);
  }

  /// Sealed rows masked by a newer version of the same objective.
  size_t superseded_count() const {
    return superseded_count_.load(std::memory_order_acquire);
  }

  int num_shards() const { return static_cast<int>(shards_.size()); }

  /// Row count of each shard — sealed plus growing (for balance inspection
  /// and the db.rows_per_shard gauge).
  std::vector<size_t> RowsPerShard() const;

  /// Looks up one row by id. O(num_shards * (segments + log rows)).
  std::optional<DbRow> Get(int64_t row_id) const;

  /// All rows of one company, sorted by row id. Indexed: touches only the
  /// company's shard.
  std::vector<DbRow> ByCompany(const std::string& company) const;

  /// Rows whose extracted `kind` field is non-empty (e.g., all objectives
  /// with a Deadline, for commitment tracking), sorted by row id. Indexed.
  std::vector<DbRow> WithField(const std::string& kind) const;

  /// Rows whose `kind` field equals `value` exactly, sorted by row id.
  /// Indexed.
  std::vector<DbRow> WhereFieldEquals(const std::string& kind,
                                      const std::string& value) const;

  /// Rows whose Deadline (or NetZeroFacts TargetYear) normalizes to `year`
  /// via values::NormalizeDeadlineYear, sorted by row id. Indexed.
  std::vector<DbRow> ByDeadlineYear(int year) const;

  /// Rows whose normalized deadline year lies in [min_year, max_year],
  /// sorted by row id — the "commitments due by 2030" query of the
  /// deployment scenarios.
  std::vector<DbRow> DeadlineYearBetween(int min_year, int max_year) const;

  /// Full-text query over objective text and extracted field values,
  /// sorted by row id. `query` is parsed into bare terms and "quoted
  /// phrases" (tokenized with src/text's WordTokenizer, ASCII-lowercased).
  /// A row matches when every term appears somewhere in its text (objective
  /// text or any non-empty field value), every phrase appears contiguously
  /// within one of those texts, and `filter`'s active constraints hold.
  /// Terms that tokenize to nothing (punctuation-only) are ignored; a query
  /// with no effective terms returns only what `filter` alone selects — or
  /// nothing when the filter is empty too. Served from the inverted text
  /// index of every segment, sealed or growing; no row scan.
  std::vector<DbRow> QueryText(const std::string& query,
                               const TextFilter& filter = TextFilter()) const;

  /// All distinct company names, sorted.
  std::vector<std::string> Companies() const;

  /// Objective counts per company (Table 5's last column). Indexed.
  std::map<std::string, int64_t> CountPerCompany() const;

  /// Fraction of rows per company carrying the given field — the
  /// "specificity" signal the deployment discussion derives from Table 6
  /// (companies quoting amounts/deadlines are more specific). Indexed.
  std::map<std::string, double> FieldCoverageByCompany(
      const std::string& kind) const;

  /// A consistent copy of every row, sorted by row id.
  std::vector<DbRow> SnapshotRows() const;

  /// Exports all rows (sorted by row id) as CSV with the given field
  /// columns. Fields containing commas, quotes, CR, or LF are quoted.
  std::string ExportCsv(const std::vector<std::string>& kinds) const;

  /// Attaches `dir` read-write (creating it if needed) and recovers
  /// whatever it holds: a v2 manifest (sealed segments are mmap'ed, shard
  /// WALs replayed — rows already covered by a sealed segment are skipped,
  /// a torn or corrupt WAL tail is truncated), a legacy v1 objectives.db
  /// (loaded, then migrated to v2 by an immediate Flush), or nothing (a
  /// fresh database). After Open, inserts are WAL-logged and the
  /// background sealer (if enabled) keeps growing segments bounded.
  /// The shard count is adopted from an existing manifest.
  /// Fails with FailedPrecondition when already attached, DataLoss when the
  /// directory holds an unrecoverable store.
  Status Open(const std::string& dir);

  /// Seals every non-empty growing segment to the attached directory and
  /// syncs the manifest, leaving the WALs empty. FailedPrecondition when
  /// not attached.
  Status Flush();

  /// True after a successful Open().
  bool attached() const { return attached_; }

  /// Sealed segments currently serving, across all shards.
  size_t SealedSegmentCount() const;

  /// Writes a complete, self-contained v2 snapshot of the current contents
  /// into `dir` (segment per non-empty shard + manifest, committed via
  /// temp + rename), independent of any attached directory. Stale shard
  /// WALs in `dir` are removed so a later Load sees exactly this snapshot.
  /// FailedPrecondition when `dir` is the attached directory (use Flush).
  Status Save(const std::string& dir) const;

  /// Writes the legacy v1 single-file snapshot (`<dir>/objectives.db`) —
  /// kept as the cold-start baseline bench_micro_db compares mmap loading
  /// against, and for downgrade escapes.
  Status SaveLegacy(const std::string& dir) const;

  /// Replaces the database contents from `dir`, read-only: a v2 manifest
  /// (sealed segments mmap'ed in place — near-instant even at millions of
  /// rows) or a legacy v1 objectives.db. Does not attach: WALs in `dir`
  /// are replayed into memory but never written, and subsequent inserts
  /// stay in memory (row ids continue above the highest loaded id).
  /// NotFound when `dir` holds neither format.
  Status Load(const std::string& dir);

 private:
  struct Shard {
    mutable std::shared_mutex mu;
    /// Rows not yet sealed, indexed as they are written.
    storage::GrowingSegment growing;
    /// The growing segment an in-flight seal froze (or a failed seal left
    /// behind for the next one to retry). Immutable: it keeps serving
    /// queries until the seal commits and its sealed file takes its place,
    /// and Upsert treats its rows as sealed (DESIGN.md §12.6).
    std::shared_ptr<const storage::GrowingSegment> frozen;
    /// Immutable mmap-backed segments, in seal order (ascending row-id
    /// ranges, disjoint). shared_ptr so queries can keep serving a segment
    /// snapshot without holding the shard lock.
    std::vector<std::shared_ptr<storage::SealedSegment>> sealed;
    /// Highest row id covered by `sealed` (-1 when none): WAL replay drops
    /// records at or below it.
    int64_t max_sealed_id = -1;
    /// Armed by Open(); null when detached.
    std::unique_ptr<storage::WalWriter> wal;

    // --- Versioned-upsert state (populated only with track_upserts) ------
    /// ObjectiveUpsertKey -> row id of the live (newest) version.
    std::unordered_map<std::string, int64_t> latest_by_key;
    /// Rows replaced by a newer version that could not be updated in place
    /// (sealed at update time, or stale duplicates found on load). Keyed
    /// by row id, holding a full copy of the masked row so count-style
    /// queries can subtract its contributions without touching a segment.
    /// Every query path filters against this map; Get() alone serves the
    /// masked rows as version history.
    std::unordered_map<int64_t, DbRow> superseded;
  };

  size_t ShardIndexFor(const std::string& company) const;

  /// Reads the row with id `row_id` from any segment of `shard` (sealed,
  /// frozen, growing). Caller holds at least the shared lock.
  static std::optional<DbRow> ReadRowLocked(const Shard& shard,
                                            int64_t row_id);

  /// Calls `fn` on every segment of `shard` in row-id order: sealed, then
  /// frozen, then growing (`fn` takes either segment type). Caller holds
  /// at least the shared lock.
  template <typename Fn>
  static void ForEachSegment(const Shard& shard, Fn&& fn) {
    for (const auto& segment : shard.sealed) fn(*segment);
    if (shard.frozen != nullptr) fn(*shard.frozen);
    fn(shard.growing);
  }

  /// WAL-logs `row` when attached (shared by Insert and Upsert). Caller
  /// holds the exclusive lock.
  void LogRowLocked(Shard& shard, const DbRow& row);

  /// Rebuilds every shard's latest_by_key map and superseded overlay from
  /// the loaded rows: per key the highest (version, row id) pair is live,
  /// every other row is masked. Called by Open()/Load() when
  /// track_upserts is on — the overlay has no on-disk form; it is derived
  /// state, which also makes it self-healing after crashes.
  void BuildUpsertState();

  /// Copies every unmasked row of one shard (sealed segments in order,
  /// then frozen, then growing), ascending by row id.
  std::vector<DbRow> CollectShardRows(const Shard& shard) const;

  /// Replaces all shards with `count` fresh ones (detached state is
  /// untouched). Caller must ensure no concurrent access.
  void ResetShards(int count);

  /// Loads a v2 store described by `manifest` from `dir_`. In `read_write`
  /// mode torn WAL tails are truncated on disk; otherwise the directory is
  /// never written.
  Status LoadManifest(const storage::Manifest& manifest, bool read_write);

  /// Loads the legacy v1 snapshot file at `path` into the growing
  /// segments.
  Status LoadLegacyFile(const std::string& path);

  /// Seals shard `index`: freezes its growing segment, serializes it into
  /// a new segment file, commits the manifest, and shrinks the WAL
  /// (DESIGN.md §12.6 ordering). A segment a failed seal left frozen is
  /// sealed first. No-op for an empty shard.
  Status SealShard(size_t index);

  /// Writes `frozen` (shard `index`'s frozen segment) as a segment file and
  /// commits it in its place.
  Status SealFrozen(
      size_t index,
      const std::shared_ptr<const storage::GrowingSegment>& frozen);

  /// Queues shard `index` for the background sealer (or ignores the
  /// request when sealing is synchronous-only).
  void RequestSeal(size_t index);

  /// Rewrites shard `index`'s WAL to hold only the still-growing rows.
  /// Best-effort: on any failure the previous WAL stays in place, which is
  /// correct (replay drops rows already covered by a sealed segment).
  /// Caller holds the shard's exclusive lock.
  void RewriteWalLocked(Shard& shard, size_t index);

  void SealerLoop();
  void StopSealer();

  std::string WalPath(size_t shard_index) const;

  /// Arms `timer` with the query-latency histogram and bumps the query
  /// counter when observability is active.
  obs::Histogram* QueryHistogram() const;

  void UpdateRowGauges(size_t total) const;

  DbOptions options_;
  storage::Env* env_;  ///< Never null (DbOptions::env or Env::Default()).
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<int64_t> next_id_{0};
  std::atomic<size_t> size_{0};
  /// Sum of every shard's superseded overlay size.
  std::atomic<size_t> superseded_count_{0};

  // --- Attached (read-write) state -----------------------------------------
  std::atomic<bool> attached_{false};
  std::string dir_;
  std::atomic<uint64_t> next_segment_{0};
  /// Guards manifest_ and the on-disk MANIFEST commit sequence.
  mutable std::mutex manifest_mu_;
  storage::Manifest manifest_;

  // --- Background sealer ---------------------------------------------------
  std::mutex seal_mu_;
  std::condition_variable seal_cv_;
  std::set<size_t> seal_pending_;
  bool stop_sealer_ = false;
  std::thread sealer_;
  /// Serializes whole seal operations (background sealer vs. Flush), so a
  /// shard is never snapshotted by two concurrent seals.
  std::mutex seal_op_mu_;

  // Observability handles, resolved once at construction; all null when
  // instrumentation is compiled out or disabled (DESIGN.md §7 idiom).
  obs::Histogram* insert_seconds_ = nullptr;
  obs::Histogram* query_seconds_ = nullptr;
  obs::Histogram* mmap_load_seconds_ = nullptr;
  obs::Counter* insert_counter_ = nullptr;
  obs::Counter* query_counter_ = nullptr;
  obs::Counter* wal_append_counter_ = nullptr;
  obs::Counter* wal_error_counter_ = nullptr;
  obs::Counter* wal_replayed_counter_ = nullptr;
  obs::Counter* wal_truncated_bytes_counter_ = nullptr;
  obs::Counter* seal_counter_ = nullptr;
  obs::Counter* seal_error_counter_ = nullptr;
  obs::Gauge* rows_gauge_ = nullptr;
  obs::Gauge* rows_per_shard_gauge_ = nullptr;
  obs::Gauge* segments_gauge_ = nullptr;
  obs::Counter* upsert_inserted_counter_ = nullptr;
  obs::Counter* upsert_updated_counter_ = nullptr;
  obs::Counter* upsert_unchanged_counter_ = nullptr;
  obs::Gauge* superseded_gauge_ = nullptr;
};

}  // namespace goalex::core

#endif  // GOALEX_CORE_DATABASE_H_
