// Index correctness. QueryText (and, in the parity suite, every other
// indexed query) is checked against a brute-force scan that re-derives
// term sets, phrase containment and filter predicates per row from first
// principles — the WordTokenizer definition of a term, not the index's own
// tokenizer — over generated corpora and handmade edge cases. The parity
// suite also pins the one index type (storage::GrowingSegment): queries
// agree over growing, mixed and sealed stores, and an index maintained
// through appends and in-place replacements serializes to the same bytes
// as a fresh one fed the final rows.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <map>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/string_util.h"
#include "core/database.h"
#include "data/generator.h"
#include "data/schema.h"
#include "storage/env.h"
#include "storage/row.h"
#include "storage/segment.h"
#include "text/word_tokenizer.h"

namespace goalex::core {
namespace {

const std::vector<std::string> kCompanies = {
    "Acme Corp", "Borealis",  "Cypress",  "Dynamo",  "Everline", "Fjord",
    "Gecko",     "Helix",     "Ionia",    "Juniper", "Krait",    "Lumen",
};

/// A query together with the term/phrase decomposition the brute-force
/// side uses. The terms here are the *effective* AND set: phrase terms are
/// part of it (a row must contain each phrase word before contiguity is
/// even checked), matching the documented QueryText semantics.
struct QueryCase {
  std::string query;
  std::vector<std::string> terms;
  std::vector<std::vector<std::string>> phrases;
  TextFilter filter;
};

/// Every text QueryText matches against: the objective text plus each
/// non-empty field value.
std::vector<std::string_view> RowTexts(const DbRow& row) {
  std::vector<std::string_view> texts;
  texts.push_back(row.record.objective_text);
  for (const auto& [kind, value] : row.record.fields) {
    if (!value.empty()) texts.push_back(value);
  }
  return texts;
}

/// The reference definition of the index's terms: WordTokenizer tokens
/// that hold an alphanumeric or non-ASCII byte, ASCII-lowercased.
std::vector<std::string> ReferenceTerms(std::string_view text) {
  std::vector<std::string> terms;
  for (const text::Token& token : text::WordTokenizer().Tokenize(text)) {
    bool indexable = false;
    for (char c : token.text) {
      unsigned char b = static_cast<unsigned char>(c);
      if (std::isalnum(b) || b >= 0x80) indexable = true;
    }
    if (indexable) terms.push_back(AsciiToLower(token.text));
  }
  return terms;
}

bool ReferenceContainsPhrase(std::string_view text,
                             const std::vector<std::string>& phrase) {
  std::vector<std::string> stream = ReferenceTerms(text);
  return std::search(stream.begin(), stream.end(), phrase.begin(),
                     phrase.end()) != stream.end();
}

std::unordered_set<std::string> RowTermSet(const DbRow& row) {
  std::unordered_set<std::string> terms;
  for (std::string_view text : RowTexts(row)) {
    for (std::string& term : ReferenceTerms(text)) {
      terms.insert(std::move(term));
    }
  }
  return terms;
}

bool MatchesFilter(const DbRow& row, const TextFilter& filter) {
  if (!filter.company.empty() && row.company != filter.company) return false;
  if (!filter.with_field.empty() &&
      row.record.FieldOrEmpty(filter.with_field).empty()) {
    return false;
  }
  if (filter.min_deadline_year || filter.max_deadline_year) {
    std::optional<int> year = storage::DeadlineYearOfRecord(row.record);
    if (!year) return false;
    if (filter.min_deadline_year && *year < *filter.min_deadline_year) {
      return false;
    }
    if (filter.max_deadline_year && *year > *filter.max_deadline_year) {
      return false;
    }
  }
  return true;
}

bool MatchesCase(const DbRow& row, const QueryCase& query_case,
                 const std::unordered_set<std::string>& row_terms) {
  if (!MatchesFilter(row, query_case.filter)) return false;
  // A query with no effective terms selects nothing unless the filter is
  // active.
  if (query_case.terms.empty() && query_case.phrases.empty()) {
    return !query_case.filter.company.empty() ||
           !query_case.filter.with_field.empty() ||
           query_case.filter.min_deadline_year.has_value() ||
           query_case.filter.max_deadline_year.has_value();
  }
  for (const std::string& term : query_case.terms) {
    if (!row_terms.count(term)) return false;
  }
  for (const std::vector<std::string>& phrase : query_case.phrases) {
    bool contiguous = false;
    for (std::string_view text : RowTexts(row)) {
      if (ReferenceContainsPhrase(text, phrase)) {
        contiguous = true;
        break;
      }
    }
    if (!contiguous) return false;
  }
  return true;
}

std::vector<int64_t> BruteForce(const std::vector<DbRow>& rows,
                                const QueryCase& query_case) {
  std::vector<int64_t> ids;
  for (const DbRow& row : rows) {
    if (MatchesCase(row, query_case, RowTermSet(row))) {
      ids.push_back(row.row_id);
    }
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

std::vector<int64_t> Ids(const std::vector<DbRow>& rows) {
  std::vector<int64_t> ids;
  for (const DbRow& row : rows) ids.push_back(row.row_id);
  return ids;
}

/// Inserts the generated corpus, assigning companies round-robin (the
/// generator leaves Objective::company empty).
void FillFromCorpus(ObjectiveDatabase* db, size_t count, uint64_t seed) {
  data::SustainabilityGoalsConfig config;
  config.objective_count = count;
  config.seed = seed;
  std::vector<data::Objective> corpus =
      data::GenerateSustainabilityGoals(config);
  for (size_t i = 0; i < corpus.size(); ++i) {
    data::DetailRecord record;
    record.objective_id = corpus[i].id;
    record.objective_text = corpus[i].text;
    for (const data::Annotation& annotation : corpus[i].annotations) {
      record.fields[annotation.kind] = annotation.value;
    }
    db->Insert(record, kCompanies[i % kCompanies.size()],
               "report-" + std::to_string(i % 7), static_cast<int>(i % 40));
  }
}

std::vector<QueryCase> CorpusQueries() {
  std::vector<QueryCase> cases;
  cases.push_back({"emissions", {"emissions"}, {}, {}});
  cases.push_back({"reduce 2030", {"reduce", "2030"}, {}, {}});
  cases.push_back({"CO2", {"co2"}, {}, {}});
  cases.push_back({"50", {"50"}, {}, {}});
  cases.push_back({"zz-no-such-term", {"zz-no-such-term"}, {}, {}});
  cases.push_back(
      {"\"net zero\"", {"net", "zero"}, {{"net", "zero"}}, {}});
  cases.push_back({"reduce \"supply chain\"",
                   {"reduce", "supply", "chain"},
                   {{"supply", "chain"}},
                   {}});
  {
    QueryCase with_company;
    with_company.query = "emissions";
    with_company.terms = {"emissions"};
    with_company.filter.company = "Borealis";
    cases.push_back(with_company);
  }
  {
    QueryCase with_field;
    with_field.query = "by";
    with_field.terms = {"by"};
    with_field.filter.with_field = "Deadline";
    cases.push_back(with_field);
  }
  {
    QueryCase with_years;
    with_years.query = "reduce";
    with_years.terms = {"reduce"};
    with_years.filter.min_deadline_year = 2028;
    with_years.filter.max_deadline_year = 2035;
    cases.push_back(with_years);
  }
  {
    QueryCase everything;
    everything.query = "\"per cent\" emissions";
    everything.terms = {"per", "cent", "emissions"};
    everything.phrases = {{"per", "cent"}};
    everything.filter.with_field = "Amount";
    everything.filter.max_deadline_year = 2040;
    cases.push_back(everything);
  }
  {
    QueryCase filter_only;
    filter_only.query = "";
    filter_only.filter.company = "Acme Corp";
    filter_only.filter.with_field = "Amount";
    cases.push_back(filter_only);
  }
  return cases;
}

void ExpectParity(const ObjectiveDatabase& db,
                  const std::vector<DbRow>& rows,
                  const std::vector<QueryCase>& cases,
                  const std::string& label) {
  for (const QueryCase& query_case : cases) {
    std::vector<int64_t> expected = BruteForce(rows, query_case);
    std::vector<int64_t> actual =
        Ids(db.QueryText(query_case.query, query_case.filter));
    EXPECT_EQ(actual, expected)
        << label << ": query \"" << query_case.query << "\"";
  }
}

TEST(TextIndexTest, GrowingStoreMatchesBruteForceOnGeneratedCorpus) {
  ObjectiveDatabase db(4);
  FillFromCorpus(&db, 3000, /*seed=*/7);
  std::vector<DbRow> rows = db.SnapshotRows();
  ASSERT_EQ(rows.size(), 3000u);
  ExpectParity(db, rows, CorpusQueries(), "growing");
}

TEST(TextIndexTest, SealedAndMixedStoresMatchGrowingExactly) {
  std::string dir = (std::filesystem::temp_directory_path() /
                     "goalex_text_index_test")
                        .string();
  std::filesystem::remove_all(dir);

  // Growing-only store.
  ObjectiveDatabase growing(4);
  FillFromCorpus(&growing, 2000, /*seed=*/11);
  std::vector<DbRow> rows = growing.SnapshotRows();

  // All-sealed store: Save + mmap Load.
  ASSERT_TRUE(growing.Save(dir).ok());
  ObjectiveDatabase sealed(4);
  ASSERT_TRUE(sealed.Load(dir).ok());
  ASSERT_GT(sealed.SealedSegmentCount(), 0u);
  ASSERT_EQ(sealed.size(), rows.size());

  // Mixed store: an attached database with sealed segments below live
  // growing rows (insert, Flush, insert more).
  std::string mixed_dir = dir + "_mixed";
  std::filesystem::remove_all(mixed_dir);
  DbOptions options;
  options.background_seal = false;
  ObjectiveDatabase mixed(4, options);
  ASSERT_TRUE(mixed.Open(mixed_dir).ok());
  {
    data::SustainabilityGoalsConfig config;
    config.objective_count = 2000;
    config.seed = 11;
    std::vector<data::Objective> corpus =
        data::GenerateSustainabilityGoals(config);
    for (size_t i = 0; i < corpus.size(); ++i) {
      if (i == corpus.size() * 2 / 3) {
        ASSERT_TRUE(mixed.Flush().ok());
      }
      data::DetailRecord record;
      record.objective_id = corpus[i].id;
      record.objective_text = corpus[i].text;
      for (const data::Annotation& annotation : corpus[i].annotations) {
        record.fields[annotation.kind] = annotation.value;
      }
      mixed.Insert(record, kCompanies[i % kCompanies.size()],
                   "report-" + std::to_string(i % 7),
                   static_cast<int>(i % 40));
    }
  }
  ASSERT_GT(mixed.SealedSegmentCount(), 0u);
  ASSERT_EQ(mixed.size(), rows.size());

  std::vector<QueryCase> cases = CorpusQueries();
  ExpectParity(growing, rows, cases, "growing");
  ExpectParity(sealed, rows, cases, "sealed");
  ExpectParity(mixed, rows, cases, "mixed");

  std::filesystem::remove_all(dir);
  std::filesystem::remove_all(mixed_dir);
}

TEST(TextIndexTest, EdgeTermsPhrasesAndFilters) {
  ObjectiveDatabase db(2);
  auto insert = [&](const std::string& text, const std::string& company,
                    std::map<std::string, std::string> fields =
                        std::map<std::string, std::string>{}) {
    data::DetailRecord record;
    record.objective_id = "e";
    record.objective_text = text;
    record.fields = std::move(fields);
    return db.Insert(record, company);
  };
  int64_t r0 = insert("Cut CO2 emissions by 50% by 2030.", "Acme",
                      {{"Amount", "50%"}, {"Deadline", "2030"}});
  int64_t r1 = insert("Emissions will be cut in half.", "Beta");
  int64_t r2 = insert("Réduire les émissions de moitié.", "Acme");
  int64_t r3 = insert("Source renewable energy.", "Beta",
                      {{"Qualifier", "supply chain only"}});
  int64_t r4 = insert("cut costs, then cut emissions", "Gamma");

  auto ids = [&](const std::string& query, TextFilter filter = {}) {
    return Ids(db.QueryText(query, filter));
  };
  using IdList = std::vector<int64_t>;

  // Case-insensitive matching over objective text.
  EXPECT_EQ(ids("EMISSIONS"), (IdList{r0, r1, r4}));
  EXPECT_EQ(ids("emissions"), (IdList{r0, r1, r4}));
  // Terms found only in a field value still match.
  EXPECT_EQ(ids("chain"), (IdList{r3}));
  // Non-ASCII terms round-trip through the index.
  EXPECT_EQ(ids("émissions"), (IdList{r2}));
  // AND semantics across terms; duplicates collapse.
  EXPECT_EQ(ids("cut emissions"), (IdList{r0, r1, r4}));
  EXPECT_EQ(ids("cut cut emissions"), (IdList{r0, r1, r4}));
  EXPECT_EQ(ids("cut renewable"), IdList{});
  // Punctuation-only and empty queries select nothing without a filter.
  EXPECT_EQ(ids(""), IdList{});
  EXPECT_EQ(ids("?!... ,,"), IdList{});
  // ...but with a filter they mean "everything the filter selects".
  {
    TextFilter acme;
    acme.company = "Acme";
    EXPECT_EQ(ids("", acme), (IdList{r0, r2}));
    EXPECT_EQ(ids("emissions", acme), (IdList{r0}));
  }
  // Phrases require contiguity; the same words scattered do not match.
  EXPECT_EQ(ids("\"cut emissions\""), (IdList{r4}));
  EXPECT_EQ(ids("\"emissions by 50\""), (IdList{r0}));
  EXPECT_EQ(ids("\"supply chain\""), (IdList{r3}));
  EXPECT_EQ(ids("\"emissions cut\""), IdList{});
  // A single-word phrase behaves like a plain term.
  EXPECT_EQ(ids("\"emissions\""), (IdList{r0, r1, r4}));
  // An unterminated quote runs to the end of the query.
  EXPECT_EQ(ids("\"cut emissions"), (IdList{r4}));
  // Field filters and deadline windows compose with terms.
  {
    TextFilter deadline;
    deadline.with_field = "Deadline";
    EXPECT_EQ(ids("emissions", deadline), (IdList{r0}));
  }
  {
    TextFilter window;
    window.min_deadline_year = 2029;
    window.max_deadline_year = 2031;
    EXPECT_EQ(ids("emissions", window), (IdList{r0}));
    window.max_deadline_year = 2029;
    EXPECT_EQ(ids("emissions", window), IdList{});
  }
}

TEST(TextIndexTest, LargeCorpusParity) {
  // Acceptance-scale check: QueryText must be multiset-equal to the brute
  // force on a 100k+ row store. Term-only queries keep the brute force to
  // one term-set pass per row.
  ObjectiveDatabase db(8);
  FillFromCorpus(&db, 100'000, /*seed=*/3);
  std::vector<DbRow> rows = db.SnapshotRows();
  ASSERT_EQ(rows.size(), 100'000u);

  std::vector<QueryCase> cases;
  cases.push_back({"emissions", {"emissions"}, {}, {}});
  cases.push_back({"reduce 2030", {"reduce", "2030"}, {}, {}});
  {
    QueryCase filtered;
    filtered.query = "by";
    filtered.terms = {"by"};
    filtered.filter.company = kCompanies[2];
    filtered.filter.with_field = "Deadline";
    cases.push_back(filtered);
  }

  // One brute-force pass computes each row's term set once for all cases.
  std::vector<std::vector<int64_t>> expected(cases.size());
  for (const DbRow& row : rows) {
    std::unordered_set<std::string> terms = RowTermSet(row);
    for (size_t c = 0; c < cases.size(); ++c) {
      if (MatchesCase(row, cases[c], terms)) {
        expected[c].push_back(row.row_id);
      }
    }
  }
  for (size_t c = 0; c < cases.size(); ++c) {
    std::sort(expected[c].begin(), expected[c].end());
    std::vector<int64_t> actual =
        Ids(db.QueryText(cases[c].query, cases[c].filter));
    EXPECT_EQ(actual, expected[c])
        << "query \"" << cases[c].query << "\"";
    if (c == 0) {
      EXPECT_GT(actual.size(), 0u) << "degenerate corpus: nothing matched";
    }
  }
}

// --- One index, many views: parity of the shared index type ---------------

data::DetailRecord RecordOf(const data::Objective& objective) {
  data::DetailRecord record;
  record.objective_id = objective.id;
  record.objective_text = objective.text;
  for (const data::Annotation& annotation : objective.annotations) {
    record.fields[annotation.kind] = annotation.value;
  }
  return record;
}

TEST(IndexParityTest, TextIndexTermsMatchTheWordTokenizerDefinition) {
  std::vector<std::string> texts = {
      "",
      "10,000 tonnes",
      "62.1% by 2030.",
      "1,2,3 and 4.5.6",
      ".5 5. ,5 5, 5,,5 5..5",
      "a.b a,b 1.a a.1 a1,2 1,a2",
      "Net-zero CO2-Emissions (Scope 1 + 2)!",
      "Réduire les émissions de moitié — 50 %",
      "\xe2\x82\xac""10m and \xc3\xa9t\xc3\xa9",
      "\x80\xff raw\xfe bytes",
      "...!!! ---,,, ;;;",
      "tabs\tand\nnewlines\r\nand\vvertical\fform",
      "MiXeD CaSe WORDS",
      "trailing, 10,",
  };
  data::SustainabilityGoalsConfig goals;
  goals.objective_count = 600;
  goals.seed = 5;
  for (const data::Objective& objective :
       data::GenerateSustainabilityGoals(goals)) {
    texts.push_back(objective.text);
    for (const data::Annotation& annotation : objective.annotations) {
      texts.push_back(annotation.value);
    }
  }
  for (const std::string& text : data::GeneratorVocabularyTexts()) {
    texts.push_back(text);
  }
  // Random strings over the bytes the tokenizer treats specially.
  const std::string alphabet =
      "aZq09.,. ,\t\n-%\"()!_/\x80\xc3\xa9\xe2\x82\xac\xff";
  std::mt19937 rng(16);
  for (int i = 0; i < 4000; ++i) {
    std::string text;
    size_t length = rng() % 40;
    for (size_t j = 0; j < length; ++j) {
      text.push_back(alphabet[rng() % alphabet.size()]);
    }
    texts.push_back(std::move(text));
  }

  for (const std::string& text : texts) {
    std::vector<std::string> expected = ReferenceTerms(text);
    ASSERT_EQ(storage::TextIndexTerms(text), expected) << "text: " << text;
    // Phrase matching reads the same term stream.
    if (expected.size() >= 2) {
      std::vector<std::string> slice(expected.end() - 2, expected.end());
      EXPECT_TRUE(storage::ContainsPhrase(text, slice)) << text;
      std::vector<std::string> reversed(slice.rbegin(), slice.rend());
      EXPECT_EQ(storage::ContainsPhrase(text, reversed),
                ReferenceContainsPhrase(text, reversed))
          << text;
    }
  }
}

TEST(IndexParityTest, MaintainedIndexSerializesLikeAFreshOne) {
  data::SustainabilityGoalsConfig goals;
  goals.objective_count = 400;
  goals.seed = 9;
  std::vector<data::Objective> corpus = data::GenerateSustainabilityGoals(goals);
  const std::vector<std::string> companies = {"Acme", "Beta", "Gamma",
                                              "Delta", ""};
  std::mt19937 rng(23);
  auto random_row = [&](int64_t id) {
    storage::Row row;
    row.row_id = id;
    row.company = companies[rng() % companies.size()];
    row.document = "report-" + std::to_string(rng() % 3);
    row.page = static_cast<int>(rng() % 50);
    row.record = RecordOf(corpus[rng() % corpus.size()]);
    // Empty values are stored but never indexed.
    if (rng() % 4 == 0) row.record.fields["Amount"] = "";
    row.record.fields[kVersionField] = std::to_string(1 + rng() % 3);
    return row;
  };

  storage::GrowingSegment maintained;
  std::vector<storage::Row> rows;
  int64_t next_id = 100;
  auto expect_fresh_equal = [&](const std::string& label) {
    storage::GrowingSegment fresh;
    for (const storage::Row& row : rows) fresh.Append(row);
    EXPECT_EQ(maintained.Serialize(), fresh.Serialize()) << label;
  };
  for (int step = 0; step < 1500; ++step) {
    if (rows.empty() || rng() % 10 < 6) {
      next_id += 1 + static_cast<int64_t>(rng() % 3);  // Ids may have gaps.
      rows.push_back(random_row(next_id));
      maintained.Append(rows.back());
    } else {
      // An in-place restatement: same id, new content.
      size_t ordinal = rng() % rows.size();
      rows[ordinal] = random_row(rows[ordinal].row_id);
      maintained.Replace(static_cast<uint32_t>(ordinal), rows[ordinal]);
    }
    if (step % 300 == 299) expect_fresh_equal("step " + std::to_string(step));
  }
  // Restating every row with the content of another empties keys out.
  for (size_t ordinal = 0; ordinal < rows.size(); ++ordinal) {
    storage::Row restated = rows[(ordinal + 1) % rows.size()];
    restated.row_id = rows[ordinal].row_id;
    rows[ordinal] = restated;
    maintained.Replace(static_cast<uint32_t>(ordinal), restated);
  }
  expect_fresh_equal("after restating every row");
}

/// A reference model of ObjectiveDatabase's upsert semantics over plain
/// maps: the live rows by id, and the live id of each upsert key.
struct UpsertModel {
  std::map<int64_t, DbRow> live;
  std::map<std::string, int64_t> latest;
  int64_t next_id = 0;
  int64_t sealed_upto = -1;  ///< Rows at or below are immutable.
  /// What the upserts did, so the test can check it covers each case.
  std::map<std::string, int> outcomes;

  void Insert(const data::DetailRecord& record, const std::string& company,
              const std::string& document, int page) {
    DbRow row{next_id++, company, document, page, record};
    latest[ObjectiveUpsertKey(company, record)] = row.row_id;
    live[row.row_id] = row;
  }

  void Upsert(const data::DetailRecord& record, const std::string& company,
              const std::string& document, int page, int64_t sequence) {
    DbRow fresh{-1, company, document, page, record};
    fresh.record.fields[kSequenceField] = std::to_string(sequence);
    std::string key = ObjectiveUpsertKey(company, record);
    auto it = latest.find(key);
    if (it == latest.end()) {
      fresh.row_id = next_id++;
      fresh.record.fields[kVersionField] = "1";
      latest[key] = fresh.row_id;
      live[fresh.row_id] = fresh;
      return;
    }
    const DbRow& old = live.at(it->second);
    if (sequence < RecordSequence(old.record)) {
      ++outcomes["stale"];
      return;
    }
    int32_t version = RecordVersion(old.record);
    fresh.record.fields[kVersionField] = std::to_string(version);
    fresh.row_id = old.row_id;
    if (fresh.document == old.document && fresh.page == old.page &&
        fresh.record.objective_id == old.record.objective_id &&
        fresh.record.objective_text == old.record.objective_text &&
        fresh.record.fields == old.record.fields) {
      ++outcomes["identical"];
      return;
    }
    fresh.record.fields[kVersionField] = std::to_string(version + 1);
    if (old.row_id > sealed_upto) {
      ++outcomes["in place"];
      live[old.row_id] = fresh;
      return;
    }
    ++outcomes["superseded"];
    live.erase(old.row_id);
    fresh.row_id = next_id++;
    it->second = fresh.row_id;
    live[fresh.row_id] = fresh;
  }

  void Flush() { sealed_upto = next_id - 1; }
};

std::vector<int64_t> ModelIds(const UpsertModel& model,
                              const std::function<bool(const DbRow&)>& pred) {
  std::vector<int64_t> ids;
  for (const auto& [id, row] : model.live) {
    if (pred(row)) ids.push_back(id);
  }
  return ids;
}

/// Every query kind of `db` against brute force over the model's rows.
void ExpectQueriesMatchModel(const ObjectiveDatabase& db,
                             const UpsertModel& model,
                             const std::string& label) {
  SCOPED_TRACE(label);
  std::vector<DbRow> rows;
  for (const auto& [id, row] : model.live) rows.push_back(row);

  // Full contents, as SnapshotRows/ExportCsv serve them.
  std::vector<DbRow> snapshot = db.SnapshotRows();
  ASSERT_EQ(snapshot.size(), rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(snapshot[i].row_id, rows[i].row_id);
    EXPECT_EQ(snapshot[i].company, rows[i].company);
    EXPECT_EQ(snapshot[i].document, rows[i].document);
    EXPECT_EQ(snapshot[i].page, rows[i].page);
    EXPECT_EQ(snapshot[i].record.objective_text,
              rows[i].record.objective_text);
    EXPECT_EQ(snapshot[i].record.fields, rows[i].record.fields);
  }
  EXPECT_EQ(db.live_size(), rows.size());

  std::set<std::string> companies;
  for (const DbRow& row : rows) companies.insert(row.company);
  EXPECT_EQ(db.Companies(),
            std::vector<std::string>(companies.begin(), companies.end()));
  companies.insert("Nobody");
  std::map<std::string, int64_t> counts;
  for (const DbRow& row : rows) ++counts[row.company];
  EXPECT_EQ(db.CountPerCompany(), counts);
  for (const std::string& company : companies) {
    EXPECT_EQ(Ids(db.ByCompany(company)),
              ModelIds(model, [&](const DbRow& row) {
                return row.company == company;
              }))
        << company;
  }

  const std::vector<std::string> kinds = {
      "Action", "Amount",      "Qualifier",    "Deadline",
      "Baseline", kVersionField, kSequenceField, "NoSuchKind"};
  for (const std::string& kind : kinds) {
    EXPECT_EQ(Ids(db.WithField(kind)), ModelIds(model, [&](const DbRow& row) {
                return !row.record.FieldOrEmpty(kind).empty();
              }))
        << kind;
    std::map<std::string, double> coverage;
    for (const auto& [company, total] : counts) {
      int64_t covered = 0;
      for (const DbRow& row : rows) {
        if (row.company == company && !row.record.FieldOrEmpty(kind).empty()) {
          ++covered;
        }
      }
      coverage[company] =
          static_cast<double>(covered) / static_cast<double>(total);
    }
    EXPECT_EQ(db.FieldCoverageByCompany(kind), coverage) << kind;
  }
  for (size_t i = 0; i < rows.size(); i += 29) {
    for (const auto& [kind, value] : rows[i].record.fields) {
      if (value.empty()) continue;
      EXPECT_EQ(Ids(db.WhereFieldEquals(kind, value)),
                ModelIds(model, [&](const DbRow& row) {
                  return row.record.FieldOrEmpty(kind) == value;
                }))
          << kind << "=" << value;
    }
  }

  auto year_between = [&](int lo, int hi) {
    return ModelIds(model, [&](const DbRow& row) {
      std::optional<int> year = storage::DeadlineYearOfRecord(row.record);
      return year.has_value() && *year >= lo && *year <= hi;
    });
  };
  for (int year = 2020; year <= 2050; year += 3) {
    EXPECT_EQ(Ids(db.ByDeadlineYear(year)), year_between(year, year))
        << year;
  }
  EXPECT_EQ(Ids(db.DeadlineYearBetween(2025, 2035)), year_between(2025, 2035));
  EXPECT_EQ(Ids(db.DeadlineYearBetween(-5000, 5000)),
            year_between(-5000, 5000));

  std::vector<QueryCase> cases = CorpusQueries();
  cases.push_back({"2", {"2"}, {}, {}});  // Hits _version values too.
  for (const QueryCase& query_case : cases) {
    EXPECT_EQ(Ids(db.QueryText(query_case.query, query_case.filter)),
              BruteForce(rows, query_case))
        << "query \"" << query_case.query << "\"";
  }
}

TEST(IndexParityTest, QueriesAgreeOverGrowingFlushedAndBruteForce) {
  std::string dir = (std::filesystem::temp_directory_path() /
                     "goalex_index_parity_test")
                        .string();
  std::filesystem::remove_all(dir);
  data::SustainabilityGoalsConfig goals;
  goals.objective_count = 700;
  goals.seed = 31;
  std::vector<data::Objective> corpus = data::GenerateSustainabilityGoals(goals);

  struct Op {
    bool insert = false;
    data::DetailRecord record;
    std::string company;
    std::string document;
    int page = 0;
    int64_t sequence = 0;
  };
  // Upserts go to five companies (many key clashes, so many
  // restatements); plain inserts to two others, whose keys no upsert
  // touches.
  std::mt19937 rng(41);
  std::vector<Op> ops;
  std::vector<size_t> upserts;  // Indices of upsert ops in `ops`.
  for (size_t i = 0; i < corpus.size(); ++i) {
    Op op;
    op.record = RecordOf(corpus[i]);
    op.insert = rng() % 8 == 0;
    op.company = kCompanies[op.insert ? 5 + rng() % 2 : rng() % 5];
    op.document = "report-" + std::to_string(rng() % 3);
    op.page = static_cast<int>(rng() % 9);
    const uint32_t roll = rng() % 10;
    if (!op.insert && !upserts.empty() && roll < 3) {
      // Restate an earlier target with changed details.
      op = ops[upserts[rng() % upserts.size()]];
      op.record.fields["Amount"] = std::to_string(rng() % 90) + "%";
      op.record.objective_text += " (restated)";
    } else if (!op.insert && !upserts.empty() && roll < 4) {
      // A replayed delivery, with its old sequence.
      ops.push_back(ops[upserts[rng() % upserts.size()]]);
      continue;
    }
    op.sequence = static_cast<int64_t>(ops.size());
    if (!op.insert) upserts.push_back(ops.size());
    ops.push_back(op);
  }

  DbOptions options;
  options.background_seal = false;
  options.track_upserts = true;
  UpsertModel model;
  {
    ObjectiveDatabase db(4, options);
    ASSERT_TRUE(db.Open(dir).ok());
    auto run = [&](size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) {
        const Op& op = ops[i];
        if (op.insert) {
          db.Insert(op.record, op.company, op.document, op.page);
          model.Insert(op.record, op.company, op.document, op.page);
        } else {
          db.Upsert(op.record, op.company, op.document, op.page, op.sequence);
          model.Upsert(op.record, op.company, op.document, op.page,
                       op.sequence);
        }
      }
    };
    const size_t half = ops.size() / 2;
    run(0, half);
    ExpectQueriesMatchModel(db, model, "growing");
    ASSERT_TRUE(db.Flush().ok());
    model.Flush();
    ExpectQueriesMatchModel(db, model, "flushed");
    run(half, ops.size());  // Restates sealed rows (supersede) and new ones.
    ASSERT_GT(db.superseded_count(), 0u);
    ExpectQueriesMatchModel(db, model, "sealed + growing");
    ASSERT_TRUE(db.Flush().ok());
    model.Flush();
    ExpectQueriesMatchModel(db, model, "flushed twice");
  }
  for (const char* outcome : {"stale", "identical", "in place", "superseded"}) {
    EXPECT_GT(model.outcomes[outcome], 0) << outcome;
  }
  ObjectiveDatabase reopened(4, options);
  ASSERT_TRUE(reopened.Open(dir).ok());
  ExpectQueriesMatchModel(reopened, model, "reopened");

  // Each sealed image equals, byte for byte, a fresh index fed the same
  // rows in row-id order.
  size_t segments = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".gxseg") continue;
    const std::string path = entry.path().string();
    auto sealed = storage::SealedSegment::Open(storage::Env::Default(), path);
    ASSERT_TRUE(sealed.ok()) << path;
    storage::GrowingSegment fresh;
    for (uint64_t ordinal = 0; ordinal < (*sealed)->num_rows(); ++ordinal) {
      DbRow row;
      ASSERT_TRUE((*sealed)->ReadRow(ordinal, &row));
      fresh.Append(std::move(row));
    }
    auto bytes = storage::Env::Default()->ReadFileToString(path);
    ASSERT_TRUE(bytes.ok());
    EXPECT_EQ(*bytes, fresh.Serialize()) << path;
    ++segments;
  }
  EXPECT_EQ(segments, reopened.SealedSegmentCount());
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace goalex::core
