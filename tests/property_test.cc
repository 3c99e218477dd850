// Property-based tests: invariants checked over randomized inputs drawn
// from the corpus generators, swept across seeds with parameterized gtest.
#include <gtest/gtest.h>

#include "bpe/bpe_tokenizer.h"
#include "common/rng.h"
#include "data/generator.h"
#include "eval/metrics.h"
#include "labels/iob.h"
#include "segment/segmenter.h"
#include "text/normalizer.h"
#include "text/word_tokenizer.h"
#include "weaksup/weak_labeler.h"

namespace goalex {
namespace {

class SeededProperty : public ::testing::TestWithParam<uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, SeededProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

std::vector<data::Objective> RandomObjectives(uint64_t seed, size_t count) {
  data::SustainabilityGoalsConfig config;
  config.seed = seed;
  config.objective_count = count;
  return data::GenerateSustainabilityGoals(config);
}

// Invariant: every weak-labeled span, read back out of the text via token
// offsets, reproduces the annotation value (up to whitespace), for every
// matched annotation.
TEST_P(SeededProperty, WeakLabelSpansReconstructAnnotationValues) {
  labels::LabelCatalog catalog(data::SustainabilityGoalKinds());
  weaksup::WeakLabeler labeler(&catalog);
  for (const data::Objective& objective :
       RandomObjectives(GetParam(), 60)) {
    weaksup::WeakLabeling labeling = labeler.Label(objective);
    std::vector<labels::Span> spans =
        catalog.DecodeSpans(labeling.label_ids);
    for (const labels::Span& span : spans) {
      const std::string& kind =
          catalog.kinds()[static_cast<size_t>(span.kind)];
      auto annotated = objective.AnnotationValue(kind);
      ASSERT_TRUE(annotated.has_value())
          << "span of kind " << kind << " without annotation in: "
          << objective.text;
      size_t begin = labeling.tokens[span.begin].begin;
      size_t end = labeling.tokens[span.end - 1].end;
      std::string reconstructed = objective.text.substr(begin, end - begin);
      EXPECT_EQ(eval::NormalizeFieldValue(reconstructed),
                eval::NormalizeFieldValue(*annotated))
          << objective.text;
    }
  }
}

// Invariant: matched + unmatched == non-empty annotations with schema
// kinds, per objective.
TEST_P(SeededProperty, WeakLabelAccounting) {
  labels::LabelCatalog catalog(data::SustainabilityGoalKinds());
  weaksup::WeakLabeler labeler(&catalog);
  for (const data::Objective& objective :
       RandomObjectives(GetParam() + 100, 60)) {
    weaksup::WeakLabeling labeling = labeler.Label(objective);
    size_t matched_spans = catalog.DecodeSpans(labeling.label_ids).size();
    size_t non_empty = 0;
    for (const data::Annotation& a : objective.annotations) {
      if (!a.value.empty()) ++non_empty;
    }
    // Spans can differ from matched annotations when values overlap in the
    // text (later annotations overwrite, possibly splitting a span), but
    // the count is bounded by twice the annotation count.
    EXPECT_LE(matched_spans + labeling.unmatched_kinds.size(),
              2 * non_empty);
    EXPECT_LE(labeling.unmatched_kinds.size(), non_empty);
  }
}

// Invariant: IOB decode(encode(spans)) is the identity for non-adjacent
// same-kind spans produced by DecodeSpans itself (idempotence).
TEST_P(SeededProperty, IobDecodeEncodeIdempotent) {
  labels::LabelCatalog catalog(data::SustainabilityGoalKinds());
  Rng rng(GetParam());
  for (int trial = 0; trial < 50; ++trial) {
    size_t length = 1 + rng.NextIndex(30);
    std::vector<labels::LabelId> ids(length);
    for (labels::LabelId& id : ids) {
      id = static_cast<labels::LabelId>(
          rng.NextIndex(static_cast<size_t>(catalog.label_count())));
    }
    std::vector<labels::Span> first = catalog.DecodeSpans(ids);
    std::vector<labels::LabelId> reencoded =
        catalog.EncodeSpans(length, first);
    EXPECT_EQ(catalog.DecodeSpans(reencoded), first);
  }
}

// Invariant: BPE subwords concatenate exactly to their source word, and
// every non-<unk> id round-trips through the vocabulary.
TEST_P(SeededProperty, BpeConcatenationAndVocabRoundTrip) {
  std::vector<std::string> corpus;
  for (const data::Objective& o : RandomObjectives(GetParam(), 80)) {
    corpus.push_back(o.text);
  }
  bpe::BpeModel model = bpe::BpeModel::Train(corpus, 800);
  text::WordTokenizer tokenizer;
  for (size_t i = 0; i < 10 && i < corpus.size(); ++i) {
    std::vector<std::string> words =
        tokenizer.TokenizeToStrings(corpus[i]);
    std::vector<bpe::Subword> subwords = model.EncodeWords(words);
    std::string current;
    size_t word_index = 0;
    for (const bpe::Subword& sw : subwords) {
      if (sw.is_word_start && !current.empty()) {
        EXPECT_EQ(current, words[word_index]);
        ++word_index;
        current.clear();
      }
      current += sw.text;
      if (sw.id != bpe::Vocab::kUnkId) {
        EXPECT_EQ(model.vocab().GetToken(sw.id), sw.text);
      }
    }
    if (!current.empty()) {
      EXPECT_EQ(current, words[word_index]);
    }
  }
}

// Invariant: normalization is idempotent.
TEST_P(SeededProperty, NormalizeIdempotent) {
  for (const data::Objective& o : RandomObjectives(GetParam() + 7, 40)) {
    std::string once = text::Normalize(o.text);
    EXPECT_EQ(text::Normalize(once), once);
  }
}

// Invariant: word-token offsets tile the text (non-overlapping, ordered,
// each slice reproduces its token).
TEST_P(SeededProperty, WordTokenOffsetsAreConsistent) {
  text::WordTokenizer tokenizer;
  for (const data::Objective& o : RandomObjectives(GetParam() + 13, 40)) {
    size_t previous_end = 0;
    for (const text::Token& t : tokenizer.Tokenize(o.text)) {
      EXPECT_GE(t.begin, previous_end);
      EXPECT_LT(t.begin, t.end);
      EXPECT_EQ(o.text.substr(t.begin, t.end - t.begin), t.text);
      previous_end = t.end;
    }
  }
}

// Invariant: segmentation covers orderly, non-overlapping slices of the
// objective, and single-target objectives come back unchanged.
TEST_P(SeededProperty, SegmenterSlicesAreOrderedAndExact) {
  segment::ObjectiveSegmenter segmenter;
  for (const data::Objective& o : RandomObjectives(GetParam() + 19, 40)) {
    size_t previous_end = 0;
    for (const segment::Segment& s : segmenter.Split(o.text)) {
      EXPECT_GE(s.begin, previous_end);
      EXPECT_LE(s.end, o.text.size());
      EXPECT_EQ(o.text.substr(s.begin, s.end - s.begin), s.text);
      previous_end = s.end;
    }
  }
}

// Invariant: the evaluator's counts satisfy tp + fn == number of annotated
// fields when predictions are exactly the gold annotations.
TEST_P(SeededProperty, PerfectPredictionsScorePerfectRecall) {
  std::vector<data::Objective> objectives =
      RandomObjectives(GetParam() + 23, 50);
  eval::FieldEvaluator evaluator(data::SustainabilityGoalKinds());
  for (const data::Objective& o : objectives) {
    data::DetailRecord record;
    for (const data::Annotation& a : o.annotations) {
      if (!a.value.empty()) record.fields[a.kind] = a.value;
    }
    evaluator.Add(o, record);
  }
  eval::Prf prf = evaluator.Overall();
  EXPECT_DOUBLE_EQ(prf.precision, 1.0);
  EXPECT_DOUBLE_EQ(prf.recall, 1.0);
  EXPECT_DOUBLE_EQ(prf.f1, 1.0);
  EXPECT_EQ(evaluator.Total().fp, 0);
  EXPECT_EQ(evaluator.Total().fn, 0);
}

}  // namespace
}  // namespace goalex
