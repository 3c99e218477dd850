// Tests of the GoalSpotter detection substrate and the full deployed
// pipeline (detection -> extraction -> structured database).
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "core/database.h"
#include "core/extractor.h"
#include "data/generator.h"
#include "data/report.h"
#include "goalspotter/detector.h"
#include "goalspotter/pipeline.h"

namespace goalex::goalspotter {
namespace {

std::vector<LabeledBlock> DetectorTrainingSet(size_t objectives,
                                              size_t noise, uint64_t seed) {
  data::SustainabilityGoalsConfig config;
  config.objective_count = objectives;
  config.seed = seed;
  std::vector<LabeledBlock> blocks;
  for (const data::Objective& o :
       data::GenerateSustainabilityGoals(config)) {
    blocks.push_back(LabeledBlock{o.text, true});
  }
  Rng rng(seed + 1);
  for (size_t i = 0; i < noise; ++i) {
    blocks.push_back(LabeledBlock{data::GenerateNoiseSentence(rng), false});
  }
  return blocks;
}

TEST(DetectorTest, SeparatesObjectivesFromNoise) {
  ObjectiveDetector detector;
  detector.Train(DetectorTrainingSet(250, 250, 5), DetectorOptions());

  // Held-out objectives and noise.
  data::SustainabilityGoalsConfig config;
  config.objective_count = 50;
  config.seed = 999;
  int correct = 0, total = 0;
  for (const data::Objective& o :
       data::GenerateSustainabilityGoals(config)) {
    correct += detector.IsObjective(o.text) ? 1 : 0;
    ++total;
  }
  Rng rng(1234);
  for (int i = 0; i < 50; ++i) {
    correct += detector.IsObjective(data::GenerateNoiseSentence(rng)) ? 0 : 1;
    ++total;
  }
  EXPECT_GT(static_cast<double>(correct) / total, 0.9);
}

TEST(TransformerDetectorTest, EngineAndAutogradPredictionsIdentical) {
  // Two detectors with identical training (same seeds, same data), one
  // predicting via the packed engine's sequence head and one via the
  // autograd evaluation path: every prediction must match exactly.
  std::vector<LabeledBlock> blocks = DetectorTrainingSet(40, 40, 11);
  TransformerDetectorOptions options;
  options.epochs = 2;

  options.use_inference_engine = true;
  TransformerObjectiveDetector engine_detector(options);
  engine_detector.Train(blocks);

  options.use_inference_engine = false;
  TransformerObjectiveDetector tape_detector(options);
  tape_detector.Train(blocks);

  data::SustainabilityGoalsConfig config;
  config.objective_count = 20;
  config.seed = 77;
  for (const data::Objective& o :
       data::GenerateSustainabilityGoals(config)) {
    EXPECT_EQ(engine_detector.PredictClass(o.text),
              tape_detector.PredictClass(o.text))
        << "engine/autograd divergence on: " << o.text;
  }
  Rng rng(78);
  for (int i = 0; i < 20; ++i) {
    std::string noise = data::GenerateNoiseSentence(rng);
    EXPECT_EQ(engine_detector.PredictClass(noise),
              tape_detector.PredictClass(noise));
  }
}

TEST(TransformerDetectorTest, LearnsToSeparateObjectivesFromNoise) {
  TransformerObjectiveDetector detector;
  detector.Train(DetectorTrainingSet(120, 120, 12));
  ASSERT_TRUE(detector.trained());

  data::SustainabilityGoalsConfig config;
  config.objective_count = 30;
  config.seed = 555;
  int correct = 0, total = 0;
  for (const data::Objective& o :
       data::GenerateSustainabilityGoals(config)) {
    correct += detector.IsObjective(o.text) ? 1 : 0;
    ++total;
  }
  Rng rng(556);
  for (int i = 0; i < 30; ++i) {
    correct += detector.IsObjective(data::GenerateNoiseSentence(rng)) ? 0 : 1;
    ++total;
  }
  EXPECT_GT(static_cast<double>(correct) / total, 0.8);
}

TEST(DetectorTest, ScoreIsProbability) {
  ObjectiveDetector detector;
  detector.Train(DetectorTrainingSet(50, 50, 6), DetectorOptions());
  double score = detector.Score("Reduce emissions by 20% by 2030.");
  EXPECT_GE(score, 0.0);
  EXPECT_LE(score, 1.0);
}

TEST(DetectorTest, UntrainedScoresHalf) {
  ObjectiveDetector detector;
  EXPECT_NEAR(detector.Score("anything"), 0.5, 1e-6);
}

TEST(DetectorTest, ThresholdControlsDecision) {
  ObjectiveDetector detector;
  detector.Train(DetectorTrainingSet(100, 100, 7), DetectorOptions());
  std::string objective = "Reduce waste to landfill by 50% by 2030.";
  EXPECT_TRUE(detector.IsObjective(objective, 0.1));
  EXPECT_FALSE(detector.IsObjective(objective, 1.01));
}

TEST(DetectorTest, DeterministicTraining) {
  ObjectiveDetector a, b;
  std::vector<LabeledBlock> blocks = DetectorTrainingSet(80, 80, 8);
  a.Train(blocks, DetectorOptions());
  b.Train(blocks, DetectorOptions());
  EXPECT_EQ(a.Score("Reduce emissions by 10%."),
            b.Score("Reduce emissions by 10%."));
}

class PipelineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // Train a small extractor once (slow) and a detector (fast).
    data::SustainabilityGoalsConfig config;
    config.objective_count = 300;
    std::vector<data::Objective> corpus =
        data::GenerateSustainabilityGoals(config);
    core::ExtractorConfig extractor_config;
    extractor_config.kinds = data::SustainabilityGoalKinds();
    extractor_config.epochs = 5;
    extractor_config.bpe_merges = 1200;
    extractor_config.d_model = 48;
    extractor_config.ffn_dim = 96;
    extractor_ = new core::DetailExtractor(extractor_config);
    ASSERT_TRUE(extractor_->Train(corpus).ok());

    detector_ = new ObjectiveDetector();
    detector_->Train(DetectorTrainingSet(300, 300, 9), DetectorOptions());
  }

  static void TearDownTestSuite() {
    delete extractor_;
    extractor_ = nullptr;
    delete detector_;
    detector_ = nullptr;
  }

  static core::DetailExtractor* extractor_;
  static ObjectiveDetector* detector_;
};

core::DetailExtractor* PipelineTest::extractor_ = nullptr;
ObjectiveDetector* PipelineTest::detector_ = nullptr;

TEST_F(PipelineTest, ProcessesSingleReport) {
  data::Report report = data::GenerateSingleReport("DemoCo", 30, 8, 77);
  GoalSpotter pipeline(detector_, extractor_);
  core::ObjectiveDatabase db;
  PipelineStats stats = pipeline.ProcessReport(report, &db);

  EXPECT_EQ(stats.documents, 1);
  EXPECT_EQ(stats.pages, 30);
  EXPECT_GT(stats.blocks, 30);
  // Detection should find most of the 8 embedded objectives with few false
  // positives.
  EXPECT_GE(stats.detected_objectives, 5);
  EXPECT_LE(stats.detected_objectives, 12);
  EXPECT_EQ(db.size(), static_cast<size_t>(stats.detected_objectives));
  for (const core::DbRow& row : db.SnapshotRows()) {
    EXPECT_EQ(row.company, "DemoCo");
    EXPECT_GE(row.page, 1);
  }
}

TEST_F(PipelineTest, ProcessesFleetAndAggregates) {
  data::CompanyProfile profile{"C10", 4, 60, 12};
  std::vector<data::Report> reports =
      data::GenerateCompanyReports(profile, 31);
  GoalSpotter pipeline(detector_, extractor_);
  core::ObjectiveDatabase db;
  PipelineStats stats = pipeline.ProcessReports(reports, &db);
  EXPECT_EQ(stats.documents, 4);
  EXPECT_EQ(stats.pages, 60);
  EXPECT_GT(stats.detected_objectives, 6);
  EXPECT_EQ(db.CountPerCompany()["C10"], stats.detected_objectives);
}

TEST_F(PipelineTest, ParallelIngestMatchesSerial) {
  data::CompanyProfile profile{"C11", 6, 90, 18};
  std::vector<data::Report> reports =
      data::GenerateCompanyReports(profile, 47);
  GoalSpotter pipeline(detector_, extractor_);

  core::ObjectiveDatabase serial_db;
  PipelineStats serial = pipeline.ProcessReports(reports, &serial_db);

  core::ObjectiveDatabase parallel_db;
  PipelineStats parallel =
      pipeline.ProcessReportsParallel(reports, &parallel_db, 4);

  EXPECT_EQ(parallel.documents, serial.documents);
  EXPECT_EQ(parallel.pages, serial.pages);
  EXPECT_EQ(parallel.blocks, serial.blocks);
  EXPECT_EQ(parallel.detected_objectives, serial.detected_objectives);
  EXPECT_EQ(parallel_db.size(), serial_db.size());
  EXPECT_EQ(parallel_db.CountPerCompany(), serial_db.CountPerCompany());

  // Row ids differ by interleaving, but the stored rows are the same set:
  // compare the objective texts as multisets.
  auto texts = [](const core::ObjectiveDatabase& db) {
    std::multiset<std::string> out;
    for (const core::DbRow& row : db.SnapshotRows()) {
      out.insert(row.record.objective_text);
    }
    return out;
  };
  EXPECT_EQ(texts(parallel_db), texts(serial_db));
}

TEST_F(PipelineTest, ExtractedRowsCarryFields) {
  data::Report report = data::GenerateSingleReport("FieldsCo", 20, 10, 99);
  GoalSpotter pipeline(detector_, extractor_);
  core::ObjectiveDatabase db;
  pipeline.ProcessReport(report, &db);
  ASSERT_GT(db.size(), 0u);
  // At least half of the extracted rows should carry an Action field.
  size_t with_action = db.WithField("Action").size();
  EXPECT_GT(with_action * 2, db.size());
}

TEST_F(PipelineTest, HighThresholdDetectsFewer) {
  data::Report report = data::GenerateSingleReport("ThreshCo", 20, 10, 13);
  GoalSpotter loose(detector_, extractor_);
  loose.set_threshold(0.2);
  GoalSpotter strict(detector_, extractor_);
  strict.set_threshold(0.95);
  core::ObjectiveDatabase db_loose, db_strict;
  PipelineStats loose_stats = loose.ProcessReport(report, &db_loose);
  PipelineStats strict_stats = strict.ProcessReport(report, &db_strict);
  EXPECT_GE(loose_stats.detected_objectives,
            strict_stats.detected_objectives);
}

}  // namespace
}  // namespace goalex::goalspotter
