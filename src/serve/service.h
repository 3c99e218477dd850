#ifndef GOALEX_SERVE_SERVICE_H_
#define GOALEX_SERVE_SERVICE_H_

#include <memory>

#include "core/config.h"
#include "core/extractor.h"
#include "runtime/thread_pool.h"
#include "serve/request.h"
#include "serve/scheduler.h"

namespace goalex::serve {

/// Extraction-as-a-service: binds the continuous-batching Scheduler to a
/// trained DetailExtractor. The scheduler dispatches a batch whenever its
/// handler is free and a request waits; each batch runs through
/// DetailExtractor::ExtractBatch on a persistent worker pool
/// (config.num_threads workers; 1 = inference inline on the scheduler
/// thread) — the same staged/packed pipeline as ExtractAll, so a served
/// request returns byte-identical records to the batch path, and with
/// packed inference on the batch's clauses share padding-free packed
/// chunks instead of one plan execution each.
///
/// The extractor must outlive the service and stay immutable while it is
/// serving (the same contract concurrent ExtractAll callers already
/// honor: inference is const and race-free after Train()/Load()).
class ExtractionService {
 public:
  /// `extractor` must be trained. `config` must Validate().
  ExtractionService(const core::DetailExtractor* extractor,
                    const core::ServeConfig& config);

  /// Submits one objective for extraction. See Scheduler::Submit for the
  /// admission/shed contract.
  StatusOr<ResultFuture> Submit(data::Objective objective,
                                Priority priority = Priority::kInteractive) {
    return scheduler_->Submit(std::move(objective), priority);
  }

  /// Stops accepting, drains admitted requests, joins. Idempotent.
  void Stop() { scheduler_->Stop(); }

  ServeStats stats() const { return scheduler_->stats(); }
  size_t queue_depth() const { return scheduler_->queue_depth(); }
  const core::ServeConfig& config() const { return scheduler_->config(); }
  Scheduler& scheduler() { return *scheduler_; }
  const Scheduler& scheduler() const { return *scheduler_; }

 private:
  const core::DetailExtractor* extractor_;  ///< Not owned.
  /// Declared before scheduler_: the scheduler thread dispatches batches
  /// onto this pool, so it must still exist while the scheduler drains.
  std::unique_ptr<runtime::ThreadPool> pool_;
  std::unique_ptr<Scheduler> scheduler_;  ///< Last member: stops first.
};

}  // namespace goalex::serve

#endif  // GOALEX_SERVE_SERVICE_H_
