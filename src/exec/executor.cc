#include "exec/executor.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <exception>
#include <mutex>
#include <vector>

#include "common/check.h"
#include "tensor/scratch.h"

namespace goalex::exec {

namespace {
using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}
}  // namespace

struct Executor::RunState {
  enum NodeState : uint8_t {
    kWaiting = 0,
    kReady,
    kRunning,
    kDone,
    kFailed,
    kCancelled,
  };

  struct Shard {
    std::mutex mu;
    std::deque<NodeId> queue;
  };

  explicit RunState(size_t n, int workers)
      : pending(n), state(n), seconds(n, 0.0), shards(workers) {}

  std::vector<std::atomic<int32_t>> pending;
  std::vector<std::atomic<uint8_t>> state;
  std::vector<double> seconds;  ///< Written only by the executing worker.
  std::vector<NodeId> topo;     ///< Kahn order (cycle check + critical path).

  std::vector<Shard> shards;
  std::atomic<int64_t> ready_count{0};
  std::atomic<size_t> unfinished{0};
  std::atomic<size_t> executed{0};
  std::atomic<size_t> cancelled{0};
  std::atomic<uint64_t> steals{0};

  std::mutex sleep_mu;
  /// Idle workers wait here for ready nodes (or `done`).
  std::condition_variable cv;
  /// Run's caller waits here for every worker loop to exit. A separate
  /// condvar: sharing `cv` let a wave's notify_one wake the caller instead
  /// of a sleeping worker, which then slept through the whole wave.
  std::condition_variable settled_cv;
  int sleepers = 0;
  int active_workers = 0;
  bool done = false;
  std::exception_ptr first_error;  ///< Guarded by sleep_mu.
};

Executor::Executor(runtime::ThreadPool* pool, ScratchPool* scratch)
    : pool_(pool), scratch_(scratch) {
  GOALEX_CHECK(pool_ != nullptr);
  if (obs::Active()) {
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Default();
    ready_depth_gauge_ = registry.GetGauge("exec.ready_queue.depth");
    steals_counter_ = registry.GetCounter("exec.steals");
    nodes_counter_ = registry.GetCounter("exec.nodes");
    cancelled_counter_ = registry.GetCounter("exec.nodes.cancelled");
    node_seconds_hist_ = registry.GetLatencyHistogram("exec.node.seconds");
    run_seconds_hist_ = registry.GetLatencyHistogram("exec.run.seconds");
    critical_path_gauge_ = registry.GetGauge("exec.critical_path.seconds");
    scratch_peak_gauge_ = registry.GetGauge("exec.scratch.peak_bytes");
  }
}

Status Executor::Run(Graph& graph) {
  const size_t n = graph.node_count();
  last_run_ = RunStats{};
  if (n == 0) return Status::Ok();

  const int workers = std::min(pool_->thread_count(),
                               static_cast<int>(std::min<size_t>(
                                   n, static_cast<size_t>(INT32_MAX))));
  RunState state(n, std::max(workers, 1));
  state.topo = graph.TopologicalOrder();
  if (state.topo.empty()) {
    return InvalidArgumentError("task graph contains a cycle");
  }
  for (size_t i = 0; i < n; ++i) {
    state.pending[i].store(
        static_cast<int32_t>(graph.nodes_[i].deps.size()),
        std::memory_order_relaxed);
    state.state[i].store(RunState::kWaiting, std::memory_order_relaxed);
    GOALEX_CHECK_MSG(static_cast<bool>(graph.nodes_[i].fn),
                     "task graph node has no callback");
  }
  state.unfinished.store(n, std::memory_order_relaxed);

  if (scratch_ != nullptr) {
    scratch_->EnsureCapacity(
        PlanScratchLifetimes(graph, std::max(workers, 1)).lease_count);
  }

  const Clock::time_point start = Clock::now();
  std::exception_ptr error;
  if (workers <= 1) {
    RunSerial(graph, state);
    error = state.first_error;
  } else {
    RunParallel(graph, state);
    error = state.first_error;
  }
  last_run_.wall_seconds = SecondsSince(start);
  FinalizeStats(graph, state);
  if (error) std::rethrow_exception(error);
  return Status::Ok();
}

void Executor::RunSerial(Graph& graph, RunState& state) {
  const size_t n = graph.node_count();
  // LIFO stack: a finished node's dependents run before unstarted roots,
  // so chains complete depth-first and staged buffers die early. Roots are
  // pushed in reverse id order (lowest id executes first); a released wave
  // is pushed in reverse as well, making serial execution deterministic.
  std::vector<NodeId> stack;
  for (size_t i = n; i-- > 0;) {
    if (state.pending[i].load(std::memory_order_relaxed) == 0) {
      state.state[i].store(RunState::kReady, std::memory_order_relaxed);
      stack.push_back(static_cast<NodeId>(i));
    }
  }
  while (!stack.empty()) {
    const NodeId id = stack.back();
    stack.pop_back();
    if (state.state[static_cast<size_t>(id)].load(
            std::memory_order_relaxed) == RunState::kCancelled) {
      continue;
    }
    ExecuteNode(graph, state, id, /*worker=*/-1);
    if (state.state[static_cast<size_t>(id)].load(
            std::memory_order_relaxed) == RunState::kDone) {
      // Collect the newly ready dependents, then push them reversed so the
      // first-listed dependent runs next.
      auto& node = graph.nodes_[static_cast<size_t>(id)];
      size_t wave_begin = stack.size();
      for (NodeId dep : node.dependents) {
        if (state.pending[static_cast<size_t>(dep)].fetch_sub(
                1, std::memory_order_relaxed) == 1) {
          uint8_t expected = RunState::kWaiting;
          if (state.state[static_cast<size_t>(dep)].compare_exchange_strong(
                  expected, RunState::kReady, std::memory_order_relaxed)) {
            stack.push_back(dep);
          }
        }
      }
      std::reverse(stack.begin() + static_cast<ptrdiff_t>(wave_begin),
                   stack.end());
    }
  }
}

void Executor::RunParallel(Graph& graph, RunState& state) {
  const size_t n = graph.node_count();
  const int workers = static_cast<int>(state.shards.size());
  // Seed the roots round-robin over the shards (in id order, so worker 0
  // starts on the lowest root).
  int shard = 0;
  int64_t roots = 0;
  for (size_t i = 0; i < n; ++i) {
    if (state.pending[i].load(std::memory_order_relaxed) == 0) {
      state.state[i].store(RunState::kReady, std::memory_order_relaxed);
      state.shards[static_cast<size_t>(shard)].queue.push_back(
          static_cast<NodeId>(i));
      shard = (shard + 1) % workers;
      ++roots;
    }
  }
  state.ready_count.store(roots, std::memory_order_relaxed);
  if (ready_depth_gauge_ != nullptr) {
    ready_depth_gauge_->Set(static_cast<double>(roots));
  }
  state.active_workers = workers;

  std::vector<std::function<void()>> loops;
  loops.reserve(static_cast<size_t>(workers));
  for (int w = 0; w < workers; ++w) {
    loops.push_back([this, &graph, &state, w] {
      WorkerLoop(graph, state, w);
      std::lock_guard<std::mutex> lock(state.sleep_mu);
      if (--state.active_workers == 0) state.settled_cv.notify_all();
    });
  }
  pool_->SubmitBatch(std::move(loops));

  // Block until the graph settles AND every worker loop has exited (a loop
  // still running would read this stack frame's RunState after return).
  std::unique_lock<std::mutex> lock(state.sleep_mu);
  state.settled_cv.wait(
      lock, [&state] { return state.done && state.active_workers == 0; });
}

void Executor::WorkerLoop(Graph& graph, RunState& state, int worker) {
  const int workers = static_cast<int>(state.shards.size());
  for (;;) {
    NodeId id = kInvalidNode;
    {
      RunState::Shard& own = state.shards[static_cast<size_t>(worker)];
      std::lock_guard<std::mutex> lock(own.mu);
      if (!own.queue.empty()) {
        id = own.queue.back();  // LIFO: finish chains before starting new.
        own.queue.pop_back();
      }
    }
    if (id < 0) {
      for (int offset = 1; offset < workers && id < 0; ++offset) {
        RunState::Shard& victim =
            state.shards[static_cast<size_t>((worker + offset) % workers)];
        std::lock_guard<std::mutex> lock(victim.mu);
        if (!victim.queue.empty()) {
          id = victim.queue.front();  // FIFO: steal unstarted chains.
          victim.queue.pop_front();
          state.steals.fetch_add(1, std::memory_order_relaxed);
        }
      }
    }
    if (id >= 0) {
      int64_t depth =
          state.ready_count.fetch_sub(1, std::memory_order_relaxed) - 1;
      if (ready_depth_gauge_ != nullptr) {
        ready_depth_gauge_->Set(static_cast<double>(depth));
      }
      ExecuteNode(graph, state, id, worker);
      continue;
    }
    std::unique_lock<std::mutex> lock(state.sleep_mu);
    if (state.done) return;
    if (state.ready_count.load(std::memory_order_relaxed) > 0) continue;
    ++state.sleepers;
    state.cv.wait(lock, [&state] {
      return state.done ||
             state.ready_count.load(std::memory_order_relaxed) > 0;
    });
    --state.sleepers;
    if (state.done) return;
  }
}

void Executor::ExecuteNode(Graph& graph, RunState& state, NodeId id,
                           int worker) {
  auto& node = graph.nodes_[static_cast<size_t>(id)];
  state.state[static_cast<size_t>(id)].store(RunState::kRunning,
                                             std::memory_order_relaxed);
  const Clock::time_point start = Clock::now();
  bool ok = true;
  try {
    if (node.uses_scratch && scratch_ != nullptr) {
      ScratchLease lease(scratch_);
      tensor::ScratchScope scope(lease.get());
      node.fn();
    } else {
      node.fn();
    }
  } catch (...) {
    std::lock_guard<std::mutex> lock(state.sleep_mu);
    if (!state.first_error) state.first_error = std::current_exception();
    ok = false;
  }
  const double seconds = SecondsSince(start);
  state.seconds[static_cast<size_t>(id)] = seconds;
  if (node_seconds_hist_ != nullptr) node_seconds_hist_->Observe(seconds);
  state.executed.fetch_add(1, std::memory_order_relaxed);
  state.state[static_cast<size_t>(id)].store(
      ok ? RunState::kDone : RunState::kFailed, std::memory_order_release);
  if (ok) {
    if (worker >= 0) ReleaseDependents(graph, state, id, worker);
    // Serial release happens in RunSerial (it owns the stack).
  } else {
    CancelDependents(graph, state, id);
  }
  if (worker >= 0) FinishNodes(state, 1);
}

void Executor::ReleaseDependents(Graph& graph, RunState& state, NodeId id,
                                 int worker) {
  auto& node = graph.nodes_[static_cast<size_t>(id)];
  if (node.dependents.empty()) return;
  NodeId wave_buf[8];
  std::vector<NodeId> wave_overflow;
  size_t wave_size = 0;
  for (NodeId dep : node.dependents) {
    if (state.pending[static_cast<size_t>(dep)].fetch_sub(
            1, std::memory_order_acq_rel) == 1) {
      uint8_t expected = RunState::kWaiting;
      if (state.state[static_cast<size_t>(dep)].compare_exchange_strong(
              expected, RunState::kReady, std::memory_order_relaxed)) {
        if (wave_size < 8) {
          wave_buf[wave_size] = dep;
        } else {
          wave_overflow.push_back(dep);
        }
        ++wave_size;
      }
    }
  }
  if (wave_size == 0) return;
  {
    RunState::Shard& own = state.shards[static_cast<size_t>(worker)];
    std::lock_guard<std::mutex> lock(own.mu);
    // Reverse push: the back of the deque (popped first) is the
    // first-listed dependent — the next stage of the chain just finished.
    for (size_t i = wave_overflow.size(); i-- > 0;) {
      own.queue.push_back(wave_overflow[i]);
    }
    for (size_t i = std::min<size_t>(wave_size, 8); i-- > 0;) {
      own.queue.push_back(wave_buf[i]);
    }
  }
  int64_t depth = state.ready_count.fetch_add(
                      static_cast<int64_t>(wave_size),
                      std::memory_order_relaxed) +
                  static_cast<int64_t>(wave_size);
  if (ready_depth_gauge_ != nullptr) {
    ready_depth_gauge_->Set(static_cast<double>(depth));
  }
  // This worker immediately pops one node itself, so a wave of R ready
  // nodes needs at most R-1 extra workers: wake exactly that many (batched
  // under one lock), never the whole pool.
  if (wave_size > 1) {
    std::lock_guard<std::mutex> lock(state.sleep_mu);
    int wake = static_cast<int>(
        std::min<size_t>(wave_size - 1, static_cast<size_t>(state.sleepers)));
    for (int i = 0; i < wake; ++i) state.cv.notify_one();
  }
}

void Executor::CancelDependents(Graph& graph, RunState& state, NodeId id) {
  std::vector<NodeId> work(graph.nodes_[static_cast<size_t>(id)].dependents);
  size_t cancelled = 0;
  while (!work.empty()) {
    const NodeId d = work.back();
    work.pop_back();
    uint8_t expected = RunState::kWaiting;
    if (state.state[static_cast<size_t>(d)].compare_exchange_strong(
            expected, RunState::kCancelled, std::memory_order_relaxed)) {
      ++cancelled;
      const auto& dependents =
          graph.nodes_[static_cast<size_t>(d)].dependents;
      work.insert(work.end(), dependents.begin(), dependents.end());
    }
  }
  if (cancelled == 0) return;
  state.cancelled.fetch_add(cancelled, std::memory_order_relaxed);
  if (cancelled_counter_ != nullptr) {
    cancelled_counter_->Increment(cancelled);
  }
  FinishNodes(state, cancelled);
}

void Executor::FinishNodes(RunState& state, size_t count) {
  if (state.unfinished.fetch_sub(count, std::memory_order_acq_rel) ==
      count) {
    std::lock_guard<std::mutex> lock(state.sleep_mu);
    state.done = true;
    state.cv.notify_all();
  }
}

void Executor::FinalizeStats(const Graph& graph, RunState& state) {
  double busy = 0.0;
  for (double s : state.seconds) busy += s;
  last_run_.busy_seconds = busy;
  last_run_.executed = state.executed.load(std::memory_order_relaxed);
  last_run_.cancelled = state.cancelled.load(std::memory_order_relaxed);
  last_run_.steals = state.steals.load(std::memory_order_relaxed);

  // Critical path: longest dependency chain weighted by measured node
  // durations, over the topological order computed at validation.
  std::vector<double> path(graph.node_count(), 0.0);
  double critical = 0.0;
  for (NodeId id : state.topo) {
    double longest_dep = 0.0;
    for (NodeId dep : graph.nodes_[static_cast<size_t>(id)].deps) {
      longest_dep = std::max(longest_dep, path[static_cast<size_t>(dep)]);
    }
    path[static_cast<size_t>(id)] =
        longest_dep + state.seconds[static_cast<size_t>(id)];
    critical = std::max(critical, path[static_cast<size_t>(id)]);
  }
  last_run_.critical_path_seconds = critical;

  if (nodes_counter_ != nullptr) {
    nodes_counter_->Increment(last_run_.executed);
    run_seconds_hist_->Observe(last_run_.wall_seconds);
    critical_path_gauge_->Set(critical);
    if (ready_depth_gauge_ != nullptr) ready_depth_gauge_->Set(0.0);
    if (scratch_ != nullptr && scratch_peak_gauge_ != nullptr) {
      scratch_peak_gauge_->Set(static_cast<double>(scratch_->peak_bytes()));
    }
  }
}

}  // namespace goalex::exec
