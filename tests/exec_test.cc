// Tests of the task-graph executor: dependency ordering (diamond/fan-in),
// cycle rejection, error propagation with cancellation of dependents, the
// 1k-node stress graph under scheduling jitter, batched worker wakeups, and
// the buffer-lifetime pass (scratch lease planning + pooled allocators).
#include "exec/executor.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "exec/graph.h"
#include "exec/lifetime.h"
#include "obs/metrics.h"
#include "runtime/stats.h"
#include "runtime/thread_pool.h"
#include "tensor/scratch.h"

namespace goalex::exec {
namespace {

void SpinFor(std::chrono::microseconds d) {
  const auto until = std::chrono::steady_clock::now() + d;
  while (std::chrono::steady_clock::now() < until) {
  }
}

TEST(GraphTest, AddRejectsNothingAndBuildsDiamond) {
  Graph graph;
  const NodeId a = graph.Add([] {});
  const NodeId b = graph.Add([] {}, {a});
  const NodeId c = graph.Add([] {}, {a});
  const NodeId d = graph.Add([] {}, {b, c});
  EXPECT_EQ(graph.node_count(), 4u);
  EXPECT_EQ(graph.deps(d), (std::vector<NodeId>{b, c}));
  EXPECT_TRUE(graph.Validate().ok());
}

TEST(GraphTest, AddEdgeRejectsUnknownAndSelfEdges) {
  Graph graph;
  const NodeId a = graph.Add([] {});
  EXPECT_FALSE(graph.AddEdge(a, a).ok());
  EXPECT_FALSE(graph.AddEdge(a, 7).ok());
  EXPECT_FALSE(graph.AddEdge(-1, a).ok());
}

TEST(GraphTest, ValidateRejectsCycles) {
  Graph graph;
  const NodeId a = graph.Add([] {});
  const NodeId b = graph.Add([] {}, {a});
  ASSERT_TRUE(graph.AddEdge(b, a).ok());  // Legal edge, illegal graph.
  EXPECT_FALSE(graph.Validate().ok());
}

TEST(ExecutorTest, EmptyGraphIsANoOp) {
  runtime::ThreadPool pool(2);
  Executor executor(&pool);
  Graph graph;
  EXPECT_TRUE(executor.Run(graph).ok());
  EXPECT_EQ(executor.last_run().executed, 0u);
}

TEST(ExecutorTest, RunRejectsCyclicGraphWithoutExecutingAnything) {
  runtime::ThreadPool pool(2);
  Executor executor(&pool);
  Graph graph;
  std::atomic<int> ran{0};
  const NodeId a = graph.Add([&ran] { ran.fetch_add(1); });
  const NodeId b = graph.Add([&ran] { ran.fetch_add(1); }, {a});
  ASSERT_TRUE(graph.AddEdge(b, a).ok());
  const Status status = executor.Run(graph);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(ran.load(), 0);
}

// Runs a diamond and asserts every dependency finished before its
// dependent started, at both serial and parallel worker counts.
TEST(ExecutorTest, DiamondRespectsDependencyOrder) {
  for (int threads : {1, 4}) {
    runtime::ThreadPool pool(threads);
    Executor executor(&pool);
    Graph graph;
    std::atomic<uint32_t> done_mask{0};
    auto node = [&done_mask](uint32_t bit, uint32_t required) {
      return [&done_mask, bit, required] {
        EXPECT_EQ(done_mask.load() & required, required);
        done_mask.fetch_or(bit);
      };
    };
    const NodeId a = graph.Add(node(1u, 0u));
    const NodeId b = graph.Add(node(2u, 1u), {a});
    const NodeId c = graph.Add(node(4u, 1u), {a});
    graph.Add(node(8u, 1u | 2u | 4u), {b, c});
    ASSERT_TRUE(executor.Run(graph).ok());
    EXPECT_EQ(done_mask.load(), 15u);
    EXPECT_EQ(executor.last_run().executed, 4u);
    EXPECT_EQ(executor.last_run().cancelled, 0u);
  }
}

// A fan-in reduction node must observe every producer's slot, and walking
// the slots in ascending order makes the reduced value deterministic.
TEST(ExecutorTest, FanInReductionSeesAllInputsInFixedOrder) {
  for (int threads : {1, 8}) {
    runtime::ThreadPool pool(threads);
    Executor executor(&pool);
    Graph graph;
    constexpr int kProducers = 64;
    std::vector<double> slots(kProducers, 0.0);
    std::vector<NodeId> producers;
    for (int i = 0; i < kProducers; ++i) {
      producers.push_back(graph.Add([&slots, i] {
        slots[static_cast<size_t>(i)] = static_cast<double>(i) * 0.5;
      }));
    }
    double reduced = 0.0;
    graph.Add(
        [&slots, &reduced] {
          for (double v : slots) reduced += v;  // Ascending-slot order.
        },
        producers);
    ASSERT_TRUE(executor.Run(graph).ok());
    double expected = 0.0;
    for (int i = 0; i < kProducers; ++i) expected += i * 0.5;
    EXPECT_EQ(reduced, expected);
  }
}

TEST(ExecutorTest, SerialExecutionOrderIsDeterministic) {
  std::vector<int> first_order;
  for (int rep = 0; rep < 3; ++rep) {
    runtime::ThreadPool pool(1);
    Executor executor(&pool);
    Graph graph;
    std::vector<int> order;
    const NodeId a = graph.Add([&order] { order.push_back(0); });
    const NodeId b = graph.Add([&order] { order.push_back(1); });
    graph.Add([&order] { order.push_back(2); }, {a});
    graph.Add([&order] { order.push_back(3); }, {b});
    graph.Add([&order] { order.push_back(4); }, {a, b});
    ASSERT_TRUE(executor.Run(graph).ok());
    if (rep == 0) {
      first_order = order;
    } else {
      EXPECT_EQ(order, first_order);
    }
  }
}

// First error cancels every transitive dependent, independent chains still
// run, and Run rethrows the error after the graph settles.
TEST(ExecutorTest, ErrorCancelsDependentsButNotIndependentNodes) {
  for (int threads : {1, 4}) {
    runtime::ThreadPool pool(threads);
    Executor executor(&pool);
    Graph graph;
    std::atomic<int> downstream_ran{0};
    std::atomic<int> independent_ran{0};
    const NodeId boom =
        graph.Add([] { throw std::runtime_error("node failed"); });
    const NodeId child =
        graph.Add([&downstream_ran] { downstream_ran.fetch_add(1); }, {boom});
    graph.Add([&downstream_ran] { downstream_ran.fetch_add(1); }, {child});
    graph.Add([&independent_ran] { independent_ran.fetch_add(1); });
    graph.Add([&independent_ran] { independent_ran.fetch_add(1); });
    EXPECT_THROW(executor.Run(graph), std::runtime_error);
    EXPECT_EQ(downstream_ran.load(), 0);
    EXPECT_EQ(independent_ran.load(), 2);
    EXPECT_EQ(executor.last_run().cancelled, 2u);
    // The executor is reusable after a failed run.
    Graph clean;
    std::atomic<int> ran{0};
    clean.Add([&ran] { ran.fetch_add(1); });
    EXPECT_TRUE(executor.Run(clean).ok());
    EXPECT_EQ(ran.load(), 1);
  }
}

// 1k-node layered DAG under scheduling jitter: every node's value is a
// deterministic function of its dependencies' values, so any ordering
// violation or lost node corrupts the checksum.
TEST(ExecutorStressTest, ThousandNodeGraphIsExactUnderJitter) {
  constexpr int kNodes = 1000;
  constexpr int kLayerWidth = 50;
  uint64_t expected_checksum = 0;
  for (int rep = 0; rep < 3; ++rep) {
    runtime::ThreadPool pool(8);
    Executor executor(&pool);
    Graph graph;
    std::vector<uint64_t> value(kNodes, 0);
    std::vector<std::atomic<bool>> finished(kNodes);
    for (auto& f : finished) f.store(false);
    for (int i = 0; i < kNodes; ++i) {
      std::vector<NodeId> deps;
      // Depend on up to three nodes of the previous layer (deterministic
      // pseudo-random picks, so every rep builds the same graph).
      if (i >= kLayerWidth) {
        const int layer_base = (i / kLayerWidth - 1) * kLayerWidth;
        for (int k = 0; k < 3; ++k) {
          const int pick =
              layer_base + static_cast<int>((1469598103934665603ull *
                                             static_cast<uint64_t>(i * 3 + k)) %
                                            kLayerWidth);
          deps.push_back(static_cast<NodeId>(pick));
        }
      }
      graph.Add(
          [&value, &finished, deps, i] {
            // Scheduling jitter: stagger node durations so steals and
            // wakeup waves happen at different interleavings each run.
            if (i % 7 == 0) SpinFor(std::chrono::microseconds(i % 97));
            uint64_t v = static_cast<uint64_t>(i) + 1;
            for (NodeId dep : deps) {
              EXPECT_TRUE(finished[static_cast<size_t>(dep)].load());
              v += 31 * value[static_cast<size_t>(dep)];
            }
            value[static_cast<size_t>(i)] = v;
            finished[static_cast<size_t>(i)].store(true);
          },
          deps);
    }
    ASSERT_TRUE(executor.Run(graph).ok());
    EXPECT_EQ(executor.last_run().executed,
              static_cast<size_t>(kNodes));
    uint64_t checksum = 0;
    for (uint64_t v : value) checksum = checksum * 1099511628211ull + v;
    if (rep == 0) {
      expected_checksum = checksum;
    } else {
      EXPECT_EQ(checksum, expected_checksum);
    }
  }
}

// One root releases a wide wave into its own worker's shard, so a wave
// node that runs on the other worker was stolen. Each wave node holds its
// worker until wave nodes have started on two threads: that makes the
// steal necessary, not a matter of how fast the second worker wakes. The
// root sleeps so the other worker is asleep when the wave lands: the
// release must wake it (a notify that reached Run's caller instead left
// it asleep through the whole wave).
TEST(ExecutorTest, WorkStealingMovesWaveWorkAcrossShards) {
  runtime::ThreadPool pool(2);
  Executor executor(&pool);
  Graph graph;
  std::mutex mu;
  std::condition_variable cv;
  std::set<std::thread::id> threads;
  bool timed_out = false;
  const NodeId root = graph.Add(
      [] { std::this_thread::sleep_for(std::chrono::milliseconds(20)); });
  for (int i = 0; i < 8; ++i) {
    graph.Add(
        [&] {
          std::unique_lock<std::mutex> lock(mu);
          threads.insert(std::this_thread::get_id());
          cv.notify_all();
          if (!cv.wait_for(lock, std::chrono::seconds(10), [&] {
                return threads.size() >= 2 || timed_out;
              })) {
            timed_out = true;  // Later nodes stop waiting too.
            cv.notify_all();
          }
        },
        {root});
  }
  ASSERT_TRUE(executor.Run(graph).ok());
  EXPECT_FALSE(timed_out)
      << "no wave node started on a second worker within 10 s";
  EXPECT_GE(executor.last_run().steals, 1u);
}

TEST(ExecutorTest, CriticalPathCoversTheLongestChain) {
  runtime::ThreadPool pool(4);
  Executor executor(&pool);
  Graph graph;
  // Chain of three 2 ms nodes plus a wide layer of fast nodes: the
  // critical path must be at least the chain's duration, and busy time at
  // least the critical path.
  NodeId prev = kInvalidNode;
  for (int i = 0; i < 3; ++i) {
    prev = graph.Add(
        [] { SpinFor(std::chrono::microseconds(2000)); },
        prev == kInvalidNode ? std::vector<NodeId>{}
                             : std::vector<NodeId>{prev});
  }
  for (int i = 0; i < 4; ++i) graph.Add([] {});
  ASSERT_TRUE(executor.Run(graph).ok());
  const RunStats& stats = executor.last_run();
  EXPECT_GE(stats.critical_path_seconds, 0.006 * 0.9);
  EXPECT_GE(stats.busy_seconds, stats.critical_path_seconds);
  EXPECT_GT(stats.wall_seconds, 0.0);
}

// Satellite regression: overlapping pipeline stages must not double-count
// busy time. Two parallel chains of spin nodes on two workers overlap
// almost perfectly; summing per-node durations over ONE shared wall clock
// keeps utilization <= ~1, where the pre-graph staged paths (each stage
// timing its own wall) would have reported ~2x.
TEST(ExecutorTest, PipelinedUtilizationDoesNotDoubleCountOverlap) {
  runtime::ThreadPool pool(2);
  Executor executor(&pool);
  Graph graph;
  for (int chain = 0; chain < 2; ++chain) {
    NodeId prev = kInvalidNode;
    for (int stage = 0; stage < 4; ++stage) {
      prev = graph.Add(
          [] { SpinFor(std::chrono::microseconds(1500)); },
          prev == kInvalidNode ? std::vector<NodeId>{}
                               : std::vector<NodeId>{prev});
    }
  }
  ASSERT_TRUE(executor.Run(graph).ok());

  runtime::Stats stats;
  stats.items = 8;
  stats.threads = pool.thread_count();
  stats.seconds = executor.last_run().wall_seconds;
  stats.busy_seconds = executor.last_run().busy_seconds;
  EXPECT_GT(stats.Utilization(), 0.05);
  EXPECT_LE(stats.Utilization(), 1.05);
  // Busy time can never exceed wall * workers (the double-count signature).
  EXPECT_LE(stats.busy_seconds, stats.seconds * 2 * 1.05);
}

TEST(ThreadPoolBatchTest, SubmitBatchRunsEverythingAndDrainsQueueGauge) {
  const bool metrics = obs::Active();
  if (metrics) obs::MetricsRegistry::Default().Reset();
  {
    runtime::ThreadPool pool(3);
    std::atomic<int> ran{0};
    std::vector<std::function<void()>> tasks;
    for (int i = 0; i < 16; ++i) {
      tasks.push_back([&ran] { ran.fetch_add(1); });
    }
    pool.SubmitBatch(std::move(tasks));
    pool.Wait();
    EXPECT_EQ(ran.load(), 16);
    if (metrics) {
      obs::MetricsRegistry& registry = obs::MetricsRegistry::Default();
      // Queue-depth gauge still ends drained with batched wakeups, and
      // every task is accounted exactly once.
      EXPECT_EQ(registry.GetGauge("runtime.pool.queue_depth")->Value(), 0.0);
      EXPECT_EQ(registry.GetCounter("runtime.pool.tasks")->Value(), 16u);
    }
  }
  if (metrics) obs::MetricsRegistry::Default().Reset();
}

TEST(ThreadPoolBatchTest, SubmitBatchOnSerialPoolRunsInlineInOrder) {
  runtime::ThreadPool pool(1);
  std::vector<int> order;
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 4; ++i) {
    tasks.push_back([&order, i] { order.push_back(i); });
  }
  pool.SubmitBatch(std::move(tasks));
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(LifetimePlanTest, MapGraphIsBoundedByWorkersAndScratchNodes) {
  Graph graph;
  for (int i = 0; i < 16; ++i) {
    graph.Add([] {}, {}, NodeOptions{/*uses_scratch=*/true});
  }
  EXPECT_EQ(PlanScratchLifetimes(graph, 4).lease_count, 4);
  EXPECT_EQ(PlanScratchLifetimes(graph, 32).lease_count, 16);
  EXPECT_EQ(PlanScratchLifetimes(graph, 4).scratch_nodes, 16u);
}

TEST(LifetimePlanTest, ChainOfScratchNodesNeedsOneLease) {
  Graph graph;
  NodeId prev = kInvalidNode;
  for (int i = 0; i < 8; ++i) {
    prev = graph.Add([] {},
                     prev == kInvalidNode ? std::vector<NodeId>{}
                                          : std::vector<NodeId>{prev},
                     NodeOptions{/*uses_scratch=*/true});
  }
  const LifetimePlan plan = PlanScratchLifetimes(graph, 8);
  EXPECT_EQ(plan.longest_scratch_chain, 8u);
  EXPECT_EQ(plan.lease_count, 1);
}

TEST(LifetimePlanTest, MixedGraphUsesAntichainBound) {
  // Diamond of scratch nodes: S = 4, longest chain L = 3 (a -> b -> d), so
  // at most S - L + 1 = 2 can ever overlap, whatever the worker count.
  Graph graph;
  const NodeId a = graph.Add([] {}, {}, NodeOptions{true});
  const NodeId b = graph.Add([] {}, {a}, NodeOptions{true});
  const NodeId c = graph.Add([] {}, {a}, NodeOptions{true});
  graph.Add([] {}, {b, c}, NodeOptions{true});
  EXPECT_EQ(PlanScratchLifetimes(graph, 8).lease_count, 2);
}

TEST(LifetimePlanTest, NonScratchNodesDoNotConsumeLeases) {
  Graph graph;
  for (int i = 0; i < 32; ++i) graph.Add([] {});
  graph.Add([] {}, {}, NodeOptions{true});
  const LifetimePlan plan = PlanScratchLifetimes(graph, 8);
  EXPECT_EQ(plan.scratch_nodes, 1u);
  EXPECT_EQ(plan.lease_count, 1);
}

TEST(ScratchPoolTest, LeasesAreRecycledNotReallocated) {
  ScratchPool scratch;
  scratch.EnsureCapacity(2);
  EXPECT_EQ(scratch.capacity(), 2);
  scratch.EnsureCapacity(1);  // Monotone: never shrinks.
  EXPECT_EQ(scratch.capacity(), 2);

  tensor::ScratchAllocator* first = scratch.Acquire();
  ASSERT_NE(first, nullptr);
  scratch.Release(first);
  tensor::ScratchAllocator* second = scratch.Acquire();
  EXPECT_EQ(second, first);  // LIFO free list reuses the warm allocator.
  scratch.Release(second);
  EXPECT_EQ(scratch.resident_allocators(), 1);
}

// Scratch-tagged nodes run inside a leased ScratchScope: storage recycles
// across node executions and reused blocks come back zero-filled, so which
// lease a node gets can never change results.
TEST(ScratchPoolTest, ExecutorLeasesRecycleZeroFilledStorage) {
  runtime::ThreadPool pool(2);
  ScratchPool scratch;
  Executor executor(&pool, &scratch);
  for (int round = 0; round < 3; ++round) {
    Graph graph;
    for (int i = 0; i < 4; ++i) {
      graph.Add(
          [] {
            std::shared_ptr<std::vector<float>> block =
                tensor::AllocateTensorStorage(256);
            for (float v : *block) EXPECT_EQ(v, 0.0f);
            (*block)[0] = 123.0f;  // Dirty it for the next tenant.
          },
          {}, NodeOptions{/*uses_scratch=*/true});
    }
    ASSERT_TRUE(executor.Run(graph).ok());
  }
  EXPECT_GT(scratch.reuse_count(), 0u);
  EXPECT_LE(scratch.resident_allocators(), 2);
  EXPECT_GT(scratch.peak_bytes(), 0u);
}

}  // namespace
}  // namespace goalex::exec
