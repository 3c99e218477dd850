#ifndef GOALEX_SERVE_REQUEST_QUEUE_H_
#define GOALEX_SERVE_REQUEST_QUEUE_H_

#include <atomic>
#include <cstddef>
#include <deque>

#include "serve/request.h"

namespace goalex::serve {

/// Lock-light multi-producer single-consumer request queue.
///
/// Producers push with a lock-free Treiber-stack exchange (one CAS, no
/// mutex, no allocation beyond the node itself); the single consumer (the
/// scheduler thread) periodically drains the whole pending stack in one
/// atomic exchange and restores arrival order by reversing it into
/// per-priority FIFOs. Priority-aware dequeue then pops interactive
/// requests strictly before bulk ones, FIFO within a class.
///
/// Thread contract: Push/depth are safe from any thread; Drain/Pop/
/// ready_size are consumer-thread only.
class RequestQueue {
 public:
  RequestQueue() = default;
  RequestQueue(const RequestQueue&) = delete;
  RequestQueue& operator=(const RequestQueue&) = delete;

  /// Deletes any requests still held (normally the scheduler completes or
  /// fails them all first).
  ~RequestQueue();

  /// Producer side: takes ownership of `request` and makes it visible to
  /// the consumer. Lock-free; never blocks.
  void Push(Request* request);

  /// Pending requests (pushed, not yet popped). Approximate under
  /// concurrent pushes; this is the depth signal admission control reads.
  size_t depth() const { return depth_.load(std::memory_order_relaxed); }

  /// Consumer side: moves everything pushed since the last drain into the
  /// per-priority ready FIFOs, in arrival order. Returns how many moved.
  size_t Drain();

  /// Consumer side: pops the next request — interactive before bulk, FIFO
  /// within a class. Returns nullptr when no drained request is ready
  /// (there may still be undrained pushes; call Drain first).
  Request* Pop();

  /// Consumer side: drained-but-unscheduled request count.
  size_t ready_size() const;

 private:
  /// Incoming Treiber stack head (newest first).
  std::atomic<Request*> incoming_{nullptr};
  std::atomic<size_t> depth_{0};

  /// Consumer-only ready FIFOs, one per priority class.
  std::deque<Request*> ready_[kPriorityCount];
};

}  // namespace goalex::serve

#endif  // GOALEX_SERVE_REQUEST_QUEUE_H_
