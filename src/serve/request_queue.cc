#include "serve/request_queue.h"

namespace goalex::serve {

RequestQueue::~RequestQueue() {
  Drain();
  for (std::deque<Request*>& fifo : ready_) {
    for (Request* request : fifo) delete request;
    fifo.clear();
  }
}

void RequestQueue::Push(Request* request) {
  depth_.fetch_add(1, std::memory_order_relaxed);
  Request* head = incoming_.load(std::memory_order_relaxed);
  do {
    request->next = head;
  } while (!incoming_.compare_exchange_weak(head, request,
                                            std::memory_order_release,
                                            std::memory_order_relaxed));
}

size_t RequestQueue::Drain() {
  Request* chain = incoming_.exchange(nullptr, std::memory_order_acquire);
  if (chain == nullptr) return 0;
  // The stack is newest-first; reverse into a temporary oldest-first chain
  // before appending so each FIFO stays in arrival order.
  Request* reversed = nullptr;
  size_t moved = 0;
  while (chain != nullptr) {
    Request* next = chain->next;
    chain->next = reversed;
    reversed = chain;
    chain = next;
    ++moved;
  }
  while (reversed != nullptr) {
    Request* next = reversed->next;
    reversed->next = nullptr;
    ready_[static_cast<size_t>(reversed->priority)].push_back(reversed);
    reversed = next;
  }
  return moved;
}

Request* RequestQueue::Pop() {
  for (std::deque<Request*>& fifo : ready_) {
    if (!fifo.empty()) {
      Request* request = fifo.front();
      fifo.pop_front();
      depth_.fetch_sub(1, std::memory_order_relaxed);
      return request;
    }
  }
  return nullptr;
}

size_t RequestQueue::ready_size() const {
  size_t total = 0;
  for (const std::deque<Request*>& fifo : ready_) total += fifo.size();
  return total;
}

}  // namespace goalex::serve
