//===- runtime/UpdateQueue.cpp --------------------------------*- C++ -*-===//

#include "runtime/UpdateQueue.h"

using namespace dsu;

bool UpdateQueue::enqueue(std::shared_ptr<UpdateTransaction> Tx) {
  std::lock_guard<std::mutex> G(Lock);
  if (Tx->Enqueued)
    return false;
  Tx->Enqueued = true;
  Items.push_back(std::move(Tx));
  refreshLocked();
  return true;
}

std::shared_ptr<UpdateTransaction>
UpdateQueue::popActionableIf(bool (*Accept)(const UpdateTransaction &)) {
  std::lock_guard<std::mutex> G(Lock);
  if (Items.empty() || !actionable(*Items.front()) ||
      !Accept(*Items.front())) {
    refreshLocked();
    return nullptr;
  }
  std::shared_ptr<UpdateTransaction> Tx = std::move(Items.front());
  Items.pop_front();
  refreshLocked();
  return Tx;
}

std::shared_ptr<UpdateTransaction> UpdateQueue::front() const {
  std::lock_guard<std::mutex> G(Lock);
  return Items.empty() ? nullptr : Items.front();
}

void UpdateQueue::pushFront(std::shared_ptr<UpdateTransaction> Tx) {
  std::lock_guard<std::mutex> G(Lock);
  Items.push_front(std::move(Tx));
  refreshLocked();
}

void UpdateQueue::refresh() {
  std::lock_guard<std::mutex> G(Lock);
  refreshLocked();
}

void UpdateQueue::refreshLocked() {
  Pending.store(!Items.empty() && actionable(*Items.front()),
                std::memory_order_release);
}

size_t UpdateQueue::depth() const {
  std::lock_guard<std::mutex> G(Lock);
  return Items.size();
}

std::vector<std::shared_ptr<UpdateTransaction>> UpdateQueue::snapshot() const {
  std::lock_guard<std::mutex> G(Lock);
  return std::vector<std::shared_ptr<UpdateTransaction>>(Items.begin(),
                                                         Items.end());
}
