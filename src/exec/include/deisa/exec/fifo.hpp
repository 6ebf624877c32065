// FIFO queue over one growable ring buffer, for the substrate's wait
// queues (Event, Channel, Semaphore) and the threaded executor's strand
// and run queues.
//
// Unlike std::deque, constructing one allocates nothing (a deque
// allocates its block map and a first block up front, and every
// primitive constructs a few), and once the buffer has reached the
// queue's high-water mark pushes and pops allocate nothing either.
// A popped element is destroyed at once, so it holds no resource while
// its slot waits for reuse.
#pragma once

#include <cstddef>
#include <memory>
#include <type_traits>
#include <utility>

#include "deisa/util/error.hpp"

namespace deisa::exec {

template <typename T>
class Fifo {
  // grow() moves elements one by one; a throwing move would leave the
  // queue half moved.
  static_assert(std::is_nothrow_move_constructible_v<T>);

public:
  Fifo() = default;
  Fifo(const Fifo&) = delete;
  Fifo& operator=(const Fifo&) = delete;
  ~Fifo() {
    clear();
    if (buf_ != nullptr) std::allocator<T>().deallocate(buf_, cap_);
  }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  void push_back(T value) {
    if (size_ == cap_) grow();
    std::construct_at(buf_ + ((head_ + size_) & (cap_ - 1)),
                      std::move(value));
    ++size_;
  }

  T pop_front() {
    DEISA_ASSERT(size_ > 0, "pop_front() of an empty queue");
    T value = std::move(buf_[head_]);
    std::destroy_at(buf_ + head_);
    head_ = (head_ + 1) & (cap_ - 1);
    --size_;
    return value;
  }

  /// Destroy every element; the buffer is kept for reuse.
  void clear() {
    while (size_ > 0) {
      std::destroy_at(buf_ + head_);
      head_ = (head_ + 1) & (cap_ - 1);
      --size_;
    }
    head_ = 0;
  }

  void swap(Fifo& other) noexcept {
    std::swap(buf_, other.buf_);
    std::swap(cap_, other.cap_);
    std::swap(head_, other.head_);
    std::swap(size_, other.size_);
  }

private:
  static constexpr std::size_t kFirstCapacity = 4;

  // Capacity stays a power of two, so wrapping is a mask.
  void grow() {
    const std::size_t cap = cap_ == 0 ? kFirstCapacity : 2 * cap_;
    T* buf = std::allocator<T>().allocate(cap);
    for (std::size_t i = 0; i < size_; ++i) {
      T* from = buf_ + ((head_ + i) & (cap_ - 1));
      std::construct_at(buf + i, std::move(*from));
      std::destroy_at(from);
    }
    if (buf_ != nullptr) std::allocator<T>().deallocate(buf_, cap_);
    buf_ = buf;
    cap_ = cap;
    head_ = 0;
  }

  T* buf_ = nullptr;
  std::size_t cap_ = 0;
  std::size_t head_ = 0;  // index of the front element
  std::size_t size_ = 0;
};

}  // namespace deisa::exec
