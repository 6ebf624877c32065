#include "deisa/exec/frame_pool.hpp"

#include <sanitizer/asan_interface.h>

#include <cstdint>
#include <new>

namespace deisa::exec::detail {

namespace {

constexpr std::size_t kClasses = kFramePoolMaxBytes / kFrameClassBytes;

struct FreeFrame {
  FreeFrame* next;
};

enum class State : std::uint8_t { kUnarmed, kLive, kGone };

// Trivially destructible and constant-initialized, so it is readable for
// the whole life of the thread, during the destruction of its other
// thread_locals too; `state` says whether frees may still be cached.
struct Lists {
  FreeFrame* head[kClasses];
  std::uint32_t count[kClasses];
  State state;
};

thread_local Lists tls_lists{};

constexpr std::size_t class_of(std::size_t bytes) {
  return (bytes - 1) / kFrameClassBytes;
}
constexpr std::size_t class_bytes(std::size_t c) {
  return (c + 1) * kFrameClassBytes;
}

// Frees the calling thread's cached frames when the thread exits (the
// leak checker runs after the main thread's thread_locals are gone).
struct Reaper {
  Reaper() = default;
  Reaper(const Reaper&) = delete;
  Reaper& operator=(const Reaper&) = delete;
  ~Reaper() {
    Lists& l = tls_lists;
    l.state = State::kGone;
    for (std::size_t c = 0; c < kClasses; ++c) {
      while (FreeFrame* f = l.head[c]) {
        ASAN_UNPOISON_MEMORY_REGION(f, class_bytes(c));
        l.head[c] = f->next;
        ::operator delete(f);
      }
      l.count[c] = 0;
    }
  }
};

void arm(Lists& l) {
  thread_local Reaper reaper;  // registers the thread-exit release
  l.state = State::kLive;
}

}  // namespace

void* frame_alloc(std::size_t bytes) {
  if (bytes > kFramePoolMaxBytes) return ::operator new(bytes);
  Lists& l = tls_lists;
  const std::size_t c = class_of(bytes);
  if (FreeFrame* f = l.head[c]) {
    ASAN_UNPOISON_MEMORY_REGION(f, class_bytes(c));
    l.head[c] = f->next;
    --l.count[c];
    return f;
  }
  return ::operator new(class_bytes(c));
}

void frame_free(void* frame, std::size_t bytes) noexcept {
  Lists& l = tls_lists;
  const std::size_t c = class_of(bytes);
  if (bytes > kFramePoolMaxBytes || l.state == State::kGone ||
      l.count[c] >= kFramePoolCap) {
    ::operator delete(frame);
    return;
  }
  if (l.state == State::kUnarmed) arm(l);
  l.head[c] = new (frame) FreeFrame{l.head[c]};
  ++l.count[c];
  ASAN_POISON_MEMORY_REGION(frame, class_bytes(c));
}

}  // namespace deisa::exec::detail
