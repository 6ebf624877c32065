// Coroutine frame allocation for every promise type of the execution
// substrate (Co<T>, the executor's detached roots).
//
// Actors call coroutines on every message, so a frame is allocated and
// freed per call. Here frames come from per-thread free lists in
// kFrameClassBytes size classes up to kFramePoolMaxBytes: a warm thread
// reuses a frame of the same class without touching the global heap, and
// a frame freed on another thread than the one that allocated it (strands
// move between executor threads) joins the freeing thread's list instead
// of crossing malloc's arena locks. Each class keeps at most
// kFramePoolCap free frames; larger frames, frees beyond the cap and frees
// after the thread's lists were released at thread exit go to the global
// heap. Free frames are poisoned under AddressSanitizer, so a resume
// after destroy() is still reported.
#pragma once

#include <cstddef>

namespace deisa::exec {

inline constexpr std::size_t kFrameClassBytes = 64;
inline constexpr std::size_t kFramePoolMaxBytes = 4096;
inline constexpr std::size_t kFramePoolCap = 256;

namespace detail {

/// A block of at least `bytes` bytes for a coroutine frame.
void* frame_alloc(std::size_t bytes);
/// Return a block from frame_alloc(bytes), with the same `bytes`, on any
/// thread.
void frame_free(void* frame, std::size_t bytes) noexcept;

/// Base of every substrate promise type: routes the frame's allocation
/// through the pool (the compiler looks operator new/delete up in the
/// promise type, and passes the frame size to both).
struct PooledFrame {
  static void* operator new(std::size_t bytes) { return frame_alloc(bytes); }
  static void operator delete(void* frame, std::size_t bytes) noexcept {
    frame_free(frame, bytes);
  }
};

}  // namespace detail

}  // namespace deisa::exec
