// BufferPool — recycles wire-frame buffers across messages.
//
// Every message the DSM sends is a freshly serialized `serial::Bytes`
// (vector) that dies as soon as the receiver decoded it, so the per-message
// hot path used to pay one heap allocation per frame (plus one per protocol
// meta-data block). The pool turns that into a free-list round trip:
// acquire() hands out an empty buffer that keeps the capacity of a
// previously released frame, release() shelves a spent buffer for the next
// sender. Once the pool has seen a few messages of each size class, the
// steady-state encode path performs zero heap allocations per message
// (tests/test_buffer_pool.cpp pins this with a counting allocator).
//
// The pool is shared by every layer a frame travels through — site
// runtimes, both transports, and the reliability sublayer — and guarded by
// a mutex so one ThreadTransport pool worker can release what another
// acquired. Recycling is best-effort by design: a buffer
// that leaves the clean path (dropped by the fault injector, captured by a
// trace) is simply freed by its destructor, never leaked.
#pragma once

#include <cstdint>
#include <mutex>
#include <vector>

#include "serial/writer.hpp"

namespace causim::serial {

class BufferPool {
 public:
  /// Buffers retained at most; releases beyond the cap free the buffer
  /// instead (bounds memory under bursty fan-out).
  static constexpr std::size_t kMaxPooled = 4096;

  BufferPool() = default;
  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// An empty buffer, reusing the capacity of a released frame when one is
  /// available.
  Bytes acquire() {
    std::lock_guard lock(mutex_);
    if (free_.empty()) {
      ++misses_;
      return Bytes{};
    }
    ++reuses_;
    Bytes buffer = std::move(free_.back());
    free_.pop_back();
    return buffer;
  }

  /// Shelves `buffer` for a future acquire(). The contents are discarded;
  /// the capacity is what gets recycled.
  void release(Bytes&& buffer) {
    if (buffer.capacity() == 0) return;  // nothing worth keeping
    buffer.clear();
    std::lock_guard lock(mutex_);
    if (free_.size() >= kMaxPooled) return;  // destructor frees it
    free_.push_back(std::move(buffer));
  }

  /// Copy of `bytes` in a pooled buffer (retransmission copies, frame
  /// payload slices).
  Bytes copy(const std::uint8_t* data, std::size_t size) {
    Bytes out = acquire();
    out.assign(data, data + size);
    return out;
  }

  std::size_t pooled() const {
    std::lock_guard lock(mutex_);
    return free_.size();
  }
  /// acquire() calls served from the free list.
  std::uint64_t reuses() const {
    std::lock_guard lock(mutex_);
    return reuses_;
  }
  /// acquire() calls that had to start from an empty buffer.
  std::uint64_t misses() const {
    std::lock_guard lock(mutex_);
    return misses_;
  }

 private:
  mutable std::mutex mutex_;
  std::vector<Bytes> free_;
  std::uint64_t reuses_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace causim::serial
