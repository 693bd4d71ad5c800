/**
 * @file
 * A growable first-in first-out queue kept in one power-of-two ring.
 *
 * The cell paths queue small values at a steady rate (a link's cells
 * and credit returns, a NIC's RX FIFO). std::deque allocates and frees
 * a node every few hundred bytes as such a queue moves; a ring reuses
 * one buffer and only grows, doubling, when it is full.
 */
#pragma once

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "util/panic.h"

namespace remora::util {

/** FIFO of default-constructible values in a power-of-two ring. */
template <typename T>
class RingFifo
{
  public:
    /** True when nothing is queued. */
    bool empty() const { return size_ == 0; }

    /** Values queued. */
    size_t size() const { return size_; }

    /** Slots held before the ring next has to grow. */
    size_t capacity() const { return buf_.size(); }

    /** The oldest value; the queue must not be empty. */
    T &
    front()
    {
        REMORA_ASSERT(size_ > 0);
        return buf_[head_];
    }

    /** Append @p value at the back, growing the ring when it is full. */
    void
    push(T value)
    {
        if (size_ == buf_.size()) {
            grow();
        }
        buf_[(head_ + size_) & (buf_.size() - 1)] = std::move(value);
        ++size_;
    }

    /** Drop the oldest value; the queue must not be empty. */
    void
    pop()
    {
        REMORA_ASSERT(size_ > 0);
        head_ = (head_ + 1) & (buf_.size() - 1);
        --size_;
    }

  private:
    static constexpr size_t kMinCapacity = 8;

    /** Double the ring, unwrapping the queued values to its start. */
    void
    grow()
    {
        std::vector<T> next(std::max(kMinCapacity, 2 * buf_.size()));
        for (size_t i = 0; i < size_; ++i) {
            next[i] = std::move(buf_[(head_ + i) & (buf_.size() - 1)]);
        }
        buf_.swap(next);
        head_ = 0;
    }

    std::vector<T> buf_;
    size_t head_ = 0;
    size_t size_ = 0;
};

} // namespace remora::util
