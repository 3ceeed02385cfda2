/**
 * @file
 * Tracer / TraceBuffer implementation.
 */

#include "obs/trace.hh"

#include <algorithm>

namespace cactid::obs {

std::vector<TraceEvent>
TraceBuffer::events() const
{
    std::vector<TraceEvent> out;
    out.reserve(size_);
    // Oldest event sits at head_ once the ring has wrapped.
    const std::size_t start =
        size_ == ring_.size() ? head_ : (head_ + ring_.size() - size_) %
                                            ring_.size();
    for (std::size_t i = 0; i < size_; ++i)
        out.push_back(ring_[(start + i) % ring_.size()]);
    return out;
}

std::vector<TraceEvent>
TraceBuffer::take()
{
    std::vector<TraceEvent> out = events();
    clear();
    return out;
}

Tracer::Tracer() : epoch_(std::chrono::steady_clock::now()) {}

Tracer &
Tracer::instance()
{
    static Tracer tracer;
    return tracer;
}

TraceBuffer &
Tracer::local()
{
    thread_local TraceBuffer *mine = nullptr;
    if (!mine) {
        const std::lock_guard<std::mutex> lock(mtx_);
        buffers_.push_back(std::make_unique<TraceBuffer>());
        buffers_.back()->setTid(
            static_cast<std::uint32_t>(buffers_.size() - 1));
        mine = buffers_.back().get();
    }
    return *mine;
}

std::uint64_t
Tracer::nowMicros() const
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - epoch_)
            .count());
}

std::vector<TraceEvent>
Tracer::collect() const
{
    std::vector<TraceEvent> all;
    {
        const std::lock_guard<std::mutex> lock(mtx_);
        for (const auto &buf : buffers_) {
            const std::vector<TraceEvent> ev = buf->events();
            all.insert(all.end(), ev.begin(), ev.end());
        }
    }
    std::stable_sort(all.begin(), all.end(),
                     [](const TraceEvent &a, const TraceEvent &b) {
                         return a.ts < b.ts;
                     });
    return all;
}

std::uint64_t
Tracer::dropped() const
{
    const std::lock_guard<std::mutex> lock(mtx_);
    std::uint64_t n = 0;
    for (const auto &buf : buffers_)
        n += buf->dropped();
    return n;
}

std::size_t
Tracer::ringCount() const
{
    const std::lock_guard<std::mutex> lock(mtx_);
    return buffers_.size();
}

} // namespace cactid::obs
