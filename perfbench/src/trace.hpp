#pragma once
// Spans recorded by the benchmark's own decorators around calls into the
// program: nn::Layer (client head, noise, tail; host bodies) and
// split::Channel (client connections). Nothing inside the program is
// instrumented; a span covers exactly one call across the public boundary.
// Also the one decorator every run uses: CountingChannel, for downlink bytes.
//
// Spans live in one preallocated in-memory log per process and are written
// out once, when the process ends its run. Times are steady_clock
// nanoseconds (CLOCK_MONOTONIC on Linux), so logs from the host processes
// and the client merge on one time base.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "nn/layer.hpp"
#include "split/channel.hpp"

namespace perfbench {

inline std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

enum class SpanKind : std::uint8_t { head, noise, tail, body, send, recv };

const char* span_kind_name(SpanKind kind);

struct Span {
    SpanKind kind = SpanKind::head;
    std::int32_t lane = 0;        ///< connection/link index, or global body index
    std::int64_t request = -1;    ///< wire request id where the boundary exposes it
    std::int32_t seq = -1;        ///< reply body index for recv spans
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int64_t bytes = 0;       ///< billed payload bytes for channel spans
};

/// Fixed-capacity, lock-free append log. Spans past the capacity are
/// counted as dropped, never reallocated mid-run.
class SpanLog {
public:
    explicit SpanLog(std::size_t capacity) : spans_(capacity) {}
    void record(const Span& span);
    /// Writes one text line per span ("kind lane request seq start end bytes")
    /// after a header line with the dropped count.
    void write(const std::string& path) const;

private:
    std::vector<Span> spans_;
    std::atomic<std::size_t> next_{0};
};

/// The request id the calling thread is about to submit; head and noise run
/// on the submitting thread, so their spans take it from here.
void set_thread_request(std::int64_t request);
std::int64_t thread_request();

/// nn::Layer decorator: times every forward() of the wrapped layer.
class TracedLayer final : public ens::nn::Layer {
public:
    /// Non-owning: `inner` must outlive this decorator.
    TracedLayer(ens::nn::Layer& inner, SpanKind kind, std::int32_t lane, SpanLog& log);
    /// Owning: a host body handed to BodyHost inside its decorator.
    TracedLayer(ens::nn::LayerPtr inner, SpanKind kind, std::int32_t lane, SpanLog& log);

    ens::Tensor forward(const ens::Tensor& input) override;
    ens::Tensor backward(const ens::Tensor& grad_output) override;
    std::vector<ens::nn::Parameter*> parameters() override;
    std::vector<NamedBuffer> buffers() override;
    std::string name() const override;
    void set_training(bool training) override;
    void on_parameters_changed() override;
    void prepare_inference() override;

private:
    ens::nn::LayerPtr owned_;
    ens::nn::Layer& inner_;
    SpanKind kind_;
    std::int32_t lane_;
    SpanLog& log_;
};

/// Base of the channel decorators below: forwards every call to the
/// wrapped channel, traffic accounting included.
class ForwardingChannel : public ens::split::Channel {
public:
    explicit ForwardingChannel(std::unique_ptr<ens::split::Channel> inner)
        : inner_(std::move(inner)) {}

    void send(std::string message) override { inner_->send(std::move(message)); }
    void send_parts(std::string_view header, std::string_view payload) override {
        inner_->send_parts(header, payload);
    }
    std::string recv() override { return inner_->recv(); }
    bool has_pending() const override { return inner_->has_pending(); }
    void close() override { inner_->close(); }
    void set_recv_timeout(std::chrono::milliseconds timeout) override {
        inner_->set_recv_timeout(timeout);
    }
    ens::split::TrafficStats stats() const override { return inner_->stats(); }
    void reset_stats() override { inner_->reset_stats(); }

protected:
    std::unique_ptr<ens::split::Channel> inner_;
};

/// split::Channel decorator for one client connection, in every run: counts
/// the payload bytes of received reply frames (the program's TcpChannel
/// bills sends only). One add per frame.
class CountingChannel final : public ForwardingChannel {
public:
    using ForwardingChannel::ForwardingChannel;

    std::string recv() override;
    std::uint64_t recv_bytes() const { return recv_bytes_.load(std::memory_order_relaxed); }

private:
    std::atomic<std::uint64_t> recv_bytes_{0};
};

/// split::Channel decorator for one client connection in the traced run:
/// times each send (request id from the frame's request tag) and each recv
/// (request id and body index from the reply tag).
class TracedChannel final : public ForwardingChannel {
public:
    TracedChannel(std::unique_ptr<ens::split::Channel> inner, std::int32_t lane, SpanLog& log);

    void send_parts(std::string_view header, std::string_view payload) override;
    std::string recv() override;

private:
    std::int32_t lane_;
    SpanLog& log_;
};

}  // namespace perfbench
