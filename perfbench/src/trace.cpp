#include "trace.hpp"

#include <cstdio>
#include <stdexcept>
#include <utility>

#include "serve/protocol.hpp"

namespace perfbench {

const char* span_kind_name(SpanKind kind) {
    switch (kind) {
        case SpanKind::head: return "head";
        case SpanKind::noise: return "noise";
        case SpanKind::tail: return "tail";
        case SpanKind::body: return "body";
        case SpanKind::send: return "send";
        case SpanKind::recv: return "recv";
    }
    return "unknown";
}

void SpanLog::record(const Span& span) {
    const std::size_t slot = next_.fetch_add(1, std::memory_order_relaxed);
    if (slot < spans_.size()) {
        spans_[slot] = span;
    }
}

void SpanLog::write(const std::string& path) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) {
        throw std::runtime_error("cannot write span log " + path);
    }
    const std::size_t recorded = next_.load();
    const std::size_t kept = recorded < spans_.size() ? recorded : spans_.size();
    std::fprintf(out, "dropped %zu\n", recorded - kept);
    for (std::size_t i = 0; i < kept; ++i) {
        const Span& s = spans_[i];
        std::fprintf(out, "%s %d %lld %d %lld %lld %lld\n", span_kind_name(s.kind), s.lane,
                     static_cast<long long>(s.request), s.seq,
                     static_cast<long long>(s.start_ns), static_cast<long long>(s.end_ns),
                     static_cast<long long>(s.bytes));
    }
    if (std::fclose(out) != 0) {
        throw std::runtime_error("cannot finish span log " + path);
    }
}

namespace {
thread_local std::int64_t g_thread_request = -1;
}

void set_thread_request(std::int64_t request) { g_thread_request = request; }
std::int64_t thread_request() { return g_thread_request; }

// ------------------------------------------------------------ TracedLayer

TracedLayer::TracedLayer(ens::nn::Layer& inner, SpanKind kind, std::int32_t lane, SpanLog& log)
    : inner_(inner), kind_(kind), lane_(lane), log_(log) {
    training_ = inner.training();
}

TracedLayer::TracedLayer(ens::nn::LayerPtr inner, SpanKind kind, std::int32_t lane,
                         SpanLog& log)
    : owned_(std::move(inner)), inner_(*owned_), kind_(kind), lane_(lane), log_(log) {
    training_ = inner_.training();
}

ens::Tensor TracedLayer::forward(const ens::Tensor& input) {
    Span span;
    span.kind = kind_;
    span.lane = lane_;
    span.request = thread_request();
    span.start_ns = now_ns();
    ens::Tensor output = inner_.forward(input);
    span.end_ns = now_ns();
    log_.record(span);
    return output;
}

ens::Tensor TracedLayer::backward(const ens::Tensor& grad_output) {
    return inner_.backward(grad_output);
}

std::vector<ens::nn::Parameter*> TracedLayer::parameters() { return inner_.parameters(); }

std::vector<ens::nn::Layer::NamedBuffer> TracedLayer::buffers() { return inner_.buffers(); }

std::string TracedLayer::name() const { return inner_.name(); }

void TracedLayer::set_training(bool training) {
    training_ = training;
    inner_.set_training(training);
}

void TracedLayer::on_parameters_changed() { inner_.on_parameters_changed(); }

void TracedLayer::prepare_inference() {
    training_ = false;
    inner_.prepare_inference();
}

// ------------------------------------------------------- channel decorators

std::string CountingChannel::recv() {
    std::string frame = inner_->recv();
    if (frame.size() >= ens::serve::kReplyTagBytes) {
        recv_bytes_.fetch_add(frame.size() - ens::serve::kReplyTagBytes,
                              std::memory_order_relaxed);
    }
    return frame;
}

TracedChannel::TracedChannel(std::unique_ptr<ens::split::Channel> inner, std::int32_t lane,
                             SpanLog& log)
    : ForwardingChannel(std::move(inner)), lane_(lane), log_(log) {}

void TracedChannel::send_parts(std::string_view header, std::string_view payload) {
    Span span;
    span.kind = SpanKind::send;
    span.lane = lane_;
    if (header.size() >= ens::serve::kRequestTagBytes) {
        std::string_view rest;
        span.request = static_cast<std::int64_t>(ens::serve::parse_request_frame(header, rest));
    }
    span.bytes = static_cast<std::int64_t>(payload.size());
    span.start_ns = now_ns();
    inner_->send_parts(header, payload);
    span.end_ns = now_ns();
    log_.record(span);
}

std::string TracedChannel::recv() {
    Span span;
    span.kind = SpanKind::recv;
    span.lane = lane_;
    span.start_ns = now_ns();
    std::string frame = inner_->recv();
    span.end_ns = now_ns();
    if (frame.size() >= ens::serve::kReplyTagBytes) {
        std::string_view payload;
        const ens::serve::ReplyTag tag = ens::serve::parse_reply_frame(frame, payload);
        span.request = static_cast<std::int64_t>(tag.request_id);
        span.seq = static_cast<std::int32_t>(tag.body_seq);
        span.bytes = static_cast<std::int64_t>(payload.size());
    }
    log_.record(span);
    return frame;
}

}  // namespace perfbench
