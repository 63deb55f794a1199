#pragma once
// Value types of the ens::serve inference-service API.
//
// serve is the single deployment-facing surface of this repository: an
// InferenceService owns the N deployed server bodies once and serves many
// concurrent ClientSessions, each carrying its own secret Selector, wire
// format, channels and traffic/latency accounting (the per-client state of
// the Ensembler paper's deployment, §III). Requests submitted by any
// session are coalesced into server batches of up to `max_batch` requests
// (each possibly multi-image) and fanned out across the thread pool.

#include <cstdint>

#include "split/codec.hpp"
#include "tensor/tensor.hpp"

namespace ens::serve {

/// What happens to a submit() that finds the request queue at
/// max_queue_depth.
enum class AdmissionPolicy : std::uint8_t {
    /// Park the submitting thread until the service drains a slot
    /// (backpressure propagates to the caller; nothing is dropped).
    block = 0,
    /// Fail fast: submit() throws ens::Error{overloaded} and the request
    /// never enters the queue (load shedding; the caller decides whether
    /// to retry).
    reject = 1,
};

struct ServeConfig {
    /// Coalescing cap: a drained server batch merges at most this many
    /// queued requests (1 = no batching).
    std::size_t max_batch = 8;

    /// Admission bound: requests queued at once, on top of those already
    /// draining. 0 = unbounded (the queue grows with offered load — fine
    /// for tests, unsafe for a public endpoint).
    std::size_t max_queue_depth = 0;

    /// Policy applied when the queue is at max_queue_depth; irrelevant
    /// while max_queue_depth == 0. Per-session reject/block counts are
    /// surfaced through SessionStats.
    AdmissionPolicy admission = AdmissionPolicy::block;

    /// Wire format for sessions that do not pick their own.
    split::WireFormat default_wire_format = split::WireFormat::f32;

    /// from_bundle only: run the graph compiler (nn/compile.hpp — BN
    /// folding, activation fusion, noise baking, repack) over every loaded
    /// server BODY. Outputs stay within the per-wire-format parity
    /// tolerance (bit-exact when no fold applies); the client-side
    /// head/noise/tail are never compiled — the split-point noise is the
    /// wire-observable defense. An optimized service refuses save_bundle.
    bool optimize = false;
};

/// One client inference request: a [B,C,H,W] image batch (a single [C,H,W]
/// image is promoted to B = 1).
struct InferenceRequest {
    Tensor images;

    /// Request id; 0 (default) lets submit() assign a unique one.
    /// Explicit ids advance the auto-assignment counter past them, so they
    /// never collide with assigned ids (uniqueness among explicit ids is
    /// the caller's business).
    std::uint64_t id = 0;
};

struct InferenceResult {
    Tensor logits;
    std::uint64_t request_id = 0;

    /// Images in the drained server batch this request shared (>= own
    /// batch; larger means the batcher coalesced it with other requests).
    std::int64_t coalesced_images = 0;

    double queue_ms = 0.0;    // submit -> drained off the queue
    double compute_ms = 0.0;  // server fan-out + client combine/tail
    double total_ms = 0.0;    // submit -> result ready
};

}  // namespace ens::serve
