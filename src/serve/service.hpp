#pragma once
// ens::serve — the unified inference-service API.
//
//   InferenceService service = InferenceService::from_ensembler(ensembler);
//   auto session = service.create_session();
//   std::future<InferenceResult> f = session->submit(images);
//   Tensor logits = f.get().logits;
//
// One InferenceService owns the deployment: the N server bodies (held
// once, shared by every client — the Ensembler paper deploys all N nets
// server-side), a micro-batching queue, and a service thread that drains
// it. Each ClientSession models one client device: it owns its secret
// Selector, wire-format choice, uplink/downlink channels (real serialized
// bytes through the split codec) and SessionStats. submit() runs the
// client phase — head forward, split-point noise, encode — on the calling
// thread, ships the features, and parks a future; the service thread
// coalesces queued requests with matching feature geometry into one server
// batch (up to ServeConfig::max_batch requests), fans the N body forwards
// out across the thread pool, then finishes each request client-side
// (per-request downlink messages, Selector combine, tail forward).
//
// The batched path is bit-identical to the sequential
// split::CollaborativeSession round trip: eval-mode layers process batch
// samples independently, and downlink messages are encoded per request, so
// quantized wire formats see exactly the per-request tensors the
// sequential transport would send (tests/serve asserts this).
//
// Factory adapters put every trained artifact of this repository behind
// the same interface:
//   from_ensembler(...)    all N member bodies + the stage-3 client bundle
//                          and secret Selector (non-owning overload: the
//                          Ensembler must outlive the service);
//   from_split_model(...)  plain split CI, the N = 1 standard-CI case;
//   from_baseline(...)     any defense/baselines.hpp ProtectedModel
//                          (None / Single / Shredder / DR-single / DR-N).
//
// Concurrency contract: submit() may be called from any number of threads
// and sessions concurrently. Shared client-side layers are serialized
// internally (layer forward caches are not thread-safe); body forwards
// only ever run on the service thread and its fan-out workers, one forward
// per distinct body at a time. Do not train, or run inference through, the
// source model directly while a service built from it is live. Sessions
// must not be used after their service is destroyed.
//
// Admission control: with ServeConfig::max_queue_depth > 0 the request
// queue is bounded. A submit() that finds it full either parks until the
// service drains a slot (AdmissionPolicy::block — backpressure) or throws
// ens::Error{overloaded} (AdmissionPolicy::reject — load shedding; note
// the client phase has already run, so the head compute is sunk, but no
// server-side work is ever queued for a rejected request). Per-session
// reject/block counters live in SessionStats. bench/serve_overload.cpp
// measures the p99 effect under saturation.
//
// Cross-process serving (daemon hosting bodies for remote clients over
// TcpChannel) lives in serve/remote.hpp.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "common/stopwatch.hpp"
#include "core/selector.hpp"
#include "nn/layer.hpp"
#include "serve/stats.hpp"
#include "serve/types.hpp"
#include "split/channel.hpp"

namespace ens::core {
class Ensembler;
}
namespace ens::split {
struct SplitModel;
}
namespace ens::defense {
class ProtectedModel;
}

namespace ens::serve {

class InferenceService;

struct SessionOptions {
    /// Payload encoding for this session's wire; default: the service's.
    std::optional<split::WireFormat> wire_format;

    /// Per-client secret selector over the deployed bodies; default: the
    /// source model's selector (all-bodies 1/K combine for the baselines,
    /// take-first for N = 1).
    std::optional<core::Selector> selector;
};

/// One client's handle on the service. Created by
/// InferenceService::create_session(); safe to share across threads.
class ClientSession : public std::enable_shared_from_this<ClientSession> {
public:
    /// Enqueues a request; the returned future resolves once the service
    /// thread completes the round trip (or faults it with the processing
    /// error).
    std::future<InferenceResult> submit(InferenceRequest request);
    std::future<InferenceResult> submit(Tensor images);

    /// Blocking convenience: submit + get.
    InferenceResult infer(Tensor images);

    std::uint64_t id() const { return id_; }
    split::WireFormat wire_format() const { return wire_format_; }
    const core::Selector& selector() const { return selector_; }

    const SessionStats& stats() const { return stats_; }
    split::TrafficStats uplink_stats() const { return uplink_.stats(); }
    split::TrafficStats downlink_stats() const { return downlink_.stats(); }

    /// Clears latency and traffic accounting (not the request id counter).
    void reset_stats();

private:
    friend class InferenceService;

    ClientSession(InferenceService& service, std::uint64_t id,
                  split::WireFormat wire_format, core::Selector selector);

    InferenceService& service_;
    const std::uint64_t id_;
    const split::WireFormat wire_format_;
    const core::Selector selector_;
    split::InProcChannel uplink_;
    split::InProcChannel downlink_;
    SessionStats stats_;
};

class InferenceService {
public:
    /// Serves a trained Ensembler: all N member bodies server-side, the
    /// stage-3 head/noise/tail + secret Selector as the default client
    /// bundle. Non-owning: `ensembler` must outlive the service.
    static InferenceService from_ensembler(core::Ensembler& ensembler, ServeConfig config = {});

    /// Owning variant: the service keeps the Ensembler alive.
    static InferenceService from_ensembler(std::shared_ptr<core::Ensembler> ensembler,
                                           ServeConfig config = {});

    /// Serves a plain split model (standard CI, N = 1). Takes ownership.
    static InferenceService from_split_model(split::SplitModel model, ServeConfig config = {});

    /// Serves a baseline defense pipeline (K bodies, optional split-point
    /// perturbation). Takes ownership.
    static InferenceService from_baseline(defense::ProtectedModel model, ServeConfig config = {});

    /// Boots a service purely from an on-disk deployment bundle
    /// (serve/bundle.hpp) — bodies, client head/noise/tail and the secret
    /// selector are rebuilt from arch specs and save_state checkpoints, so
    /// no trainer (and no shared seed discipline) lives in the process.
    /// The bundle's recorded default wire format overrides
    /// `config.default_wire_format`. Typed ens::Error{checkpoint_error}
    /// naming the offending file on any corrupt/missing/mismatched bundle
    /// content. With config.optimize, every body is run through the graph
    /// compiler (nn/compile.hpp) after restore.
    static InferenceService from_bundle(const std::string& bundle_dir, ServeConfig config = {});

    /// Writes this deployment as a bundle (serve/bundle.hpp): every body,
    /// the client bundle and the service's default selector. Serialized
    /// against concurrent submit() client phases; call it when the service
    /// is idle for a crisp snapshot (body weights are immutable in eval
    /// mode, so in-flight server batches do not change what is written).
    /// Refuses (typed ens::Error{compile_error}) on a service booted with
    /// config.optimize — compiled bodies (folded BN, fused epilogues) have
    /// no spec representation, and exporting them would corrupt the
    /// bundle; re-export from the unoptimized source instead.
    void save_bundle(const std::string& bundle_dir);

    ~InferenceService();

    InferenceService(const InferenceService&) = delete;
    InferenceService& operator=(const InferenceService&) = delete;

    std::shared_ptr<ClientSession> create_session(SessionOptions options = {});

    std::size_t body_count() const { return bodies_.size(); }
    std::size_t session_count() const { return sessions_created_.load(); }
    const ServeConfig& config() const { return config_; }

    /// Requests currently queued (drained batches no longer count).
    std::size_t pending() const;

    /// Submitters currently parked on admission (exposed for tests).
    std::size_t admission_waiters() const;

    /// Holds / releases the service thread. While paused, submissions
    /// accumulate on the queue — tests and benches use this to force a
    /// deterministic coalesced batch. Destruction drains regardless.
    void pause();
    void resume();

private:
    friend class ClientSession;

    /// Client-side layers shared by sessions (per-service; the Ensembler
    /// deployment has one stage-3 client bundle).
    struct ClientBundle {
        nn::Layer* head = nullptr;
        nn::Layer* noise = nullptr;  // nullable (plain split CI)
        nn::Layer* tail = nullptr;
        std::optional<core::Selector> selector;
    };

    struct Pending {
        std::shared_ptr<ClientSession> session;
        Tensor server_input;  // decoded uplink features
        std::int64_t images = 0;
        std::uint64_t request_id = 0;
        Stopwatch submitted;
        double queue_ms = 0.0;
        std::promise<InferenceResult> promise;
        bool fulfilled = false;
    };

    /// `export_wire_mask` / `export_max_inflight` record bundle policy to
    /// carry through save_bundle (0 = the serve/protocol default window);
    /// from_bundle passes the manifest's values so a re-export never
    /// silently widens what the original bundle author restricted.
    InferenceService(std::vector<nn::Layer*> bodies, ClientBundle bundle, ServeConfig config,
                     std::vector<nn::LayerPtr> owned_layers, std::shared_ptr<void> retained,
                     std::uint32_t export_wire_mask = split::all_wire_formats_mask(),
                     std::size_t export_max_inflight = 0, bool optimized = false);

    void enqueue(Pending pending);
    void drain_loop();
    void process_batch(std::vector<Pending> batch);
    void process_group(std::vector<Pending*>& group);

    std::vector<nn::Layer*> bodies_;
    ClientBundle bundle_;
    ServeConfig config_;
    std::vector<nn::LayerPtr> owned_layers_;
    std::shared_ptr<void> retained_;
    std::uint32_t export_wire_mask_;
    std::size_t export_max_inflight_;  // 0 = serve/protocol default
    bool optimized_ = false;           // bodies were graph-compiled at boot
    // One per body, held by its forward in forward_bodies. Only the service
    // thread runs bodies, so these are never contended.
    std::vector<std::mutex> body_mutexes_;

    std::mutex client_mutex_;  // serializes the shared client-side layers

    // Recycled serialization scratch for the uplink/downlink codec round
    // trips (thread-safe; shared by submitters and the service thread).
    split::WireBufferPool codec_pool_;

    mutable std::mutex queue_mutex_;
    std::condition_variable queue_cv_;
    std::condition_variable space_cv_;  // admission: queue dropped below cap
    std::condition_variable waiters_cv_;  // destructor: parked submitters drained
    std::deque<Pending> queue_;
    std::size_t admission_waiters_ = 0;
    bool stopping_ = false;
    bool paused_ = false;

    std::atomic<std::uint64_t> next_request_id_{1};
    std::atomic<std::size_t> sessions_created_{0};

    std::thread service_thread_;
};

}  // namespace ens::serve
