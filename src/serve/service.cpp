#include "serve/service.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"
#include "core/ensembler.hpp"
#include "defense/protected_model.hpp"
#include "nn/compile.hpp"
#include "serve/bundle.hpp"
#include "serve/fanout.hpp"
#include "split/codec.hpp"
#include "split/split_model.hpp"
#include "tensor/ops.hpp"

namespace ens::serve {

// ---------------------------------------------------------------- session

ClientSession::ClientSession(InferenceService& service, std::uint64_t id,
                             split::WireFormat wire_format, core::Selector selector)
    : service_(service), id_(id), wire_format_(wire_format), selector_(std::move(selector)) {}

std::future<InferenceResult> ClientSession::submit(InferenceRequest request) {
    ENS_REQUIRE(request.images.defined(), "submit: undefined image tensor");
    Tensor images = request.images;
    if (images.rank() == 3) {
        // Single [C,H,W] image -> batch of one.
        images = images.reshaped(Shape{1, images.dim(0), images.dim(1), images.dim(2)});
    }

    InferenceService::Pending pending;
    if (request.id != 0) {
        pending.request_id = request.id;
        // Keep auto-assigned ids from ever colliding with explicit ones.
        std::uint64_t expected = service_.next_request_id_.load(std::memory_order_relaxed);
        while (expected <= request.id &&
               !service_.next_request_id_.compare_exchange_weak(
                   expected, request.id + 1, std::memory_order_relaxed)) {
        }
    } else {
        pending.request_id = service_.next_request_id_.fetch_add(1, std::memory_order_relaxed);
    }
    pending.images = images.dim(0);
    pending.session = shared_from_this();

    {
        // One lock covers the whole client phase: the shared head/noise
        // layers cache forward state (not thread-safe), and the uplink
        // send/recv pair must not interleave with another submit on this
        // session or the decoded features would swap between requests.
        const std::lock_guard<std::mutex> lock(service_.client_mutex_);
        Tensor features = service_.bundle_.head->forward(images);
        if (service_.bundle_.noise != nullptr) {
            features = service_.bundle_.noise->forward(features);
        }
        // Pooled encode scratch: the serialization buffer is recycled
        // across requests instead of being allocated per message.
        auto payload = service_.codec_pool_.acquire();
        split::encode_into(features, wire_format_, *payload);
        uplink_.send_parts({}, payload->view());
        pending.server_input = split::decode_tensor(uplink_.recv());
    }

    std::future<InferenceResult> future = pending.promise.get_future();
    service_.enqueue(std::move(pending));
    return future;
}

std::future<InferenceResult> ClientSession::submit(Tensor images) {
    InferenceRequest request;
    request.images = std::move(images);
    return submit(std::move(request));
}

InferenceResult ClientSession::infer(Tensor images) { return submit(std::move(images)).get(); }

void ClientSession::reset_stats() {
    stats_.reset();
    uplink_.reset_stats();
    downlink_.reset_stats();
}

// ---------------------------------------------------------------- service

InferenceService::InferenceService(std::vector<nn::Layer*> bodies, ClientBundle bundle,
                                   ServeConfig config, std::vector<nn::LayerPtr> owned_layers,
                                   std::shared_ptr<void> retained,
                                   std::uint32_t export_wire_mask,
                                   std::size_t export_max_inflight, bool optimized)
    : bodies_(std::move(bodies)),
      bundle_(std::move(bundle)),
      config_(config),
      owned_layers_(std::move(owned_layers)),
      retained_(std::move(retained)),
      export_wire_mask_(export_wire_mask),
      export_max_inflight_(export_max_inflight),
      optimized_(optimized),
      body_mutexes_(bodies_.size()) {
    ENS_REQUIRE(!bodies_.empty(), "InferenceService: no server bodies");
    for (const nn::Layer* body : bodies_) {
        ENS_REQUIRE(body != nullptr, "InferenceService: null body");
    }
    ENS_REQUIRE(bundle_.head != nullptr && bundle_.tail != nullptr,
                "InferenceService: incomplete client bundle");
    ENS_REQUIRE(bundle_.selector.has_value() && bundle_.selector->n() == bodies_.size(),
                "InferenceService: selector must cover the deployed bodies");
    ENS_REQUIRE(config_.max_batch >= 1, "InferenceService: max_batch must be >= 1");
    service_thread_ = std::thread([this] { drain_loop(); });
}

InferenceService::~InferenceService() {
    {
        std::unique_lock<std::mutex> lock(queue_mutex_);
        stopping_ = true;
        queue_cv_.notify_all();
        space_cv_.notify_all();  // wake submitters parked on admission
        // Those submitters throw and unwind out of enqueue(); they must be
        // fully off queue_mutex_/space_cv_ before this object dies under
        // them. This rendezvous only covers submitters ALREADY parked — a
        // submit() still racing toward enqueue() when destruction starts is
        // the caller's contract violation ("sessions must not be used after
        // their service is destroyed"), same as it always was for the
        // submit-after-shutdown check.
        waiters_cv_.wait(lock, [this] { return admission_waiters_ == 0; });
    }
    service_thread_.join();
}

std::shared_ptr<ClientSession> InferenceService::create_session(SessionOptions options) {
    const split::WireFormat wire_format =
        options.wire_format.value_or(config_.default_wire_format);
    core::Selector selector = options.selector.value_or(*bundle_.selector);
    ENS_REQUIRE(selector.n() == bodies_.size(),
                "create_session: selector must cover the deployed bodies");
    const std::uint64_t id = sessions_created_.fetch_add(1, std::memory_order_relaxed) + 1;
    return std::shared_ptr<ClientSession>(
        new ClientSession(*this, id, wire_format, std::move(selector)));
}

std::size_t InferenceService::pending() const {
    const std::lock_guard<std::mutex> lock(queue_mutex_);
    return queue_.size();
}

std::size_t InferenceService::admission_waiters() const {
    const std::lock_guard<std::mutex> lock(queue_mutex_);
    return admission_waiters_;
}

void InferenceService::pause() {
    const std::lock_guard<std::mutex> lock(queue_mutex_);
    paused_ = true;
}

void InferenceService::resume() {
    {
        const std::lock_guard<std::mutex> lock(queue_mutex_);
        paused_ = false;
    }
    queue_cv_.notify_all();
}

void InferenceService::enqueue(Pending pending) {
    {
        std::unique_lock<std::mutex> lock(queue_mutex_);
        if (stopping_) {
            throw Error(ErrorCode::channel_closed, "InferenceService: submit after shutdown");
        }
        const std::size_t cap = config_.max_queue_depth;
        if (cap > 0 && queue_.size() >= cap) {
            if (config_.admission == AdmissionPolicy::reject) {
                pending.session->stats_.record_rejected();
                throw Error(ErrorCode::overloaded,
                            "InferenceService: queue full (" + std::to_string(queue_.size()) +
                                "/" + std::to_string(cap) + " requests), submission rejected");
            }
            const Stopwatch blocked;
            ++admission_waiters_;
            space_cv_.wait(lock, [this, cap] { return stopping_ || queue_.size() < cap; });
            if (--admission_waiters_ == 0) {
                waiters_cv_.notify_all();  // a destructor may be waiting us out
            }
            if (stopping_) {
                // A normal shutdown race, not an invariant failure: typed so
                // callers branching on ens::Error codes see it.
                throw Error(ErrorCode::channel_closed,
                            "InferenceService: shut down while awaiting admission");
            }
            pending.session->stats_.record_blocked(blocked.elapsed_ms());
        }
        queue_.push_back(std::move(pending));
    }
    queue_cv_.notify_all();
}

void InferenceService::drain_loop() {
    for (;;) {
        std::vector<Pending> batch;
        {
            std::unique_lock<std::mutex> lock(queue_mutex_);
            queue_cv_.wait(lock,
                           [this] { return stopping_ || (!paused_ && !queue_.empty()); });
            if (queue_.empty()) {
                if (stopping_) {
                    return;
                }
                continue;
            }
            const std::size_t take = std::min(config_.max_batch, queue_.size());
            batch.reserve(take);
            for (std::size_t i = 0; i < take; ++i) {
                batch.push_back(std::move(queue_.front()));
                queue_.pop_front();
                batch.back().queue_ms = batch.back().submitted.elapsed_ms();
            }
        }
        space_cv_.notify_all();  // admission slots freed
        process_batch(std::move(batch));
    }
}

void InferenceService::process_batch(std::vector<Pending> batch) {
    // Requests only coalesce when their uplink feature geometry matches
    // (sessions of one service normally share it; the guard keeps mixed
    // workloads correct rather than fast).
    std::vector<bool> grouped(batch.size(), false);
    for (std::size_t i = 0; i < batch.size(); ++i) {
        if (grouped[i]) {
            continue;
        }
        std::vector<Pending*> group{&batch[i]};
        grouped[i] = true;
        for (std::size_t j = i + 1; j < batch.size(); ++j) {
            if (!grouped[j] && batch[j].server_input.shape().dims().size() ==
                                   batch[i].server_input.shape().dims().size()) {
                bool same = true;
                for (std::size_t axis = 1; axis < batch[i].server_input.rank(); ++axis) {
                    same = same &&
                           batch[j].server_input.dim(axis) == batch[i].server_input.dim(axis);
                }
                if (same) {
                    group.push_back(&batch[j]);
                    grouped[j] = true;
                }
            }
        }
        process_group(group);
    }
}

void InferenceService::process_group(std::vector<Pending*>& group) {
    try {
        const Stopwatch server_watch;

        // Server phase: one merged batch through every deployed body,
        // fanned out across the pool (each body is a distinct layer object,
        // so the forwards are independent).
        Tensor merged = group.size() == 1 ? group.front()->server_input : [&] {
            std::vector<Tensor> inputs;
            inputs.reserve(group.size());
            for (const Pending* p : group) {
                inputs.push_back(p->server_input);
            }
            return concat_batch(inputs);
        }();

        const std::vector<Tensor> body_outputs = forward_bodies(bodies_, merged, body_mutexes_);

        // Client phase, per request: downlink one message per body (the
        // per-request slice, so quantization scales and byte accounting
        // match the sequential transport), combine with the session's
        // secret selector, run the tail.
        const double server_ms = server_watch.elapsed_ms();
        std::int64_t offset = 0;
        for (Pending* p : group) {
            const Stopwatch client_watch;
            ClientSession& session = *p->session;
            std::vector<Tensor> features;
            features.reserve(bodies_.size());
            for (const Tensor& out : body_outputs) {
                const Tensor slice =
                    group.size() == 1 ? out : slice_batch(out, offset, p->images);
                // Encode through the pooled buffer: per-request messages
                // (so quantization scales and byte accounting match the
                // sequential transport) without per-message allocation of
                // the serialization scratch.
                auto payload = codec_pool_.acquire();
                split::encode_into(slice, session.wire_format_, *payload);
                session.downlink_.send_parts({}, payload->view());
                features.push_back(split::decode_tensor(session.downlink_.recv()));
            }
            const Tensor combined = session.selector_.n() == 1
                                        ? features.front()
                                        : session.selector_.apply(features);
            InferenceResult result;
            result.logits = bundle_.tail->forward(combined);
            result.request_id = p->request_id;
            result.coalesced_images = merged.dim(0);
            result.queue_ms = p->queue_ms;
            result.total_ms = p->submitted.elapsed_ms();
            // Shared server fan-out + this request's own client-side work
            // (not the other group members' — they'd inflate with group
            // position).
            result.compute_ms = server_ms + client_watch.elapsed_ms();
            session.stats_.record(result.total_ms, result.queue_ms, p->images,
                                  result.coalesced_images);
            offset += p->images;
            p->fulfilled = true;
            p->promise.set_value(std::move(result));
        }
    } catch (...) {
        for (Pending* p : group) {
            if (!p->fulfilled) {
                p->fulfilled = true;
                p->promise.set_exception(std::current_exception());
            }
        }
    }
}

// -------------------------------------------------------------- factories

InferenceService InferenceService::from_ensembler(core::Ensembler& ensembler,
                                                  ServeConfig config) {
    return from_ensembler(std::shared_ptr<core::Ensembler>(&ensembler, [](core::Ensembler*) {}),
                          config);
}

InferenceService InferenceService::from_ensembler(std::shared_ptr<core::Ensembler> ensembler,
                                                  ServeConfig config) {
    ENS_REQUIRE(ensembler != nullptr, "from_ensembler: null ensembler");
    std::vector<nn::Layer*> bodies;
    bodies.reserve(ensembler->num_networks());
    for (std::size_t i = 0; i < ensembler->num_networks(); ++i) {
        nn::Sequential& body = ensembler->member_body(i);
        body.set_training(false);
        bodies.push_back(&body);
    }
    ClientBundle bundle;
    bundle.head = &ensembler->client_head();
    bundle.noise = &ensembler->client_noise();
    bundle.tail = &ensembler->client_tail();
    bundle.selector = ensembler->selector();
    bundle.head->set_training(false);
    bundle.noise->set_training(false);
    bundle.tail->set_training(false);
    return InferenceService(std::move(bodies), std::move(bundle), config, {},
                            std::move(ensembler));
}

InferenceService InferenceService::from_split_model(split::SplitModel model, ServeConfig config) {
    ENS_REQUIRE(model.head && model.body && model.tail, "from_split_model: incomplete model");
    model.set_training(false);
    ClientBundle bundle;
    bundle.head = model.head.get();
    bundle.tail = model.tail.get();
    bundle.selector = core::Selector(1, {0});
    std::vector<nn::Layer*> bodies{model.body.get()};
    std::vector<nn::LayerPtr> owned;
    owned.push_back(std::move(model.head));
    owned.push_back(std::move(model.body));
    owned.push_back(std::move(model.tail));
    return InferenceService(std::move(bodies), std::move(bundle), config, std::move(owned),
                            nullptr);
}

InferenceService InferenceService::from_baseline(defense::ProtectedModel model,
                                                 ServeConfig config) {
    ENS_REQUIRE(model.head && model.tail && !model.bodies.empty(),
                "from_baseline: incomplete model");
    model.set_training(false);
    ClientBundle bundle;
    bundle.head = model.head.get();
    bundle.noise = model.perturb.get();
    bundle.tail = model.tail.get();
    std::vector<std::size_t> all(model.bodies.size());
    for (std::size_t i = 0; i < all.size(); ++i) {
        all[i] = i;
    }
    bundle.selector = core::Selector(model.bodies.size(), std::move(all));

    std::vector<nn::Layer*> bodies;
    std::vector<nn::LayerPtr> owned;
    for (auto& body : model.bodies) {
        bodies.push_back(body.get());
        owned.push_back(std::move(body));
    }
    owned.push_back(std::move(model.head));
    if (model.perturb) {
        owned.push_back(std::move(model.perturb));
    }
    owned.push_back(std::move(model.tail));
    return InferenceService(std::move(bodies), std::move(bundle), config, std::move(owned),
                            nullptr);
}

InferenceService InferenceService::from_bundle(const std::string& bundle_dir,
                                               ServeConfig config) {
    const BundleManifest manifest = load_bundle_manifest(bundle_dir);
    ClientArtifacts client = load_bundle_client(bundle_dir, manifest.total_bodies);
    std::vector<nn::LayerPtr> owned = load_bundle_bodies(bundle_dir, manifest);

    if (config.optimize) {
        // Bodies only: the client head/tail stay uncompiled so the bytes a
        // session puts on the wire are identical to an unoptimized boot,
        // and the split-point noise (the defense) is never touched.
        for (nn::LayerPtr& body : owned) {
            body = nn::compile_for_inference(std::move(body));
        }
    }

    std::vector<nn::Layer*> bodies;
    bodies.reserve(owned.size());
    for (const nn::LayerPtr& body : owned) {
        bodies.push_back(body.get());
    }
    ClientBundle bundle;
    bundle.head = client.head.get();
    bundle.noise = client.noise.get();  // may be null
    bundle.tail = client.tail.get();
    bundle.selector = client.selector;
    config.default_wire_format = client.default_wire_format;

    owned.push_back(std::move(client.head));
    if (client.noise != nullptr) {
        owned.push_back(std::move(client.noise));
    }
    owned.push_back(std::move(client.tail));
    return InferenceService(std::move(bodies), std::move(bundle), config, std::move(owned),
                            nullptr, manifest.wire_mask, manifest.max_inflight,
                            config.optimize);
}

void InferenceService::save_bundle(const std::string& bundle_dir) {
    if (optimized_) {
        throw Error(ErrorCode::compile_error,
                    "InferenceService::save_bundle: this service was booted with "
                    "config.optimize — compiled bodies (folded BN, fused epilogues) have no "
                    "spec representation; re-export from an unoptimized boot of the source "
                    "bundle instead");
    }
    BundleArtifacts artifacts;
    artifacts.bodies = bodies_;
    artifacts.head = bundle_.head;
    artifacts.noise = bundle_.noise;
    artifacts.tail = bundle_.tail;
    artifacts.selector = &*bundle_.selector;
    artifacts.default_wire_format = config_.default_wire_format;
    // Re-export the recorded bundle policy, not this build's defaults: a
    // from_bundle -> save_bundle round trip must preserve what the
    // original author restricted.
    artifacts.wire_mask = export_wire_mask_;
    if (export_max_inflight_ != 0) {
        artifacts.max_inflight = export_max_inflight_;
    }
    // The client-side layers are shared with submitters' client phases;
    // hold the same mutex so a snapshot never interleaves with a forward.
    const std::lock_guard<std::mutex> lock(client_mutex_);
    serve::save_bundle(bundle_dir, artifacts);
}

}  // namespace ens::serve
