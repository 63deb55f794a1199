#include "serve/remote.hpp"

#include <atomic>
#include <condition_variable>
#include <deque>
#include <unordered_set>
#include <utility>

#include "common/error.hpp"
#include "common/logging.hpp"
#include "common/stopwatch.hpp"
#include "nn/compile.hpp"
#include "serve/bundle.hpp"
#include "serve/fanout.hpp"
#include "split/split_model.hpp"

namespace ens::serve {

// ------------------------------------------------------------------ host

BodyHost::BodyHost(std::vector<nn::Layer*> bodies) : bodies_(std::move(bodies)) {
    ENS_REQUIRE(!bodies_.empty(), "BodyHost: no server bodies");
    for (const nn::Layer* body : bodies_) {
        ENS_REQUIRE(body != nullptr, "BodyHost: null body");
    }
    forward_mutexes_ = std::vector<std::mutex>(bodies_.size());
}

BodyHost::BodyHost(std::vector<nn::LayerPtr> bodies) : owned_(std::move(bodies)) {
    ENS_REQUIRE(!owned_.empty(), "BodyHost: no server bodies");
    bodies_.reserve(owned_.size());
    for (const nn::LayerPtr& body : owned_) {
        ENS_REQUIRE(body != nullptr, "BodyHost: null body");
        body->set_training(false);
        bodies_.push_back(body.get());
    }
    forward_mutexes_ = std::vector<std::mutex>(owned_.size());
}

BodyHost BodyHost::from_split_model(split::SplitModel model) {
    ENS_REQUIRE(model.body != nullptr, "BodyHost::from_split_model: no body");
    std::vector<nn::LayerPtr> owned;
    owned.push_back(std::move(model.body));
    return BodyHost(std::move(owned));
}

std::unique_ptr<BodyHost> BodyHost::from_bundle(const std::string& bundle_dir,
                                                std::size_t shard_begin, std::size_t shard_count,
                                                bool optimize) {
    const BundleManifest manifest = load_bundle_manifest(bundle_dir);
    std::vector<nn::LayerPtr> bodies =
        load_bundle_bodies(bundle_dir, manifest, shard_begin, shard_count);
    if (optimize) {
        for (nn::LayerPtr& body : bodies) {
            body = nn::compile_for_inference(std::move(body));
        }
    }
    auto host = std::make_unique<BodyHost>(std::move(bodies));
    host->set_shard(shard_begin, manifest.total_bodies);
    host->set_max_inflight(manifest.max_inflight);
    host->set_wire_mask(manifest.wire_mask);
    return host;
}

void BodyHost::set_shard(std::size_t body_begin, std::size_t total_bodies) {
    ENS_REQUIRE(body_begin + bodies_.size() <= total_bodies,
                "BodyHost::set_shard: slice [" + std::to_string(body_begin) + ", " +
                    std::to_string(body_begin + bodies_.size()) + ") exceeds total " +
                    std::to_string(total_bodies));
    shard_begin_ = body_begin;
    shard_total_ = total_bodies;
}

void BodyHost::set_max_inflight(std::size_t max_inflight) {
    ENS_REQUIRE(max_inflight >= 1 && max_inflight <= kMaxAdvertisedInflight,
                "BodyHost::set_max_inflight: window must be in [1, " +
                    std::to_string(kMaxAdvertisedInflight) + "]");
    max_inflight_ = max_inflight;
}

void BodyHost::set_wire_mask(std::uint32_t wire_mask) {
    ENS_REQUIRE(wire_mask != 0 && (wire_mask & ~split::all_wire_formats_mask()) == 0,
                "BodyHost::set_wire_mask: mask must be a non-empty subset of the supported "
                "wire formats");
    wire_mask_ = wire_mask;
}

HostInfo BodyHost::host_info() const {
    HostInfo info;
    info.total_bodies = shard_total_ == 0 ? bodies_.size() : shard_total_;
    info.body_begin = shard_begin_;
    info.body_count = bodies_.size();
    info.wire_mask = wire_mask_;
    info.max_inflight = static_cast<std::uint32_t>(max_inflight_);
    info.deployment_version = deployment_version_;
    return info;
}

void BodyHost::process_request(std::uint64_t request_id, std::string_view payload,
                               split::WireBufferPool& reply_pool, split::Channel& out) {
    // Mirror the request's payload encoding on the downlink so each round
    // trip stays byte-identical to the in-proc sequential transport.
    const split::WireFormat wire = split::encoded_wire_format(payload);
    const std::vector<Tensor> outputs =
        forward_bodies(bodies_, split::decode_tensor(payload), forward_mutexes_);
    // Replies leave in body order, on this thread, only once every forward
    // succeeded: a failed body costs the request all of its frames.
    for (std::size_t n = 0; n < outputs.size(); ++n) {
        auto lease = reply_pool.acquire();
        split::encode_into(outputs[n], wire, *lease);
        unsigned char tag[kReplyTagBytes];
        encode_reply_tag(request_id, static_cast<std::uint32_t>(n), tag);
        out.send_parts(std::string_view(reinterpret_cast<const char*>(tag), sizeof(tag)),
                       lease->view());
    }
}

std::size_t BodyHost::connections_accepted() const {
    const std::lock_guard<std::mutex> lock(accept_mutex_);
    return accepted_;
}

void BodyHost::serve(split::Channel& channel) {
    channel.send(encode_handshake(host_info()));

    // Per-connection pipelined state: the recv loop (this thread) admits up
    // to max_inflight_ tagged requests at once and hands them to this
    // connection's worker pool — workers are spawned as the client's
    // observed depth grows and live until the connection ends, never one
    // per request. Workers reply with tagged frames as each request
    // finishes; Channel::send_parts serializes frames, so replies of
    // different requests interleave at frame granularity without ever
    // corrupting one.
    struct Work {
        std::uint64_t id = 0;
        std::string frame;  // tagged request; payload at kRequestTagBytes
    };
    std::mutex mutex;
    std::condition_variable work_cv;   // workers: queue non-empty or stop
    std::condition_variable slot_cv;   // recv loop: in-flight window slot free
    std::deque<Work> queue;
    std::unordered_set<std::uint64_t> inflight;
    std::size_t idle_workers = 0;  // parked in work_cv.wait (guarded by mutex)
    bool stop = false;
    bool peer_gone = false;               // clean client disconnect
    std::exception_ptr failure;           // first worker/protocol failure
    split::WireBufferPool reply_pool;

    const auto shut_down = [&](std::exception_ptr error, bool disconnect) {
        {
            const std::lock_guard<std::mutex> lock(mutex);
            // First caller decides the outcome: a worker failure closes the
            // channel, which surfaces to the OTHER loops as channel_closed
            // — that echo must not relabel the failure a clean disconnect.
            if (!stop) {
                stop = true;
                if (disconnect) {
                    peer_gone = true;
                } else {
                    failure = error;
                }
            }
        }
        work_cv.notify_all();
        slot_cv.notify_all();
        try {
            channel.close();  // unblocks the recv loop and any mid-send worker
        } catch (...) {
        }
    };

    const auto worker_main = [&] {
        for (;;) {
            Work work;
            {
                std::unique_lock<std::mutex> lock(mutex);
                ++idle_workers;
                work_cv.wait(lock, [&] { return stop || !queue.empty(); });
                --idle_workers;
                if (stop) {
                    return;  // replies for undrained requests are pointless now
                }
                work = std::move(queue.front());
                queue.pop_front();
            }
            try {
                process_request(work.id, std::string_view(work.frame).substr(kRequestTagBytes),
                                reply_pool, channel);
            } catch (const Error& e) {
                // A client tearing the connection down with replies still in
                // flight is normal pipelined teardown, not a failure.
                shut_down(std::current_exception(), e.code() == ErrorCode::channel_closed);
                return;
            } catch (...) {
                shut_down(std::current_exception(), false);
                return;
            }
            {
                const std::lock_guard<std::mutex> lock(mutex);
                inflight.erase(work.id);
            }
            slot_cv.notify_one();
        }
    };

    // Worker threads are spawned LAZILY, up to max_inflight_, as observed
    // concurrency demands: a lockstep (depth-1) client costs this
    // connection exactly one worker, while a windowed client grows the
    // pool until its in-flight depth is covered. Only the recv loop
    // spawns, so the vector needs no lock of its own.
    std::vector<std::thread> workers;
    workers.reserve(max_inflight_);

    // Recv loop. Every exit path drains the worker pool before leaving.
    for (;;) {
        std::string frame;
        try {
            frame = channel.recv();
        } catch (const Error& e) {
            shut_down(std::current_exception(), e.code() == ErrorCode::channel_closed);
            break;
        } catch (...) {
            shut_down(std::current_exception(), false);
            break;
        }
        try {
            std::string_view payload;
            const std::uint64_t id = parse_request_frame(frame, payload);
            bool stopped = false;
            bool spawn_worker = false;
            {
                std::unique_lock<std::mutex> lock(mutex);
                // Window backpressure against a client overrunning the
                // advertised max_inflight: stop reading until a slot frees,
                // so TCP flow control pushes back instead of the queue
                // growing without bound.
                slot_cv.wait(lock, [&] { return stop || inflight.size() < max_inflight_; });
                if (stop) {
                    stopped = true;
                } else {
                    if (!inflight.insert(id).second) {
                        throw Error(ErrorCode::protocol_error,
                                    "duplicate in-flight request id " + std::to_string(id) +
                                        " (hostile or desynchronized client)");
                    }
                    queue.push_back(Work{id, std::move(frame)});
                    spawn_worker =
                        queue.size() > idle_workers && workers.size() < max_inflight_;
                }
            }
            if (stopped) {
                break;
            }
            if (spawn_worker) {
                workers.emplace_back(worker_main);
            }
            work_cv.notify_one();
        } catch (...) {
            shut_down(std::current_exception(), false);
            break;
        }
    }

    for (std::thread& worker : workers) {
        worker.join();
    }
    std::exception_ptr final_failure;
    bool disconnected = false;
    {
        const std::lock_guard<std::mutex> lock(mutex);
        final_failure = failure;
        disconnected = peer_gone;
    }
    if (final_failure != nullptr && !disconnected) {
        std::rethrow_exception(final_failure);
    }
    // Client done (or a worker saw the disconnect first): normal teardown.
}

void BodyHost::serve_forever(split::ChannelListener& listener) {
    struct Connection {
        std::thread thread;
        std::shared_ptr<std::atomic<bool>> done;
    };
    std::vector<Connection> connections;
    // A serve-until-killed daemon must not accumulate one zombie thread
    // per finished connection: reap completed ones at every accept, so the
    // vector only ever holds live connections plus those finished since
    // the last accept.
    const auto reap_finished = [&connections] {
        std::erase_if(connections, [](Connection& connection) {
            if (!connection.done->load()) {
                return false;
            }
            connection.thread.join();
            return true;
        });
    };
    for (;;) {
        std::unique_ptr<split::TcpChannel> channel;
        try {
            channel = listener.accept();
        } catch (const Error& e) {
            if (e.code() == ErrorCode::channel_closed) {
                break;  // listener closed: shut down
            }
            throw;
        }
        reap_finished();
        {
            const std::lock_guard<std::mutex> lock(accept_mutex_);
            ++accepted_;
        }
        auto done = std::make_shared<std::atomic<bool>>(false);
        std::thread thread([this, ch = std::move(channel), done]() mutable {
            try {
                serve(*ch);
            } catch (const std::exception& e) {
                // One bad connection must not take the daemon down.
                ENS_LOG(LogLevel::kWarn) << "BodyHost: connection ended with error: " << e.what();
            }
            done->store(true);
        });
        connections.push_back(Connection{std::move(thread), std::move(done)});
    }
    for (Connection& connection : connections) {
        connection.thread.join();
    }
}

// --------------------------------------------------------------- session

RemoteSession::RemoteSession(std::unique_ptr<split::Channel> channel, nn::Layer& head,
                             nn::Layer* noise, nn::Layer& tail, core::Selector selector,
                             split::WireFormat wire_format,
                             std::chrono::milliseconds handshake_timeout,
                             std::size_t max_inflight)
    : head_(head),
      noise_(noise),
      tail_(tail),
      selector_(std::move(selector)),
      wire_format_(wire_format) {
    ENS_REQUIRE(channel != nullptr, "RemoteSession: null channel");
    ENS_REQUIRE(max_inflight >= 1, "RemoteSession: max_inflight must be >= 1");
    // A silent or wrong endpoint must fail typed (channel_timeout), not
    // wedge construction forever. The helper resets the timeout afterwards;
    // per-request bounds are the caller's via set_recv_timeout.
    const HostInfo host = perform_handshake(*channel, handshake_timeout,
                                            /*session_timeout=*/std::chrono::milliseconds(0),
                                            wire_format_, "RemoteSession");
    if (!host.hosts_all()) {
        throw Error(ErrorCode::protocol_error,
                    "RemoteSession: host serves only " + host.to_string() +
                        " — a shard host needs a ShardRouter, not a RemoteSession");
    }
    body_count_ = host.total_bodies;
    deployment_version_ = host.deployment_version;
    host_info_ = host;
    ENS_REQUIRE(selector_.n() == body_count_,
                "RemoteSession: selector must cover the host's " + std::to_string(body_count_) +
                    " bodies");

    std::vector<ShardPipeline::Endpoint> endpoints;
    ShardPipeline::Endpoint endpoint;
    endpoint.channel = std::move(channel);
    endpoint.body_begin = 0;
    endpoint.body_count = body_count_;
    endpoint.label = "host";
    endpoints.push_back(std::move(endpoint));
    const std::size_t window =
        std::min(max_inflight, static_cast<std::size_t>(host.max_inflight));
    pipeline_ = std::make_unique<ShardPipeline>(
        std::move(endpoints), body_count_, window, "RemoteSession", "open a new session",
        [this](InflightRequest& request) {
            return finish_request(request, selector_, tail_, stats_);
        });
}

std::future<InferenceResult> RemoteSession::submit(Tensor images) {
    ENS_REQUIRE(images.defined(), "RemoteSession::submit: undefined image tensor");
    const Stopwatch submitted;  // total_ms spans the whole request, head included
    if (images.rank() == 3) {
        images = images.reshaped(Shape{1, images.dim(0), images.dim(1), images.dim(2)});
    }
    // Client phase on the calling thread: private head (+ split-point
    // noise), encoded once into a pooled buffer the sender ships tagged.
    Tensor features = head_.forward(images);
    if (noise_ != nullptr) {
        features = noise_->forward(features);
    }
    auto payload = std::make_shared<split::WireBufferPool::Lease>(uplink_pool_.acquire());
    split::encode_into(features, wire_format_, **payload);
    return pipeline_->submit(std::move(payload), images.dim(0), submitted);
}

InferenceResult RemoteSession::infer(Tensor images) { return submit(std::move(images)).get(); }

}  // namespace ens::serve
