// serve_overload — latency and queue behavior of ens::serve under
// saturation, with and without bounded admission.
//
// Clients submit single-image requests back-to-back with a large in-flight
// window, offering far more load than the N-body fan-out can drain, while
// a monitor thread samples the queue depth. Three admission configurations
// tell the overload story:
//   unbounded       - the queue absorbs every submission: depth grows with
//                     offered load and p99 inflates with time spent queued
//   bounded+block   - submitters park until a slot frees: depth is capped,
//                     backpressure shows up as blocked_ms, p99 stays tied
//                     to service time
//   bounded+reject  - excess submissions are shed with
//                     ens::Error{overloaded}: depth is capped and completed
//                     requests keep a tight p99 at the cost of drops
// (bounded rows must show max queue <= depth; that bound is also asserted
// in tests/serve/admission_test.cpp).
//
// Second half: the event-driven host under CONNECTION pressure. A single
// ReactorHost (fixed worker pool) holds a sweep of idle-connection herds
// while one pipelined session runs traffic through it — connections-held
// vs p50/p99 is the curve that says whether held sessions are actually
// free. Rows land in BENCH_overload.json (bench::JsonRows) as the
// machine-readable trajectory CI smoke-checks and future PRs regress
// against.

#include <sys/resource.h>

#include <atomic>
#include <cstdio>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "common/error.hpp"
#include "common/stopwatch.hpp"
#include "common/threadpool.hpp"
#include "core/selector.hpp"
#include "nn/linear.hpp"
#include "nn/sequential.hpp"
#include "serve/deployment.hpp"
#include "serve/pipeline.hpp"
#include "serve/reactor.hpp"
#include "serve/remote.hpp"
#include "serve/service.hpp"
#include "split/tcp_channel.hpp"

namespace {

using namespace ens;

constexpr std::size_t kBodies = 6;
constexpr std::size_t kClients = 4;
constexpr std::size_t kInflight = 16;  // per client: keeps the queue pressed

struct Row {
    const char* label = "";
    double offered_per_s = 0.0;
    std::uint64_t completed = 0;
    std::uint64_t rejected = 0;
    std::uint64_t blocked = 0;
    double mean_blocked_ms = 0.0;
    std::size_t max_queue = 0;
    double p50_ms = 0.0;
    double p99_ms = 0.0;
};

Row run_config(const nn::ResNetConfig& arch, const char* label, std::size_t max_queue_depth,
               serve::AdmissionPolicy admission, std::size_t requests_per_client) {
    serve::ServeConfig config;
    config.max_batch = 4;
    config.max_queue_depth = max_queue_depth;
    config.admission = admission;
    serve::InferenceService service = serve::InferenceService::from_baseline(
        bench::make_serving_pipeline(arch, kBodies), config);

    std::vector<std::shared_ptr<serve::ClientSession>> sessions;
    std::vector<Tensor> inputs;
    for (std::size_t c = 0; c < kClients; ++c) {
        sessions.push_back(service.create_session());
        Rng rng(50 + c);
        inputs.push_back(
            Tensor::uniform(Shape{1, 3, arch.image_size, arch.image_size}, rng, 0.0f, 1.0f));
    }
    for (std::size_t c = 0; c < kClients; ++c) {  // warm-up
        (void)sessions[c]->infer(inputs[c]);
        sessions[c]->reset_stats();
    }

    std::atomic<bool> running{true};
    std::size_t max_queue = 0;
    std::thread monitor([&] {
        while (running.load()) {
            max_queue = std::max(max_queue, service.pending());
            std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
    });

    std::atomic<std::uint64_t> rejected{0};
    const Stopwatch wall;
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
            std::vector<std::future<serve::InferenceResult>> window;
            for (std::size_t r = 0; r < requests_per_client; ++r) {
                try {
                    window.push_back(sessions[c]->submit(inputs[c]));
                } catch (const Error& e) {
                    if (e.code() != ErrorCode::overloaded) {
                        throw;
                    }
                    ++rejected;  // shed: the caller would retry or degrade
                }
                if (window.size() >= kInflight) {
                    (void)window.front().get();
                    window.erase(window.begin());
                }
            }
            for (auto& future : window) {
                (void)future.get();
            }
        });
    }
    for (std::thread& client : clients) {
        client.join();
    }
    const double seconds = wall.elapsed_seconds();
    running = false;
    monitor.join();

    Row row;
    row.label = label;
    row.offered_per_s = static_cast<double>(kClients * requests_per_client) /
                        (seconds > 0 ? seconds : 1e-9);
    row.rejected = rejected.load();
    row.max_queue = max_queue;
    double blocked_ms_sum = 0.0;
    for (const auto& session : sessions) {
        const serve::LatencySummary latency = session->stats().latency();
        row.completed += latency.count;
        row.blocked += session->stats().blocked();
        blocked_ms_sum += session->stats().total_blocked_ms();
        row.p50_ms = std::max(row.p50_ms, latency.p50_ms);
        row.p99_ms = std::max(row.p99_ms, latency.p99_ms);
    }
    row.mean_blocked_ms = row.blocked > 0 ? blocked_ms_sum / static_cast<double>(row.blocked) : 0.0;
    return row;
}

// ---- reactor connection sweep -------------------------------------------

constexpr std::int64_t kReactorIn = 24;
constexpr std::int64_t kReactorFeature = 96;
constexpr std::size_t kReactorBodies = 2;
constexpr std::size_t kReactorWorkers = 2;
constexpr std::size_t kReactorInflight = 8;

/// Tiny wire-bound ensemble (same geometry as bench_serve_throughput's
/// remote section): the cost under measurement is the host's event loop,
/// not body compute.
struct ReactorParts {
    std::unique_ptr<nn::Sequential> head;
    std::vector<nn::LayerPtr> bodies;
    std::unique_ptr<nn::Sequential> tail;
};

ReactorParts make_reactor_parts(std::uint64_t seed) {
    ReactorParts parts;
    Rng head_rng(seed);
    parts.head = std::make_unique<nn::Sequential>();
    parts.head->emplace<nn::Linear>(kReactorIn, kReactorFeature, head_rng);
    parts.head->set_training(false);
    for (std::size_t k = 0; k < kReactorBodies; ++k) {
        Rng body_rng(seed + 1 + k);
        auto body = std::make_unique<nn::Sequential>();
        body->emplace<nn::Linear>(kReactorFeature, kReactorFeature, body_rng);
        body->set_training(false);
        parts.bodies.push_back(std::move(body));
    }
    Rng tail_rng(seed + 100);
    parts.tail = std::make_unique<nn::Sequential>();
    parts.tail->emplace<nn::Linear>(static_cast<std::int64_t>(kReactorBodies) * kReactorFeature,
                                    10, tail_rng);
    parts.tail->set_training(false);
    return parts;
}

struct ReactorRow {
    std::size_t connections = 0;  // held alongside the measured session
    double requests_per_s = 0.0;
    double p50_ms = 0.0;
    double p99_ms = 0.0;
};

/// One sweep point: a fresh ReactorHost holds `connections` fully
/// handshaken idle connections while one pipelined session pushes
/// `requests` requests through the fixed worker pool.
ReactorRow run_reactor_point(std::size_t connections, std::size_t requests) {
    constexpr std::uint64_t kSeed = 9091;

    ReactorParts host_parts = make_reactor_parts(kSeed);
    auto manager = std::make_shared<serve::DeploymentManager>(
        std::make_shared<serve::BodyHost>(std::move(host_parts.bodies)));
    serve::ReactorConfig config;
    config.worker_threads = kReactorWorkers;
    config.drain_grace = std::chrono::milliseconds(20);
    serve::ReactorHost reactor(manager, config);
    split::ChannelListener listener(0);
    std::thread loop([&] { reactor.run(listener); });

    ReactorRow row;
    row.connections = connections;
    {
        // The idle herd, each fully handshaken (registered with the
        // reactor, not parked in the accept backlog).
        std::vector<std::unique_ptr<split::TcpChannel>> idle;
        idle.reserve(connections);
        for (std::size_t c = 0; c < connections; ++c) {
            auto channel = split::tcp_connect("127.0.0.1", listener.port());
            channel->set_recv_timeout(std::chrono::seconds(30));
            (void)channel->recv();  // the v4 handshake
            idle.push_back(std::move(channel));
        }

        ReactorParts client_parts = make_reactor_parts(kSeed);
        std::vector<std::size_t> all(kReactorBodies);
        for (std::size_t i = 0; i < all.size(); ++i) {
            all[i] = i;
        }
        serve::RemoteSession session(split::tcp_connect("127.0.0.1", listener.port()),
                                     *client_parts.head, nullptr, *client_parts.tail,
                                     core::Selector(kReactorBodies, std::move(all)),
                                     split::WireFormat::f32, std::chrono::seconds(30),
                                     kReactorInflight);
        session.set_recv_timeout(std::chrono::seconds(120));

        Rng data_rng(17);
        const Tensor input = Tensor::uniform(Shape{1, kReactorIn}, data_rng, 0.0f, 1.0f);
        for (std::size_t r = 0; r < 8; ++r) {  // warm-up: scratch + pools
            (void)session.infer(input);
        }
        const Stopwatch wall;
        serve::FutureWindow window(session.window());
        for (std::size_t r = 0; r < requests; ++r) {
            (void)window.push(session.submit(input));
        }
        while (!window.empty()) {
            (void)window.pop();
        }
        const double seconds = wall.elapsed_seconds();
        row.requests_per_s = static_cast<double>(requests) / (seconds > 0 ? seconds : 1e-9);
        const serve::LatencySummary latency = session.stats().latency();
        row.p50_ms = latency.p50_ms;
        row.p99_ms = latency.p99_ms;
        session.close();
    }
    reactor.shutdown();
    loop.join();
    return row;
}

/// Best-effort fd headroom for the big sweep points; returns the soft
/// limit actually in force.
rlim_t raise_fd_limit(rlim_t need) {
    rlimit rl{};
    if (::getrlimit(RLIMIT_NOFILE, &rl) != 0) {
        return 0;
    }
    if (rl.rlim_cur < need) {
        rlimit want = rl;
        want.rlim_cur = rl.rlim_max == RLIM_INFINITY ? need : std::min(need, rl.rlim_max);
        (void)::setrlimit(RLIMIT_NOFILE, &want);
        (void)::getrlimit(RLIMIT_NOFILE, &rl);
    }
    return rl.rlim_cur;
}

}  // namespace

int main() {
    const bench::Scale scale = bench::current_scale();
    const std::size_t requests_per_client =
        scale == bench::Scale::kTiny ? 24 : (scale == bench::Scale::kSmall ? 64 : 160);
    constexpr std::size_t kDepth = 8;

    nn::ResNetConfig arch;
    arch.base_width = 4;
    arch.image_size = 16;
    arch.num_classes = 10;

    std::printf("# serve overload: N=%zu bodies, %zu clients x %zu single-image requests, "
                "%zu in flight each (scale=%s, pool=%zu)\n\n",
                kBodies, kClients, requests_per_client, kInflight, bench::scale_name(scale),
                ens::global_pool().size());
    std::printf("| admission | offered req/s | completed | rejected | blocked | "
                "mean blocked ms | max queue | p50 ms | p99 ms |\n");
    bench::print_rule(9);

    const Row rows[] = {
        run_config(arch, "unbounded", 0, serve::AdmissionPolicy::block, requests_per_client),
        run_config(arch, "depth 8, block", kDepth, serve::AdmissionPolicy::block,
                   requests_per_client),
        run_config(arch, "depth 8, reject", kDepth, serve::AdmissionPolicy::reject,
                   requests_per_client),
    };
    for (const Row& row : rows) {
        std::printf("| %s | %7.1f | %llu | %llu | %llu | %6.1f | %zu | %6.1f | %6.1f |\n",
                    row.label, row.offered_per_s,
                    static_cast<unsigned long long>(row.completed),
                    static_cast<unsigned long long>(row.rejected),
                    static_cast<unsigned long long>(row.blocked), row.mean_blocked_ms,
                    row.max_queue, row.p50_ms, row.p99_ms);
    }

    std::printf("\n(expected shape: the unbounded row's max queue approaches the whole offered "
                "window (%zu) and its p99 carries the queue wait; both bounded rows cap max "
                "queue at %zu — block converts the excess into submitter backpressure "
                "(blocked > 0), reject converts it into drops (rejected > 0) while completed "
                "requests keep the tightest p99)\n",
                kClients * kInflight, kDepth);

    // ---- reactor: connections-held vs latency ----
    std::vector<std::size_t> herd_sizes;
    std::size_t reactor_requests = 0;
    switch (scale) {
        case bench::Scale::kTiny:
            herd_sizes = {8, 64};
            reactor_requests = 64;
            break;
        case bench::Scale::kSmall:
            herd_sizes = {64, 256, 1024};
            reactor_requests = 256;
            break;
        default:
            herd_sizes = {64, 512, 2048};
            reactor_requests = 1024;
            break;
    }
    const rlim_t fd_limit = raise_fd_limit(herd_sizes.back() + 256);
    while (!herd_sizes.empty() && fd_limit != 0 && herd_sizes.back() + 128 > fd_limit) {
        std::printf("\n(dropping %zu-connection sweep point: RLIMIT_NOFILE=%llu)\n",
                    herd_sizes.back(), static_cast<unsigned long long>(fd_limit));
        herd_sizes.pop_back();
    }

    std::printf("\n# reactor host: %zu workers, one pipelined session (window %zu, %zu "
                "requests) among an idle herd — connections held must not move the tail\n\n",
                kReactorWorkers, kReactorInflight, reactor_requests);
    std::printf("| connections | workers | req/s | p50 ms | p99 ms |\n");
    bench::print_rule(5);

    bench::JsonRows trajectory("serve_overload");
    trajectory.meta("section", "reactor_connection_sweep");
    trajectory.meta("bodies", static_cast<double>(kReactorBodies));
    trajectory.meta("requests", static_cast<double>(reactor_requests));
    for (const std::size_t herd : herd_sizes) {
        const ReactorRow row = run_reactor_point(herd, reactor_requests);
        std::printf("| %zu | %zu | %8.0f | %6.3f | %6.3f |\n", row.connections + 1,
                    kReactorWorkers, row.requests_per_s, row.p50_ms, row.p99_ms);
        trajectory.row()
            .field("connections", row.connections + 1)
            .field("workers", kReactorWorkers)
            .field("requests_per_s", row.requests_per_s)
            .field("p50_ms", row.p50_ms)
            .field("p99_ms", row.p99_ms);
    }
    trajectory.write("BENCH_overload.json");

    std::printf("\n(expected shape: req/s and p99 stay roughly flat as the idle herd grows — "
                "held connections cost the reactor a table entry, not a thread)\n");
    return 0;
}
