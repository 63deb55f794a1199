// Reactor-host tests: the event-driven serving core must decouple
// connections-held from threads-spawned (the whole point of
// serve/reactor.hpp) without giving up one bit of serving fidelity.
//
//   - Soak: one in-process ReactorHost holds 1024+ idle connections while
//     pipelined f32 AND q8 sessions run interleaved traffic through it —
//     and the PROCESS THREAD COUNT does not move as connections are
//     added (asserted via /proc/self/status, not inferred). Gauges
//     (connections_held / active_requests / requests_served) are asserted
//     against known traffic. The reactor runs in-process precisely so
//     these internals are directly observable.
//   - Backend parity: the poll() fallback serves the same bytes as epoll.
//   - Version pinning: an in-process DeploymentManager swap leaves an
//     already-connected session bit-matching the OLD generation while new
//     connections handshake (and bit-match) the new one; the old
//     generation retires (live_versions shrinks) once its last session
//     closes.
//   - Graceful shutdown: a forked reactor daemon receiving SIGTERM with a
//     window of requests in flight answers every one of them (no torn
//     replies), then exits 0.
//   - Body fan-out: one lone request on a single reactor worker overlaps
//     its N body forwards (measured by a body decorator), yet its reply
//     frames leave in body order, byte-identical to the oracle's downlink;
//     a body that throws costs its request every frame and its connection
//     (typed), and the host keeps serving fresh connections. Pool lanes
//     never wait on a body mutex another request holds.
//
// Bit-parity oracle: the same in-proc sequential CollaborativeSession the
// other serve suites compare against.

#include <gtest/gtest.h>

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <fstream>
#include <functional>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/threadpool.hpp"
#include "core/selector.hpp"
#include "serve/deployment.hpp"
#include "serve/fanout.hpp"
#include "serve/protocol.hpp"
#include "serve/reactor.hpp"
#include "serve/remote.hpp"
#include "serve_harness.hpp"
#include "split/channel.hpp"
#include "split/codec.hpp"
#include "split/session.hpp"
#include "split/tap_channel.hpp"
#include "split/tcp_channel.hpp"

namespace ens::serve {
namespace {

constexpr std::size_t kBodies = 3;
constexpr std::uint64_t kSeed = 4100;
constexpr std::chrono::milliseconds kRequestTimeout{120000};

/// Threads of this process right now (0 when /proc is unavailable — the
/// caller skips the assertion then).
std::size_t process_thread_count() {
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("Threads:", 0) == 0) {
            return static_cast<std::size_t>(std::stoul(line.substr(8)));
        }
    }
    return 0;
}

/// Raises RLIMIT_NOFILE to at least `need` fds; returns the resulting
/// soft limit.
rlim_t ensure_fd_limit(rlim_t need) {
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

/// In-memory whole-deployment host over the shared deterministic ensemble
/// geometry (same seed -> bit-identical bodies everywhere).
std::shared_ptr<BodyHost> make_ensemble_host(std::uint64_t seed) {
    harness::EnsembleParts parts = harness::make_linear_ensemble(seed, kBodies,
                                                                 /*num_selected=*/2);
    return std::make_shared<BodyHost>(std::move(parts.bodies));
}

/// The sequential in-proc oracle (selector {0, 2} of 3). The client half
/// (head/tail) and the body weights may come from DIFFERENT seeds: a hot
/// swap replaces only the host's bodies, so a post-swap session is client
/// seed + NEW body seed.
struct Oracle {
    harness::EnsembleParts client_parts;
    harness::EnsembleParts body_parts;
    core::Selector selector{kBodies, {0, 2}};
    split::InProcChannel uplink;
    split::InProcChannel downlink;
    std::unique_ptr<split::CollaborativeSession> session;

    Oracle(std::uint64_t client_seed, std::uint64_t body_seed, split::WireFormat wire)
        : client_parts(harness::make_linear_ensemble(client_seed, kBodies, /*num_selected=*/2)),
          body_parts(harness::make_linear_ensemble(body_seed, kBodies, /*num_selected=*/2)) {
        harness::set_eval(client_parts);
        harness::set_eval(body_parts);
        std::vector<nn::Layer*> bodies;
        for (nn::LayerPtr& body : body_parts.bodies) {
            bodies.push_back(body.get());
        }
        session = std::make_unique<split::CollaborativeSession>(
            *client_parts.head, bodies, *client_parts.tail,
            [this](const std::vector<Tensor>& features) { return selector.apply(features); },
            uplink, downlink, wire);
    }
};

/// Client half for a RemoteSession against make_ensemble_host(seed).
struct ClientHalf {
    harness::EnsembleParts parts;
    core::Selector selector{kBodies, {0, 2}};

    explicit ClientHalf(std::uint64_t seed)
        : parts(harness::make_linear_ensemble(seed, kBodies, /*num_selected=*/2)) {
        harness::set_eval(parts);
    }

    // RemoteSession is deliberately pinned in place (mutex + stats
    // members), so hand sessions out behind unique_ptr.
    std::unique_ptr<RemoteSession> connect(std::uint16_t port, split::WireFormat wire,
                                           std::size_t max_inflight = kDefaultMaxInflight) {
        auto session = std::make_unique<RemoteSession>(
            split::tcp_connect("127.0.0.1", port), *parts.head, nullptr, *parts.tail,
            selector, wire, std::chrono::seconds(30), max_inflight);
        session->set_recv_timeout(kRequestTimeout);
        return session;
    }
};

/// Runs `rounds` pipelined requests through `session` and bit-compares
/// every reply against a fresh oracle: the session's client half is from
/// `client_seed`, the generation it is pinned to hosts `body_seed` bodies.
void expect_parity(RemoteSession& session, std::uint64_t client_seed, std::uint64_t body_seed,
                   split::WireFormat wire, std::size_t rounds, const char* what) {
    Oracle oracle(client_seed, body_seed, wire);
    Rng data_rng(body_seed ^ 0x5EED);
    std::vector<Tensor> inputs;
    std::vector<std::future<InferenceResult>> futures;
    for (std::size_t r = 0; r < rounds; ++r) {
        inputs.push_back(Tensor::randn(Shape{1 + static_cast<std::int64_t>(r % 3), harness::kIn},
                                       data_rng));
        futures.push_back(session.submit(inputs.back()));
    }
    for (std::size_t r = 0; r < rounds; ++r) {
        const InferenceResult result = futures[r].get();
        const Tensor expected = oracle.session->infer(inputs[r]);
        ASSERT_EQ(result.logits.shape(), expected.shape()) << what << " request " << r;
        EXPECT_EQ(result.logits.to_vector(), expected.to_vector())
            << what << " (" << split::wire_format_name(wire) << ") request " << r;
    }
}

/// An in-process reactor with its event loop on a background thread.
/// shutdown-and-join on destruction, so an ASSERT unwind cannot leak the
/// loop.
class ReactorFixture {
public:
    explicit ReactorFixture(std::shared_ptr<DeploymentManager> manager, ReactorConfig config)
        : manager_(std::move(manager)),
          reactor_(manager_, config),
          listener_(0),
          thread_([this] { reactor_.run(listener_); }) {}

    ~ReactorFixture() { stop(); }

    void stop() {
        if (thread_.joinable()) {
            reactor_.shutdown();
            thread_.join();
        }
    }

    std::uint16_t port() const { return listener_.port(); }
    ReactorHost& reactor() { return reactor_; }
    DeploymentManager& manager() { return *manager_; }

private:
    std::shared_ptr<DeploymentManager> manager_;
    ReactorHost reactor_;
    split::ChannelListener listener_;
    std::thread thread_;
};

/// Polls `predicate` until true or `timeout` (reactor teardown and gauge
/// updates are asynchronous to the test thread).
bool eventually(const std::function<bool()>& predicate,
                std::chrono::milliseconds timeout = std::chrono::seconds(20)) {
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    while (std::chrono::steady_clock::now() < deadline) {
        if (predicate()) {
            return true;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return predicate();
}

TEST(ReactorSoak, Holds1024ConnectionsOnFixedThreadsWithPipelinedParity) {
    constexpr std::size_t kIdleConnections = 1024;
    if (ensure_fd_limit(kIdleConnections + 256) < kIdleConnections + 128) {
        GTEST_SKIP() << "cannot raise RLIMIT_NOFILE high enough for the soak";
    }

    auto manager = std::make_shared<DeploymentManager>(make_ensemble_host(kSeed));
    ReactorConfig config;
    config.worker_threads = 2;
    config.drain_grace = std::chrono::milliseconds(50);
    ReactorFixture fixture(std::move(manager), config);

    // Pipelined sessions FIRST (their construction spawns client-side I/O
    // workers); the thread-count snapshot below then isolates the cost of
    // adding idle connections.
    ClientHalf client(kSeed);
    auto f32_session = client.connect(fixture.port(), split::WireFormat::f32,
                                      /*max_inflight=*/4);
    auto q8_session = client.connect(fixture.port(), split::WireFormat::q8,
                                     /*max_inflight=*/4);
    EXPECT_EQ(f32_session->deployment_version(), 1u);

    // One warm-up request per session so every lazily-created thread
    // (worker pools, client receive paths) exists before the snapshot —
    // the assertion below must measure connections, not warm-up.
    Rng warmup_rng(1);
    (void)f32_session->infer(Tensor::randn(Shape{1, harness::kIn}, warmup_rng));
    (void)q8_session->infer(Tensor::randn(Shape{1, harness::kIn}, warmup_rng));

    const std::size_t threads_before = process_thread_count();

    // 1024 idle connections, each fully handshaken (so every one of them
    // is registered with the reactor, not parked in the backlog).
    std::vector<std::unique_ptr<split::TcpChannel>> idle;
    idle.reserve(kIdleConnections);
    for (std::size_t c = 0; c < kIdleConnections; ++c) {
        auto channel = split::tcp_connect("127.0.0.1", fixture.port());
        channel->set_recv_timeout(std::chrono::seconds(30));
        const HostInfo info = decode_handshake(channel->recv());
        ASSERT_EQ(info.total_bodies, kBodies) << "connection " << c;
        ASSERT_EQ(info.deployment_version, 1u) << "connection " << c;
        idle.push_back(std::move(channel));
    }

    const std::size_t threads_after = process_thread_count();
    if (threads_before != 0) {
        // THE decoupling claim: 1024 extra connections, zero extra threads
        // (client side added none — raw channels have no workers — and the
        // host side must not either).
        EXPECT_EQ(threads_after, threads_before)
            << "thread count scaled with connections — reactor is spawning per connection";
    }

    // The last client may see its handshake a beat before the reactor
    // thread bumps the gauge (send happens first in accept_ready), so the
    // count is eventually-consistent like every other gauge here.
    EXPECT_TRUE(eventually([&] {
        return fixture.reactor().gauges().connections_held >= kIdleConnections + 2;
    })) << "held=" << fixture.reactor().gauges().connections_held;
    GaugeSnapshot gauges = fixture.reactor().gauges();
    EXPECT_EQ(gauges.connections_total, gauges.connections_held);
    EXPECT_EQ(gauges.worker_threads, 2u);

    // Interleaved pipelined traffic among the idle herd, both wire
    // formats, bit-matched against the sequential oracle.
    expect_parity(*f32_session, kSeed, kSeed, split::WireFormat::f32, 12, "soak f32");
    expect_parity(*q8_session, kSeed, kSeed, split::WireFormat::q8, 12, "soak q8");

    gauges = fixture.reactor().gauges();
    EXPECT_EQ(gauges.requests_served, 26u);  // 2 warm-ups + 2 x 12 parity rounds
    EXPECT_EQ(gauges.active_requests, 0u);

    // Closing the herd drains connections_held back down (teardown is
    // event-driven too — EOF per connection, no thread ever blocked).
    idle.clear();
    EXPECT_TRUE(eventually([&] { return fixture.reactor().gauges().connections_held <= 2; }))
        << "reactor did not reap closed connections; held="
        << fixture.reactor().gauges().connections_held;

    f32_session->close();
    q8_session->close();
    fixture.stop();
    EXPECT_EQ(fixture.reactor().gauges().active_requests, 0u);
    EXPECT_EQ(fixture.reactor().gauges().connections_held, 0u);
}

TEST(ReactorSoak, PollBackendServesIdenticalBytes) {
    // Same reactor, portable poll() backend: 64 idle connections plus
    // parity traffic. Proves the fallback is a real backend, not a stub.
    auto manager = std::make_shared<DeploymentManager>(make_ensemble_host(kSeed));
    ReactorConfig config;
    config.worker_threads = 2;
    config.force_poll = true;
    config.drain_grace = std::chrono::milliseconds(50);
    ReactorFixture fixture(std::move(manager), config);

    std::vector<std::unique_ptr<split::TcpChannel>> idle;
    for (std::size_t c = 0; c < 64; ++c) {
        auto channel = split::tcp_connect("127.0.0.1", fixture.port());
        channel->set_recv_timeout(std::chrono::seconds(30));
        (void)decode_handshake(channel->recv());
        idle.push_back(std::move(channel));
    }

    ClientHalf client(kSeed);
    auto session = client.connect(fixture.port(), split::WireFormat::f32,
                                  /*max_inflight=*/4);
    expect_parity(*session, kSeed, kSeed, split::WireFormat::f32, 8, "poll backend");
    EXPECT_GE(fixture.reactor().gauges().connections_held, 65u);
    session->close();
}

TEST(ReactorSwap, SessionsPinTheirGenerationAndOldOneRetires) {
    constexpr std::uint64_t kSeedV2 = kSeed + 9000;  // different bodies, same geometry
    auto manager = std::make_shared<DeploymentManager>(make_ensemble_host(kSeed));
    ReactorConfig config;
    config.worker_threads = 2;
    config.drain_grace = std::chrono::milliseconds(50);
    ReactorFixture fixture(manager, config);

    ClientHalf client(kSeed);
    auto old_session = client.connect(fixture.port(), split::WireFormat::f32,
                                      /*max_inflight=*/4);
    ASSERT_EQ(old_session->deployment_version(), 1u);
    expect_parity(*old_session, kSeed, kSeed, split::WireFormat::f32, 4, "pre-swap");

    // Live swap: different weights, same slice. Old session keeps flowing
    // against generation 1 THROUGH the swap.
    EXPECT_EQ(manager->swap(make_ensemble_host(kSeedV2)), 2u);
    EXPECT_EQ(manager->swaps_completed(), 1u);
    EXPECT_EQ(fixture.reactor().gauges().swaps_completed, 1u);
    expect_parity(*old_session, kSeed, kSeed, split::WireFormat::f32, 4, "post-swap pinned");

    // New connections handshake (and bit-match) generation 2.
    auto new_session = client.connect(fixture.port(), split::WireFormat::f32,
                                      /*max_inflight=*/4);
    ASSERT_EQ(new_session->deployment_version(), 2u);
    expect_parity(*new_session, kSeed, kSeedV2, split::WireFormat::f32, 4, "new generation");

    // Both generations are live while the old session exists...
    EXPECT_EQ(manager->live_versions(), (std::vector<std::uint32_t>{1, 2}));

    // ...and generation 1 retires — its bodies actually freed — once its
    // last session closes. Nothing but the session pin was keeping it.
    old_session->close();
    EXPECT_TRUE(eventually(
        [&] { return manager->live_versions() == std::vector<std::uint32_t>{2}; }))
        << "old generation did not retire after its last session closed";

    expect_parity(*new_session, kSeed, kSeedV2, split::WireFormat::f32, 2, "after retirement");
    new_session->close();
}

TEST(ReactorSwap, SwapRefusesAShapeChange) {
    auto manager = std::make_shared<DeploymentManager>(make_ensemble_host(kSeed));
    // A 2-body host cannot replace a 3-body deployment: clients sized
    // their selectors against N = 3.
    harness::EnsembleParts parts = harness::make_linear_ensemble(kSeed, 2, 1);
    auto wrong_shape = std::make_shared<BodyHost>(std::move(parts.bodies));
    try {
        manager->swap(std::move(wrong_shape));
        FAIL() << "shape-changing swap was accepted";
    } catch (const Error& e) {
        EXPECT_EQ(e.code(), ErrorCode::protocol_error) << e.what();
    }
    EXPECT_EQ(manager->version(), 1u);
    EXPECT_EQ(manager->swaps_completed(), 0u);
}

// ------------------------------------------------------------ body fan-out

constexpr std::size_t kFanoutBodies = 4;

/// Shared by the probed bodies of one host: how many forwards run at once,
/// and which body (if any) throws.
struct ForwardProbe {
    std::mutex mutex;
    std::condition_variable joined;
    std::size_t running = 0;
    std::size_t peak = 0;
    std::atomic<std::size_t> failing_body{kFanoutBodies};  // none
};

/// Body decorator recording forward overlap. A forward that finds itself
/// alone waits (bounded) for a second one to join, so a working fan-out
/// shows its overlap even though each linear body is instant; a serial
/// host only pays the bound.
class ProbedBody final : public nn::Layer {
public:
    ProbedBody(nn::LayerPtr inner, std::size_t index, ForwardProbe& probe)
        : inner_(std::move(inner)), index_(index), probe_(probe) {
        training_ = false;
    }

    Tensor forward(const Tensor& input) override {
        {
            std::unique_lock<std::mutex> lock(probe_.mutex);
            probe_.peak = std::max(probe_.peak, ++probe_.running);
            probe_.joined.notify_all();
            probe_.joined.wait_for(lock, std::chrono::seconds(2),
                                   [&] { return probe_.peak >= 2; });
        }
        struct Leave {
            ForwardProbe& probe;
            ~Leave() {
                const std::lock_guard<std::mutex> lock(probe.mutex);
                --probe.running;
            }
        } leave{probe_};
        if (index_ == probe_.failing_body.load()) {
            throw Error(ErrorCode::generic, "probed body " + std::to_string(index_) + " failed");
        }
        return inner_->forward(input);
    }

    Tensor backward(const Tensor&) override {
        throw std::logic_error("ProbedBody is forward-only (test decorator)");
    }

    std::string name() const override { return "ProbedBody"; }

private:
    nn::LayerPtr inner_;
    std::size_t index_;
    ForwardProbe& probe_;
};

std::shared_ptr<BodyHost> make_probed_host(std::uint64_t seed, ForwardProbe& probe) {
    harness::EnsembleParts parts = harness::make_linear_ensemble(seed, kFanoutBodies,
                                                                 /*num_selected=*/2);
    std::vector<nn::LayerPtr> bodies;
    for (std::size_t n = 0; n < kFanoutBodies; ++n) {
        bodies.push_back(std::make_unique<ProbedBody>(std::move(parts.bodies[n]), n, probe));
    }
    return std::make_shared<BodyHost>(std::move(bodies));
}

/// The sequential in-proc oracle over the same 4 bodies, with both links
/// tapped: the uplink log holds each request's exact payload bytes, the
/// downlink log the N reply payloads in body order.
struct TappedOracle {
    harness::EnsembleParts parts;
    core::Selector selector{kFanoutBodies, {0, 3}};
    std::shared_ptr<split::TapLog> uplink_log = std::make_shared<split::TapLog>();
    std::shared_ptr<split::TapLog> downlink_log = std::make_shared<split::TapLog>();
    split::TapChannel uplink{std::make_unique<split::InProcChannel>(), uplink_log};
    split::TapChannel downlink{std::make_unique<split::InProcChannel>(), downlink_log};
    std::unique_ptr<split::CollaborativeSession> session;

    explicit TappedOracle(std::uint64_t seed)
        : parts(harness::make_linear_ensemble(seed, kFanoutBodies, /*num_selected=*/2)) {
        harness::set_eval(parts);
        std::vector<nn::Layer*> bodies;
        for (nn::LayerPtr& body : parts.bodies) {
            bodies.push_back(body.get());
        }
        session = std::make_unique<split::CollaborativeSession>(
            *parts.head, bodies, *parts.tail,
            [this](const std::vector<Tensor>& features) { return selector.apply(features); },
            uplink, downlink, split::WireFormat::f32);
    }
};

std::unique_ptr<split::TcpChannel> raw_connect(std::uint16_t port) {
    auto channel = split::tcp_connect("127.0.0.1", port);
    channel->set_recv_timeout(kRequestTimeout);
    const HostInfo info = decode_handshake(channel->recv());
    EXPECT_EQ(info.total_bodies, kFanoutBodies);
    return channel;
}

void send_request(split::Channel& channel, std::uint64_t id, const std::string& payload) {
    unsigned char tag[kRequestTagBytes];
    encode_request_tag(id, tag);
    channel.send_parts(std::string_view(reinterpret_cast<const char*>(tag), sizeof(tag)),
                       payload);
}

/// Sends one oracle request over a raw connection and expects its N reply
/// frames in body order, each byte-identical to the oracle's downlink.
void expect_ordered_replies(split::Channel& channel, std::uint64_t id, const Tensor& input,
                            TappedOracle& oracle, const char* what) {
    (void)oracle.session->infer(input);
    const std::vector<std::string> requests = oracle.uplink_log->sent();
    const std::vector<std::string> replies = oracle.downlink_log->sent();
    ASSERT_GE(replies.size(), kFanoutBodies);
    send_request(channel, id, requests.back());
    for (std::size_t n = 0; n < kFanoutBodies; ++n) {
        const std::string frame = channel.recv();
        std::string_view payload;
        const ReplyTag reply = parse_reply_frame(frame, payload);
        EXPECT_EQ(reply.request_id, id) << what;
        EXPECT_EQ(reply.body_seq, n) << what << ": replies out of body order";
        EXPECT_TRUE(payload == replies[replies.size() - kFanoutBodies + n])
            << what << ": body " << n << " reply differs from the oracle";
    }
}

TEST(ReactorFanout, LoneRequestOverlapsBodiesAndRepliesInBodyOrder) {
    ForwardProbe probe;
    auto manager = std::make_shared<DeploymentManager>(make_probed_host(kSeed, probe));
    ReactorConfig config;
    config.worker_threads = 1;  // any overlap must come from the fan-out
    config.drain_grace = std::chrono::milliseconds(50);
    ReactorFixture fixture(std::move(manager), config);

    TappedOracle oracle(kSeed);
    auto channel = raw_connect(fixture.port());
    Rng data_rng(11);
    for (std::uint64_t id = 1; id <= 3; ++id) {
        expect_ordered_replies(*channel, id,
                               Tensor::randn(Shape{static_cast<std::int64_t>(id), harness::kIn},
                                             data_rng),
                               oracle, "lone request");
    }
    EXPECT_GE(probe.peak, 2u) << "a lone request ran its body forwards one at a time";
    // The gauge ticks after the last frame is sent, so it may trail it.
    EXPECT_TRUE(eventually([&] { return fixture.reactor().gauges().requests_served == 3; }));
    channel->close();
}

TEST(ReactorFanout, FailedBodyDropsTheRequestAndConnectionOnly) {
    ForwardProbe probe;
    auto manager = std::make_shared<DeploymentManager>(make_probed_host(kSeed, probe));
    ReactorConfig config;
    config.worker_threads = 1;
    config.drain_grace = std::chrono::milliseconds(50);
    ReactorFixture fixture(std::move(manager), config);

    TappedOracle oracle(kSeed);
    Rng data_rng(12);
    probe.failing_body.store(2);
    auto doomed = raw_connect(fixture.port());
    (void)oracle.session->infer(Tensor::randn(Shape{1, harness::kIn}, data_rng));
    send_request(*doomed, 1, oracle.uplink_log->sent().back());
    std::size_t frames = 0;
    try {
        for (;;) {
            (void)doomed->recv();
            ++frames;
        }
    } catch (const Error& e) {
        EXPECT_EQ(e.code(), ErrorCode::channel_closed) << e.what();
    }
    EXPECT_EQ(frames, 0u) << "a request whose body failed still got reply frames";
    EXPECT_TRUE(eventually([&] { return fixture.reactor().gauges().connections_dropped >= 1; }));
    EXPECT_EQ(fixture.reactor().gauges().requests_served, 0u);

    probe.failing_body.store(kFanoutBodies);
    auto fresh = raw_connect(fixture.port());
    expect_ordered_replies(*fresh, 2, Tensor::randn(Shape{2, harness::kIn}, data_rng), oracle,
                           "after a failed body");
    fresh->close();
}

// A pool lane never waits for a body mutex another request holds: it takes
// a free body or leaves. So while bodies 1.. are held, every pool worker
// stays available — the holder's own parallel_for (a batched conv, say)
// can always be served, and nothing deadlocks at any ENS_THREADS.
TEST(BodyFanout, PoolLanesNeverWaitOnABusyBody) {
    harness::EnsembleParts parts = harness::make_linear_ensemble(kSeed, kFanoutBodies,
                                                                 /*num_selected=*/2);
    harness::set_eval(parts);
    std::vector<nn::Layer*> bodies;
    for (nn::LayerPtr& body : parts.bodies) {
        bodies.push_back(body.get());
    }
    Rng data_rng(13);
    const Tensor input = Tensor::randn(Shape{2, harness::kHidden}, data_rng);
    std::vector<Tensor> expected;
    for (nn::Layer* body : bodies) {
        expected.push_back(body->forward(input));
    }

    std::vector<std::mutex> body_mutexes(kFanoutBodies);
    std::vector<std::unique_lock<std::mutex>> held;
    for (std::size_t n = 1; n < kFanoutBodies; ++n) {
        held.emplace_back(body_mutexes[n]);
    }
    std::vector<Tensor> outputs;
    std::thread request([&] { outputs = forward_bodies(bodies, input, body_mutexes); });
    // Body 0 is the only free one; give the request's pool lanes time to
    // take it or leave.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));

    // Every pool worker must now join a barrier with the caller.
    ThreadPool& pool = global_pool();
    const std::size_t lanes = pool.size() + 1;
    std::mutex barrier_mutex;
    std::condition_variable barrier_cv;
    std::size_t arrived = 0;
    std::promise<bool> all_arrived;
    std::thread checker([&] {
        std::atomic<bool> complete{true};
        pool.parallel_for(0, lanes, [&](std::size_t lo, std::size_t hi) {
            std::unique_lock<std::mutex> lock(barrier_mutex);
            arrived += hi - lo;
            barrier_cv.notify_all();
            if (!barrier_cv.wait_for(lock, std::chrono::seconds(10),
                                     [&] { return arrived == lanes; })) {
                complete.store(false);
            }
        });
        all_arrived.set_value(complete.load());
    });
    std::future<bool> barrier = all_arrived.get_future();
    const bool met = barrier.wait_for(std::chrono::seconds(20)) == std::future_status::ready &&
                     barrier.get();
    held.clear();  // lets a blocked lane (the failure mode) finish too
    checker.join();
    request.join();
    EXPECT_TRUE(met) << "a pool worker was stuck on a busy body";
    ASSERT_EQ(outputs.size(), kFanoutBodies);
    for (std::size_t n = 0; n < kFanoutBodies; ++n) {
        EXPECT_EQ(outputs[n].to_vector(), expected[n].to_vector()) << "body " << n;
    }
}

// More fan-outs in flight than the pool has lanes: the last ones run at
// width 1, their callers claiming every body alone and waiting on the
// bodies the others hold. Every request still gets the serial outputs.
TEST(BodyFanout, ConcurrentFanOutsMatchTheSerialOutputs) {
    harness::EnsembleParts parts = harness::make_linear_ensemble(kSeed, kFanoutBodies,
                                                                 /*num_selected=*/2);
    harness::set_eval(parts);
    std::vector<nn::Layer*> bodies;
    for (nn::LayerPtr& body : parts.bodies) {
        bodies.push_back(body.get());
    }
    Rng data_rng(14);
    const Tensor input = Tensor::randn(Shape{3, harness::kHidden}, data_rng);
    std::vector<Tensor> expected;
    for (nn::Layer* body : bodies) {
        expected.push_back(body->forward(input));
    }

    // Holding every body keeps the fan-outs that started in flight, so
    // the later ones see more fan-outs than lanes.
    std::vector<std::mutex> body_mutexes(kFanoutBodies);
    std::vector<std::unique_lock<std::mutex>> held;
    for (std::mutex& body_mutex : body_mutexes) {
        held.emplace_back(body_mutex);
    }
    const std::size_t requests = global_pool().size() + 3;
    std::vector<std::vector<Tensor>> outputs(requests);
    std::vector<std::thread> threads;
    for (std::size_t r = 0; r < requests; ++r) {
        threads.emplace_back([&, r] { outputs[r] = forward_bodies(bodies, input, body_mutexes); });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    held.clear();
    for (std::thread& thread : threads) {
        thread.join();
    }
    for (std::size_t r = 0; r < requests; ++r) {
        ASSERT_EQ(outputs[r].size(), kFanoutBodies) << "request " << r;
        for (std::size_t n = 0; n < kFanoutBodies; ++n) {
            EXPECT_EQ(outputs[r][n].to_vector(), expected[n].to_vector())
                << "request " << r << ", body " << n;
        }
    }
}

TEST(ReactorShutdown, SigtermDrainsInFlightWindowsAndExitsZero) {
    // Forked daemon: reactor + SignalSet, the exact serve_daemon layout.
    // The parent SIGTERMs it with a full request window outstanding; every
    // future must still resolve (bit-matched), and the child must exit 0
    // having drained — not died mid-frame.
    harness::ForkedDaemon daemon([](split::ChannelListener& listener) {
        SignalSet signals{SIGTERM};  // before ANY thread spawns
        auto manager = std::make_shared<DeploymentManager>(make_ensemble_host(kSeed));
        ReactorConfig config;
        config.worker_threads = 2;
        ReactorHost reactor(manager, config);
        std::thread loop([&] { reactor.run(listener); });
        (void)signals.wait();
        reactor.shutdown();
        loop.join();
        if (reactor.gauges().active_requests != 0) {
            ::_exit(3);  // drain left work behind
        }
    });
    ASSERT_GT(daemon.port(), 0);

    ClientHalf client(kSeed);
    auto session = client.connect(daemon.port(), split::WireFormat::f32,
                                  /*max_inflight=*/4);
    ASSERT_EQ(session->deployment_version(), 1u);

    Oracle oracle(kSeed, kSeed, split::WireFormat::f32);
    Rng data_rng(77);
    std::vector<Tensor> inputs;
    std::vector<std::future<InferenceResult>> futures;
    for (std::size_t r = 0; r < 4; ++r) {
        inputs.push_back(Tensor::randn(Shape{2, harness::kIn}, data_rng));
        futures.push_back(session->submit(inputs.back()));
    }
    // SIGTERM with the whole window in flight.
    ASSERT_EQ(::kill(daemon.pid(), SIGTERM), 0);

    for (std::size_t r = 0; r < futures.size(); ++r) {
        std::optional<InferenceResult> result;
        try {
            result.emplace(futures[r].get());
        } catch (const std::exception& e) {
            FAIL() << "request " << r << " torn by the shutdown: " << e.what();
        }
        const Tensor expected = oracle.session->infer(inputs[r]);
        EXPECT_EQ(result->logits.to_vector(), expected.to_vector()) << "request " << r;
    }
    session->close();
    EXPECT_EQ(daemon.wait_exit_code(), 0) << "daemon did not exit cleanly after the drain";
}

}  // namespace
}  // namespace ens::serve
