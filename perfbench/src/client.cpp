// `client` role: the load generator. It boots the client half from the
// bundle, connects (RemoteSession per connection, or one ShardRouter over
// every shard host), and then follows run.py's line protocol on stdin/stdout:
//
//   -> READY <steady ns>   handshake done; a request could be sent now
//   -> WARM                warm-up requests done (untimed)
//   <- GO                  run.py has read the hosts' CPU/RSS baselines
//   -> DONE                measured phase over
//   <- GO                  the phase was invalid: measure another (repeats)
//   <- STOP                run.py has read the end-of-phase CPU/RSS
//   -> CLOSED              connections closed
//   <- CHECK               the host processes have exited
//
// After CHECK it checks every recorded response bit for bit against the
// in-proc oracle and writes its results as JSON.
// Per-request timestamps go to storage preallocated before the phase, never
// through the program's own SessionStats.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <future>
#include <iostream>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "perfbench.hpp"
#include "serve/bundle.hpp"
#include "serve/remote.hpp"
#include "serve/shard_router.hpp"
#include "split/tcp_channel.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kClientSpanCapacity = std::size_t{1} << 20;
constexpr auto kRecvTimeout = std::chrono::seconds(60);
// Distinct seeded inputs per run, each checked against the oracle.
constexpr std::size_t kPoolSize = 4;

std::vector<std::uint16_t> parse_ports(const std::string& spec) {
    std::vector<std::uint16_t> ports;
    std::stringstream in(spec);
    std::string item;
    while (std::getline(in, item, ',')) {
        const unsigned long port = std::stoul(item);
        if (port == 0 || port > 65535) {
            throw std::runtime_error("bad port " + item);
        }
        ports.push_back(static_cast<std::uint16_t>(port));
    }
    if (ports.empty()) {
        throw std::runtime_error("client: --ports is empty");
    }
    return ports;
}

/// One client connection: its own client half (head/noise/tail layers are
/// not shared between connections) and either a RemoteSession to one host
/// or a ShardRouter over several.
struct Connection {
    ens::serve::ClientArtifacts artifacts;
    std::unique_ptr<TracedLayer> head;
    std::unique_ptr<TracedLayer> noise;
    std::unique_ptr<TracedLayer> tail;
    std::vector<CountingChannel*> links;  ///< owned by `remote` or `router`
    std::unique_ptr<ens::serve::RemoteSession> remote;
    std::unique_ptr<ens::serve::ShardRouter> router;
    /// submit() is called from one thread at a time, like a client device.
    std::mutex submit_mutex;
    std::uint64_t last_wire_id = 0;  ///< as the pipeline numbers this connection's requests

    std::future<ens::serve::InferenceResult> submit(ens::Tensor images) {
        return remote ? remote->submit(std::move(images)) : router->submit(std::move(images));
    }

    std::uint64_t uplink_bytes() const {
        if (remote) {
            return remote->traffic_stats().bytes;
        }
        std::uint64_t bytes = 0;
        for (std::size_t s = 0; s < router->shard_count(); ++s) {
            bytes += router->shard_traffic(s).bytes;
        }
        return bytes;
    }

    std::uint64_t downlink_bytes() const {
        std::uint64_t bytes = 0;
        for (const CountingChannel* link : links) {
            bytes += link->recv_bytes();
        }
        return bytes;
    }

    std::uint64_t failovers() const { return router ? router->failovers_total() : 0; }

    void close() {
        if (remote) {
            remote->close();
        } else {
            router->close();
        }
    }
};

struct Record {
    std::int64_t due_ns = 0;        ///< open loop: scheduled send; closed: slot picked it up
    std::int64_t free_ns = 0;       ///< closed loop: when the slot's previous request finished
    std::int64_t submit_ns = 0;     ///< submit() called
    std::int64_t submitted_ns = 0;  ///< submit() returned
    std::int64_t ready_ns = 0;      ///< future ready
    std::int64_t wire_id = 0;
    std::int32_t conn = 0;
    std::int32_t pool = 0;
    std::int32_t status = 0;  ///< 0 ok, 1 typed error/timeout, 2 oracle mismatch
};

/// Preallocated per-phase storage and the load loops that fill it. Each
/// connection runs `window` slot threads, and a slot has at most one
/// request in flight, so every request is waited on by its own thread and
/// timed when it is ready, whatever order requests complete in.
class LoadGenerator {
public:
    LoadGenerator(std::vector<std::unique_ptr<Connection>>& conns,
                  const std::vector<ens::Tensor>& pool, std::size_t window, double rate,
                  std::uint64_t seed, std::size_t capacity, std::size_t logits_per_req)
        : conns_(conns),
          pool_(pool),
          window_(window),
          rate_(rate),
          seed_(seed),
          records_(capacity),
          logits_(capacity * logits_per_req),
          logits_per_req_(logits_per_req) {}

    /// Runs one phase of `seconds`. Each phase starts with empty records, so
    /// the measured phase never sees warm-up requests.
    void run(double seconds) {
        next_record_ = 0;
        overflow_ = false;
        phase_start_ns_ = now_ns();
        end_ns_ = phase_start_ns_ + static_cast<std::int64_t>(seconds * 1e9);
        next_due_ns_ = phase_start_ns_;
        arrivals_ = ens::Rng(seed_ ^ (0xA771'0000ULL + phase_));
        std::vector<std::thread> threads;
        for (std::size_t c = 0; c < conns_.size(); ++c) {
            for (std::size_t slot = 0; slot < window_; ++slot) {
                threads.emplace_back([this, c] { slot_loop(c); });
            }
        }
        for (std::thread& t : threads) {
            t.join();
        }
        ++phase_;
    }

    std::size_t count() const { return std::min(next_record_.load(), records_.size()); }
    bool overflow() const { return overflow_; }
    std::int64_t phase_start_ns() const { return phase_start_ns_; }
    Record& record(std::size_t i) { return records_[i]; }
    const float* logits(std::size_t i) const { return logits_.data() + i * logits_per_req_; }

private:
    std::int32_t pick_pool(std::size_t index) const {
        std::uint64_t state = seed_ * 0x9E3779B97F4A7C15ULL + phase_ * 0x100000001B3ULL + index;
        return static_cast<std::int32_t>(ens::splitmix64(state) % pool_.size());
    }

    /// Open loop: the next due time of the seeded schedule. Gaps are uniform
    /// in [0.5, 1.5] / rate rather than exponential: Poisson bursts queue up
    /// and amplify the host machine's speed swings into run-to-run spread.
    std::int64_t next_due_ns() {
        const std::lock_guard<std::mutex> lock(schedule_mutex_);
        next_due_ns_ += static_cast<std::int64_t>((0.5 + arrivals_.uniform()) / rate_ * 1e9);
        return next_due_ns_;
    }

    void slot_loop(std::size_t c) {
        Connection& conn = *conns_[c];
        std::int64_t free_ns = 0;
        for (;;) {
            std::int64_t due_ns = 0;
            if (rate_ > 0.0) {
                // Sent when due whatever the system's state; a late send
                // counts against the system, as latency runs from due_ns.
                due_ns = next_due_ns();
                if (due_ns >= end_ns_) {
                    break;
                }
                std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
                    std::chrono::nanoseconds(due_ns)));
            } else {
                due_ns = now_ns();
                if (due_ns >= end_ns_) {
                    break;
                }
            }
            const std::size_t index = next_record_.fetch_add(1);
            if (index >= records_.size()) {
                overflow_ = true;
                break;
            }
            Record& rec = records_[index];
            rec = Record{};
            rec.conn = static_cast<std::int32_t>(c);
            rec.pool = pick_pool(index);
            rec.due_ns = due_ns;
            rec.free_ns = free_ns;
            std::future<ens::serve::InferenceResult> future;
            {
                const std::lock_guard<std::mutex> lock(conn.submit_mutex);
                rec.wire_id = static_cast<std::int64_t>(++conn.last_wire_id);
                set_thread_request(rec.wire_id);
                rec.submit_ns = now_ns();
                try {
                    future = conn.submit(pool_[static_cast<std::size_t>(rec.pool)]);
                    rec.submitted_ns = now_ns();
                } catch (const std::exception&) {
                    rec.submitted_ns = rec.ready_ns = now_ns();
                    rec.status = 1;
                }
            }
            if (rec.status == 0) {
                wait(rec, index, future);
            }
            free_ns = rec.ready_ns;
        }
    }

    void wait(Record& rec, std::size_t index, std::future<ens::serve::InferenceResult>& future) {
        try {
            const ens::serve::InferenceResult result = future.get();
            rec.ready_ns = now_ns();
            const ens::Tensor& logits = result.logits;
            if (static_cast<std::size_t>(logits.numel()) == logits_per_req_) {
                std::memcpy(logits_.data() + index * logits_per_req_, logits.data(),
                            logits_per_req_ * sizeof(float));
            } else {
                rec.status = 2;
            }
        } catch (const std::exception&) {
            rec.ready_ns = now_ns();
            rec.status = 1;
        }
    }

    std::vector<std::unique_ptr<Connection>>& conns_;
    const std::vector<ens::Tensor>& pool_;
    std::size_t window_;
    double rate_;
    std::uint64_t seed_;
    std::vector<Record> records_;
    std::vector<float> logits_;
    std::size_t logits_per_req_;
    std::atomic<std::size_t> next_record_{0};
    std::atomic<bool> overflow_{false};
    std::int64_t phase_start_ns_ = 0;
    std::int64_t end_ns_ = 0;
    std::uint64_t phase_ = 0;
    std::mutex schedule_mutex_;
    ens::Rng arrivals_{0};
    std::int64_t next_due_ns_ = 0;
};

std::string read_line() {
    std::string line;
    if (!std::getline(std::cin, line)) {
        throw std::runtime_error("client: stdin closed");
    }
    return line;
}

void expect_line(const char* want) {
    if (read_line() != want) {
        throw std::runtime_error(std::string("client: expected '") + want + "' on stdin");
    }
}

void say(const std::string& line) {
    std::printf("%s\n", line.c_str());
    std::fflush(stdout);
}

}  // namespace

int run_client(const ens::ArgParser& args) {
    const std::string dir = args.get_string("bundle", "");
    const std::vector<std::uint16_t> ports = parse_ports(args.get_string("ports", ""));
    const auto conns_n = static_cast<std::size_t>(args.get_int("conns", 1));
    const auto window = static_cast<std::size_t>(args.get_int("window", 1));
    const auto batch = args.get_int("batch", 1);
    const double rate = args.get_double("rate", 0.0);
    const double seconds = args.get_double("seconds", 10.0);
    const double warmup = args.get_double("warmup", 1.0);
    const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
    const auto capacity = static_cast<std::size_t>(args.get_int("capacity", 100000));
    const std::string out_path = args.get_string("out", "");
    const std::string spans_path = args.get_string("spans", "");
    const bool setup_only = args.has("setup-only");
    // A traced run also probes the layers on recorded tensors.
    const bool probe = !spans_path.empty();
    ens::split::WireFormat wire = ens::split::WireFormat::f32;
    if (!ens::split::wire_format_from_name(args.get_string("wire", "f32"), wire)) {
        std::fprintf(stderr, "client: unknown --wire\n");
        return 2;
    }
    if (ports.size() > 1 && conns_n != 1) {
        std::fprintf(stderr, "client: a ShardRouter client uses one connection\n");
        return 2;
    }
    const ens::serve::BundleManifest manifest = ens::serve::load_bundle_manifest(dir);

    std::unique_ptr<SpanLog> log;
    if (!spans_path.empty()) {
        log = std::make_unique<SpanLog>(kClientSpanCapacity);
    }
    std::vector<std::unique_ptr<Connection>> conns;
    double handshake_ms = 0.0;
    for (std::size_t c = 0; c < conns_n; ++c) {
        auto conn = std::make_unique<Connection>();
        conn->artifacts = ens::serve::load_bundle_client(dir, manifest.total_bodies);
        ens::nn::Layer* head = conn->artifacts.head.get();
        ens::nn::Layer* noise = conn->artifacts.noise.get();
        ens::nn::Layer* tail = conn->artifacts.tail.get();
        const auto lane = static_cast<std::int32_t>(c);
        if (log) {
            conn->head = std::make_unique<TracedLayer>(*head, SpanKind::head, lane, *log);
            head = conn->head.get();
            if (noise != nullptr) {
                conn->noise = std::make_unique<TracedLayer>(*noise, SpanKind::noise, lane, *log);
                noise = conn->noise.get();
            }
            conn->tail = std::make_unique<TracedLayer>(*tail, SpanKind::tail, lane, *log);
            tail = conn->tail.get();
        }
        const std::int64_t t0 = now_ns();
        std::vector<std::unique_ptr<ens::split::Channel>> channels;
        for (std::size_t s = 0; s < ports.size(); ++s) {
            auto counting = std::make_unique<CountingChannel>(
                ens::split::tcp_connect("127.0.0.1", ports[s]));
            conn->links.push_back(counting.get());
            std::unique_ptr<ens::split::Channel> channel = std::move(counting);
            if (log) {
                // Router links are told apart by shard; connections by index.
                const auto link = static_cast<std::int32_t>(ports.size() > 1 ? s : c);
                channel = std::make_unique<TracedChannel>(std::move(channel), link, *log);
            }
            channels.push_back(std::move(channel));
        }
        if (channels.size() == 1) {
            conn->remote = std::make_unique<ens::serve::RemoteSession>(
                std::move(channels.front()), *head, noise, *tail, conn->artifacts.selector, wire,
                std::chrono::seconds(30), window);
            conn->remote->set_recv_timeout(kRecvTimeout);
        } else {
            conn->router = std::make_unique<ens::serve::ShardRouter>(
                std::move(channels), *head, noise, *tail, conn->artifacts.selector, wire,
                std::chrono::seconds(30), window);
            conn->router->set_recv_timeout(kRecvTimeout);
        }
        handshake_ms += static_cast<double>(now_ns() - t0) / 1e6;
        conns.push_back(std::move(conn));
    }
    say("READY " + std::to_string(now_ns()));
    if (setup_only) {
        for (auto& conn : conns) {
            conn->close();
        }
        return 0;
    }

    std::vector<ens::Tensor> pool;
    ens::Rng input_rng(seed);
    const std::int64_t image_size = args.get_int("image", 32);
    for (std::size_t k = 0; k < kPoolSize; ++k) {
        pool.push_back(ens::Tensor::uniform(ens::Shape{batch, 3, image_size, image_size},
                                            input_rng));
    }
    const std::size_t logits_per_req = static_cast<std::size_t>(batch) * 10;
    LoadGenerator load(conns, pool, window, rate, seed, capacity, logits_per_req);

    load.run(warmup);
    say("WARM");
    // Each GO starts a measured phase; only the last one is kept.
    std::uint64_t uplink_bytes = 0;
    std::uint64_t downlink_bytes = 0;
    std::string command = read_line();
    while (command == "GO") {
        std::uint64_t uplink0 = 0;
        std::uint64_t downlink0 = 0;
        for (const auto& conn : conns) {
            uplink0 += conn->uplink_bytes();
            downlink0 += conn->downlink_bytes();
        }
        load.run(seconds);
        uplink_bytes = downlink_bytes = 0;
        for (const auto& conn : conns) {
            uplink_bytes += conn->uplink_bytes();
            downlink_bytes += conn->downlink_bytes();
        }
        uplink_bytes -= uplink0;
        downlink_bytes -= downlink0;
        say("DONE");
        command = read_line();
    }
    if (command != "STOP") {
        throw std::runtime_error("client: expected 'GO' or 'STOP' on stdin");
    }
    for (auto& conn : conns) {
        conn->close();
    }
    // The oracle loads a whole deployment; wait until the hosts have exited
    // so the two never hold memory at the same time.
    say("CLOSED");
    expect_line("CHECK");

    // Oracle gate: every response of the measured phase, bit for bit.
    Deployment deployment = load_deployment(dir);
    const OracleResult oracle = run_oracle(deployment, wire, pool);
    std::size_t mismatches = 0;
    for (std::size_t i = 0; i < load.count(); ++i) {
        Record& rec = load.record(i);
        if (rec.status != 0) {
            continue;
        }
        if (!bit_identical(load.logits(i), logits_per_req,
                           oracle.expected[static_cast<std::size_t>(rec.pool)])) {
            rec.status = 2;
            ++mismatches;
        }
    }

    std::string json = "{\"env\": " + environment_stamp_json();
    json += ", \"links\": " + std::to_string(ports.size() * conns_n);
    json += ", \"handshake_ms\": " + std::to_string(handshake_ms);
    json += ", \"phase_start_ns\": " + std::to_string(load.phase_start_ns());
    json += ", \"overflow\": " + std::string(load.overflow() ? "true" : "false");
    json += ", \"uplink_bytes\": " + std::to_string(uplink_bytes);
    json += ", \"downlink_bytes\": " + std::to_string(downlink_bytes);
    json += ", \"mismatches\": " + std::to_string(mismatches);
    std::uint64_t failovers = 0;
    for (const auto& conn : conns) {
        failovers += conn->failovers();
    }
    json += ", \"failovers\": " + std::to_string(failovers);
    json += ", \"oracle_uplink_bytes_per_req\": " + std::to_string(oracle.uplink_bytes_per_req);
    json += ", \"oracle_downlink_bytes_per_req\": " +
            std::to_string(oracle.downlink_bytes_per_req);
    json += ", \"setup_build_s\": " + std::to_string(deployment.build_s);
    json += ", \"setup_load_state_s\": " + std::to_string(deployment.load_state_s);
    json += ", \"setup_prepare_s\": " + std::to_string(deployment.prepare_s);
    json += ", \"flop_check\": \"" + flop_cross_check(deployment, batch, image_size / 2) + "\"";
    if (probe) {
        probe_layers(deployment, wire, pool.front(), json);
    }
    json += ", \"records\": [";
    for (std::size_t i = 0; i < load.count(); ++i) {
        const Record& r = load.record(i);
        char line[256];
        std::snprintf(line, sizeof line, "%s[%d,%d,%lld,%lld,%lld,%lld,%lld,%lld,%d]",
                      i == 0 ? "" : ",", r.conn, r.pool, static_cast<long long>(r.wire_id),
                      static_cast<long long>(r.due_ns), static_cast<long long>(r.free_ns),
                      static_cast<long long>(r.submit_ns), static_cast<long long>(r.submitted_ns),
                      static_cast<long long>(r.ready_ns), r.status);
        json += line;
    }
    json += "]}\n";
    std::FILE* out = std::fopen(out_path.c_str(), "w");
    if (out == nullptr || std::fputs(json.c_str(), out) < 0 || std::fclose(out) != 0) {
        throw std::runtime_error("client: cannot write " + out_path);
    }
    if (log) {
        log->write(spans_path);
    }
    return 0;
}

}  // namespace perfbench
