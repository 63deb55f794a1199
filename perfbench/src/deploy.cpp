// `bundle` and `host` roles: write a deployment bundle for one geometry,
// and serve a slice of it the way a deployed host does
// (load_bundle_bodies -> BodyHost -> DeploymentManager -> ReactorHost).

#include <csignal>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "nn/linear.hpp"
#include "nn/noise.hpp"
#include "nn/resnet.hpp"
#include "nn/sequential.hpp"
#include "perfbench.hpp"
#include "serve/bundle.hpp"
#include "serve/deployment.hpp"
#include "serve/reactor.hpp"
#include "serve/remote.hpp"
#include "split/split_model.hpp"
#include "split/tcp_channel.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {
// Weights are random (timing does not need trained ones) and fixed for
// every run: --seed varies the inputs, never the deployment.
constexpr std::uint64_t kWeightSeed = 0x5EED2401;
// The paper's ensemble: N bodies, P of them selected, FixedNoise sigma at
// the split point.
constexpr std::size_t kBodies = 10;
constexpr std::size_t kSelected = 4;
constexpr float kNoiseSigma = 0.1F;
// Enough for every body forward of a traced phase plus warm-up.
constexpr std::size_t kHostSpanCapacity = std::size_t{1} << 20;
}  // namespace

int run_bundle(const ens::ArgParser& args) {
    const std::string dir = args.get_string("dir", "");
    ens::nn::ResNetConfig arch;
    arch.image_size = args.get_int("image", 32);
    arch.base_width = args.get_int("width", 64);
    arch.num_classes = 10;
    arch.include_maxpool = true;
    if (dir.empty()) {
        std::fprintf(stderr, "bundle: --dir is required\n");
        return 2;
    }

    std::vector<ens::nn::LayerPtr> bodies;
    ens::nn::LayerPtr head;
    for (std::size_t k = 0; k < kBodies; ++k) {
        ens::Rng rng(kWeightSeed + k);
        ens::split::SplitModel part = ens::split::build_split_resnet18(arch, rng);
        part.set_training(false);
        if (k == 0) {
            head = std::move(part.head);
        }
        bodies.push_back(std::move(part.body));
    }
    const std::int64_t hw = ens::nn::resnet18_split_hw(arch);
    ens::Rng noise_rng(kWeightSeed ^ 0x4E015E);
    ens::nn::FixedNoise noise(ens::Shape{ens::nn::resnet18_split_channels(arch), hw, hw},
                              kNoiseSigma, noise_rng);
    noise.set_training(false);
    ens::Rng tail_rng(kWeightSeed ^ 0x7A11);
    ens::nn::Sequential tail;
    tail.emplace<ens::nn::Linear>(
        static_cast<std::int64_t>(kSelected) * ens::nn::resnet18_feature_width(arch),
        arch.num_classes, tail_rng);
    tail.set_training(false);
    ens::Rng selector_rng(kWeightSeed ^ 0x5E1EC7);
    const ens::core::Selector selector =
        ens::core::Selector::random(kBodies, kSelected, selector_rng);

    ens::serve::BundleArtifacts artifacts;
    for (ens::nn::LayerPtr& body : bodies) {
        artifacts.bodies.push_back(body.get());
    }
    artifacts.head = head.get();
    artifacts.noise = &noise;
    artifacts.tail = &tail;
    artifacts.selector = &selector;
    ens::serve::save_bundle(dir, artifacts);
    return 0;
}

int run_host(const ens::ArgParser& args) {
    // Block the drain signals before any thread exists, so reactor workers
    // inherit the mask and only wait() below ever sees them.
    ens::serve::SignalSet signals{SIGTERM, SIGINT};
    const std::string dir = args.get_string("bundle", "");
    const auto begin = static_cast<std::size_t>(args.get_int("begin", 0));
    const auto count = static_cast<std::size_t>(args.get_int("count", 0));
    const auto workers = static_cast<std::size_t>(args.get_int("workers", 4));
    const std::string spans_path = args.get_string("spans", "");
    if (dir.empty() || count == 0) {
        std::fprintf(stderr, "host: --bundle and --count are required\n");
        return 2;
    }

    const ens::serve::BundleManifest manifest = ens::serve::load_bundle_manifest(dir);
    std::vector<ens::nn::LayerPtr> bodies =
        ens::serve::load_bundle_bodies(dir, manifest, begin, count);
    std::unique_ptr<SpanLog> log;
    if (!spans_path.empty()) {
        log = std::make_unique<SpanLog>(kHostSpanCapacity);
        for (std::size_t k = 0; k < bodies.size(); ++k) {
            bodies[k] = std::make_unique<TracedLayer>(std::move(bodies[k]), SpanKind::body,
                                                      static_cast<std::int32_t>(begin + k), *log);
        }
    }
    auto host = std::make_shared<ens::serve::BodyHost>(std::move(bodies));
    host->set_shard(begin, manifest.total_bodies);
    host->set_max_inflight(manifest.max_inflight);
    host->set_wire_mask(manifest.wire_mask);
    auto manager = std::make_shared<ens::serve::DeploymentManager>(host);
    host.reset();
    ens::serve::ReactorConfig config;
    config.worker_threads = workers;
    ens::serve::ReactorHost reactor(manager, config);
    ens::split::ChannelListener listener(0, "127.0.0.1");
    std::thread loop([&] { reactor.run(listener); });
    std::printf("PORT %u\n", static_cast<unsigned>(listener.port()));
    std::fflush(stdout);

    signals.wait();
    reactor.shutdown();
    loop.join();
    const ens::serve::GaugeSnapshot gauges = reactor.gauges();
    std::printf("GAUGES %llu %llu\n", static_cast<unsigned long long>(gauges.requests_served),
                static_cast<unsigned long long>(gauges.connections_dropped));
    std::fflush(stdout);
    if (log) {
        log->write(spans_path);
    }
    return 0;
}

}  // namespace perfbench
