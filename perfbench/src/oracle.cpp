// The in-proc oracle, the traced run's layer probe, the FLOP cross-check
// and the oracle gate's self-test.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "latency/flops.hpp"
#include "nn/arch.hpp"
#include "nn/checkpoint.hpp"
#include "nn/resblock.hpp"
#include "nn/sequential.hpp"
#include "perfbench.hpp"
#include "serve/bundle.hpp"
#include "split/channel.hpp"
#include "split/session.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

/// Head and split-point noise chained into the single client head a
/// CollaborativeSession takes.
class ChainLayer final : public ens::nn::Layer {
public:
    explicit ChainLayer(std::vector<ens::nn::Layer*> parts) : parts_(std::move(parts)) {}
    ens::Tensor forward(const ens::Tensor& input) override {
        ens::Tensor value = input;
        for (ens::nn::Layer* part : parts_) {
            value = part->forward(value);
        }
        return value;
    }
    ens::Tensor backward(const ens::Tensor&) override {
        throw std::logic_error("ChainLayer is forward-only");
    }
    std::string name() const override { return "Chain"; }

private:
    std::vector<ens::nn::Layer*> parts_;
};

double seconds_since(std::int64_t start_ns) {
    return static_cast<double>(now_ns() - start_ns) / 1e9;
}

/// Median wall time of `fn` in ms: two untimed calls, then at least
/// `min_reps` timed calls and as many more as fit in `budget_s`.
double median_ms(const std::function<void()>& fn, int min_reps, double budget_s) {
    fn();
    fn();
    std::vector<double> samples;
    const std::int64_t start = now_ns();
    while (static_cast<int>(samples.size()) < min_reps || seconds_since(start) < budget_s) {
        const std::int64_t t0 = now_ns();
        fn();
        samples.push_back(static_cast<double>(now_ns() - t0) / 1e6);
        if (samples.size() >= 1000) {
            break;
        }
    }
    std::sort(samples.begin(), samples.end());
    return samples[samples.size() / 2];
}

std::string json_pair(const std::string& key, double value) {
    char text[96];
    std::snprintf(text, sizeof text, ", \"%s\": %.9g", key.c_str(), value);
    return text;
}

/// The BasicBlocks of a body, in order.
std::vector<ens::nn::BasicBlock*> basic_blocks(ens::nn::Layer& body) {
    std::vector<ens::nn::BasicBlock*> blocks;
    auto* seq = dynamic_cast<ens::nn::Sequential*>(&body);
    if (seq == nullptr) {
        throw std::runtime_error("probe: body is not a Sequential");
    }
    for (std::size_t i = 0; i < seq->size(); ++i) {
        if (auto* block = dynamic_cast<ens::nn::BasicBlock*>(&seq->layer(i))) {
            blocks.push_back(block);
        }
    }
    return blocks;
}

}  // namespace

Deployment load_deployment(const std::string& bundle_dir) {
    const ens::serve::BundleManifest manifest = ens::serve::load_bundle_manifest(bundle_dir);
    Deployment d;
    for (const ens::serve::BundleBodyEntry& entry : manifest.bodies) {
        const std::string file =
            (std::filesystem::path(bundle_dir) / entry.checkpoint_file).string();
        std::int64_t t = now_ns();
        ens::nn::LayerPtr body = ens::nn::build_layer(entry.arch, file);
        d.build_s += seconds_since(t);
        t = now_ns();
        ens::nn::load_state_file(*body, file);
        d.load_state_s += seconds_since(t);
        t = now_ns();
        body->prepare_inference();
        d.prepare_s += seconds_since(t);
        d.bodies.push_back(std::move(body));
    }
    d.client = ens::serve::load_bundle_client(bundle_dir, manifest.total_bodies);
    return d;
}

OracleResult run_oracle(Deployment& deployment, ens::split::WireFormat wire,
                        const std::vector<ens::Tensor>& pool) {
    ens::serve::ClientArtifacts& client = deployment.client;
    std::vector<ens::nn::Layer*> parts{client.head.get()};
    if (client.noise) {
        parts.push_back(client.noise.get());
    }
    ChainLayer head(parts);
    std::vector<ens::nn::Layer*> bodies;
    for (const ens::nn::LayerPtr& body : deployment.bodies) {
        bodies.push_back(body.get());
    }
    ens::split::InProcChannel uplink;
    ens::split::InProcChannel downlink;
    const ens::core::Selector& selector = client.selector;
    ens::split::CollaborativeSession session(
        head, bodies, *client.tail,
        [&selector](const std::vector<ens::Tensor>& features) { return selector.apply(features); },
        uplink, downlink, wire);

    OracleResult result;
    for (const ens::Tensor& images : pool) {
        result.expected.push_back(session.infer(images));
    }
    const auto n = static_cast<double>(pool.size());
    result.uplink_bytes_per_req = static_cast<double>(session.uplink_stats().bytes) / n;
    result.downlink_bytes_per_req = static_cast<double>(session.downlink_stats().bytes) / n;
    return result;
}

bool bit_identical(const float* response, std::size_t count, const ens::Tensor& expected) {
    return count == static_cast<std::size_t>(expected.numel()) &&
           std::memcmp(response, expected.data(), count * sizeof(float)) == 0;
}

void probe_layers(Deployment& deployment, ens::split::WireFormat wire, const ens::Tensor& images,
                  std::string& json) {
    constexpr int kMinReps = 5;
    constexpr double kBudgetS = 0.15;
    const std::vector<ens::nn::LayerPtr>& bodies = deployment.bodies;
    ens::serve::ClientArtifacts& client = deployment.client;

    // Record the request's split-point features and every body's output.
    ens::Tensor features = client.head->forward(images);
    const ens::Shape head_out = features.shape();
    if (client.noise) {
        features = client.noise->forward(features);
    }
    std::vector<ens::Tensor> outputs;
    for (const ens::nn::LayerPtr& body : bodies) {
        outputs.push_back(body->forward(features));
    }
    const ens::Tensor combined = client.selector.apply(outputs);

    // Per-block time and rate on body 0, each block fed the activation the
    // request actually produced at its input.
    auto* seq = dynamic_cast<ens::nn::Sequential*>(bodies.front().get());
    if (seq == nullptr) {
        throw std::runtime_error("probe: body is not a Sequential");
    }
    ens::Tensor x = features;
    std::size_t block_index = 0;
    for (std::size_t i = 0; i < seq->size(); ++i) {
        ens::nn::Layer& layer = seq->layer(i);
        if (dynamic_cast<ens::nn::BasicBlock*>(&layer) != nullptr) {
            const ens::Tensor input = x;
            const double ms = median_ms([&] { layer.forward(input); }, kMinReps, kBudgetS);
            const double flops = ens::latency::count_cost(layer, input.shape()).total_flops;
            const std::string prefix = "nn.block" + std::to_string(block_index++);
            json += json_pair(prefix + "_ms", ms);
            json += json_pair(prefix + "_gflops", flops / (ms * 1e-3) / 1e9);
        }
        x = layer.forward(x);
    }

    // Work counts for one whole request, from the analytical counter and
    // from tensor shapes.
    double flops = 0.0;
    double bytes = static_cast<double>(images.numel()) * sizeof(float);
    const auto add = [&](const ens::nn::Layer& layer, const ens::Shape& in) {
        const ens::latency::CostReport report = ens::latency::count_cost(layer, in);
        flops += report.total_flops;
        for (const ens::latency::LayerCost& cost : report.layers) {
            bytes += static_cast<double>(cost.output_shape.numel()) * sizeof(float);
        }
    };
    add(*client.head, images.shape());
    if (client.noise) {
        add(*client.noise, head_out);
    }
    for (const ens::nn::LayerPtr& body : bodies) {
        add(*body, features.shape());
    }
    add(*client.tail, combined.shape());
    json += json_pair("tensor.gflop_per_req", flops / 1e9);
    json += json_pair("tensor.mbytes_per_req", bytes / 1e6);

    // Codec and selector calls the client makes per request, on the same
    // tensors: one uplink encode, one decode per reply frame, one combine.
    ens::split::WireBuffer buffer;
    json += json_pair("split.encode_ms",
                      median_ms([&] {
                          buffer.clear();
                          ens::split::encode_into(features, wire, buffer);
                      },
                                kMinReps, kBudgetS));
    std::vector<std::string> replies;
    for (const ens::Tensor& out : outputs) {
        replies.push_back(ens::split::encode_tensor(out, wire));
    }
    json += json_pair("split.decode_ms", median_ms([&] {
                                             for (const std::string& reply : replies) {
                                                 ens::split::decode_tensor(reply);
                                             }
                                         },
                                                   kMinReps, kBudgetS));
    json += json_pair("core.selector_apply_ms",
                      median_ms([&] { client.selector.apply(outputs); }, kMinReps, kBudgetS));
}

std::string flop_cross_check(const Deployment& deployment, std::int64_t batch, std::int64_t hw) {
    const std::vector<ens::nn::BasicBlock*> blocks = basic_blocks(*deployment.bodies.front());
    if (blocks.empty() || blocks.front()->has_projection()) {
        return "first body block is not a plain 3x3 BasicBlock";
    }
    const ens::nn::BasicBlock& block = *blocks.front();
    const std::int64_t c_in = block.conv1().in_channels();
    const std::int64_t c_mid = block.conv1().out_channels();
    const std::int64_t c_out = block.conv2().out_channels();
    const ens::latency::CostReport report =
        ens::latency::count_cost(block, ens::Shape{batch, c_in, hw, hw});
    double counted = 0.0;
    for (const ens::latency::LayerCost& cost : report.layers) {
        if (cost.name.rfind("Conv2d", 0) == 0) {
            counted += cost.flops;
        }
    }
    // Two 3x3 stride-1 same-padded convs: 2 * 3*3 * C_in * C_out per output.
    const double positions = static_cast<double>(batch * hw * hw);
    const double closed_form = 2.0 * 9.0 * static_cast<double>(c_in * c_mid) * positions +
                               2.0 * 9.0 * static_cast<double>(c_mid * c_out) * positions;
    if (counted != closed_form) {
        char text[160];
        std::snprintf(text, sizeof text, "count_cost conv FLOPs %.0f != closed form %.0f",
                      counted, closed_form);
        return text;
    }
    return {};
}

int run_selftest(const ens::ArgParser& args) {
    // The oracle gate must pass a response equal to the oracle's and flag
    // one that differs in a single logit.
    const std::string dir = args.get_string("bundle", "");
    ens::split::WireFormat wire = ens::split::WireFormat::f32;
    if (!ens::split::wire_format_from_name(args.get_string("wire", "q8"), wire)) {
        return 2;
    }
    const std::int64_t image = args.get_int("image", 16);
    ens::Rng rng(7);
    const std::vector<ens::Tensor> pool{
        ens::Tensor::uniform(ens::Shape{1, 3, image, image}, rng),
        ens::Tensor::uniform(ens::Shape{1, 3, image, image}, rng)};
    Deployment deployment = load_deployment(dir);
    const OracleResult oracle = run_oracle(deployment, wire, pool);
    const OracleResult again = run_oracle(deployment, wire, pool);
    const ens::Tensor& logits = again.expected[1];
    std::vector<float> corrupted(logits.data(), logits.data() + logits.numel());
    corrupted[3] = std::nextafter(corrupted[3], 1e30f);
    const bool clean_pass =
        bit_identical(logits.data(), static_cast<std::size_t>(logits.numel()), oracle.expected[1]);
    const bool corrupt_caught =
        !bit_identical(corrupted.data(), corrupted.size(), oracle.expected[1]);
    const std::string flops = flop_cross_check(deployment, 1, image / 2);
    std::printf("selftest: oracle-equal response passes: %s\n", clean_pass ? "yes" : "NO");
    std::printf("selftest: one corrupted logit caught: %s\n", corrupt_caught ? "yes" : "NO");
    std::printf("selftest: FLOP cross-check: %s\n", flops.empty() ? "ok" : flops.c_str());
    return clean_pass && corrupt_caught && flops.empty() ? 0 : 1;
}

}  // namespace perfbench
