#pragma once
// Roles of the perfbench binary. run.py starts each role as its own
// process: `bundle` once per geometry, `host` once per shard host, `client`
// for the load generator (which afterwards checks its responses against
// the in-proc oracle).

#include <cstdint>
#include <string>
#include <vector>

#include "common/args.hpp"
#include "nn/layer.hpp"
#include "serve/bundle.hpp"
#include "split/codec.hpp"
#include "tensor/tensor.hpp"

namespace perfbench {

int run_bundle(const ens::ArgParser& args);
int run_host(const ens::ArgParser& args);
int run_client(const ens::ArgParser& args);
int run_selftest(const ens::ArgParser& args);

/// One JSON object describing the build and machine the numbers come from.
std::string environment_stamp_json();
/// Empty when the build may report timings; otherwise why it may not.
std::string environment_refusal();

/// A whole deployment loaded in one process, for the oracle and the probe.
struct Deployment {
    std::vector<ens::nn::LayerPtr> bodies;
    ens::serve::ClientArtifacts client;
    double build_s = 0.0;       ///< nn::build_layer of every body
    double load_state_s = 0.0;  ///< nn::load_state_file of every body
    double prepare_s = 0.0;     ///< prepare_inference of every body
};

/// Loads every body, one at a time as a host does, with the three steps
/// load_bundle_bodies takes timed apart, plus the client half.
Deployment load_deployment(const std::string& bundle_dir);

/// Expected outputs of the in-proc oracle (split::CollaborativeSession over
/// the same layers, wire format and batch shape) for a pool of inputs, and
/// the oracle transport's billed bytes.
struct OracleResult {
    std::vector<ens::Tensor> expected;  ///< one logits tensor per pool input
    double uplink_bytes_per_req = 0.0;
    double downlink_bytes_per_req = 0.0;
};

OracleResult run_oracle(Deployment& deployment, ens::split::WireFormat wire,
                        const std::vector<ens::Tensor>& pool);

/// The oracle gate's comparison: a response passes only if it has the
/// expected element count and every bit equals the oracle's output.
bool bit_identical(const float* response, std::size_t count, const ens::Tensor& expected);

/// Layer-level numbers of the traced run, measured by calling the program's
/// public layer, codec and selector entry points on tensors recorded from a
/// real request (`images`, a pool input). Appended to `json` as
/// `, "key": value` pairs.
void probe_layers(Deployment& deployment, ens::split::WireFormat wire, const ens::Tensor& images,
                  std::string& json);

/// count_cost of one 3x3 BasicBlock of the bundle's body, at `batch` and a
/// `hw` x `hw` input, against the closed-form conv FLOP count. Returns an
/// empty string when they agree, else the discrepancy.
std::string flop_cross_check(const Deployment& deployment, std::int64_t batch, std::int64_t hw);

}  // namespace perfbench
