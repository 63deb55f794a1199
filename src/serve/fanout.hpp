#pragma once
// The body fan-out shared by both serving paths: BodyHost::process_request
// (one wire request) and InferenceService::process_group (one coalesced
// in-proc batch) run a request's N independent body forwards here.

#include <mutex>
#include <vector>

#include "nn/layer.hpp"
#include "tensor/tensor.hpp"

namespace ens::serve {

/// Forwards `input` through every body and returns the outputs in body
/// order. The forwards run as ThreadPool::run_lanes lanes on
/// ens::global_pool(), at width (pool size + 1) / fan-outs in progress in
/// this process, clamped to [1, N]: a lone request gets every core, while
/// a host already saturated by concurrent requests runs each request's
/// bodies on its own thread alone, one request per worker. Outputs are
/// bit-identical at every width. Each forward holds its body's entry of
/// `mutexes` (one per body); pool lanes only take bodies whose mutex
/// is free, so only the calling thread ever waits for one. The first body
/// exception is rethrown once the forwards already started have finished.
std::vector<Tensor> forward_bodies(const std::vector<nn::Layer*>& bodies, const Tensor& input,
                                   std::vector<std::mutex>& mutexes);

}  // namespace ens::serve
