#include "serve/fanout.hpp"

#include <algorithm>
#include <atomic>
#include <thread>

#include "common/threadpool.hpp"

namespace ens::serve {

namespace {
// Fan-outs currently running in this process. Every host and service
// shares global_pool(), so the width rule divides it among all of them.
std::atomic<std::size_t> g_active_fanouts{0};
}  // namespace

std::vector<Tensor> forward_bodies(const std::vector<nn::Layer*>& bodies, const Tensor& input,
                                   std::vector<std::mutex>& mutexes) {
    ThreadPool& pool = global_pool();
    const std::size_t active = g_active_fanouts.fetch_add(1) + 1;
    struct Leave {
        ~Leave() { g_active_fanouts.fetch_sub(1); }
    } leave;
    const std::size_t width =
        std::clamp<std::size_t>((pool.size() + 1) / active, 1, bodies.size());

    std::vector<Tensor> outputs(bodies.size());
    // Each lane claims the first unclaimed body that no other request is
    // running. When every unclaimed body is busy, the caller waits for the
    // first one, while a pool lane leaves: pool workers never block on a
    // body mutex, so a request holding one while its own parallel_for
    // waits on the pool cannot deadlock against them.
    std::mutex claim_mutex;
    std::vector<bool> claimed(bodies.size(), false);
    bool failed = false;
    const std::thread::id caller = std::this_thread::get_id();
    pool.run_lanes(width, [&] {
        for (;;) {
            std::size_t n = 0;
            std::unique_lock<std::mutex> body_lock;
            {
                const std::lock_guard<std::mutex> lock(claim_mutex);
                const auto first = static_cast<std::size_t>(
                    std::find(claimed.begin(), claimed.end(), false) - claimed.begin());
                if (failed || first == bodies.size()) {
                    return;
                }
                n = first;
                while (n < bodies.size() && (claimed[n] || !mutexes[n].try_lock())) {
                    ++n;
                }
                if (n < bodies.size()) {
                    body_lock = std::unique_lock<std::mutex>(mutexes[n], std::adopt_lock);
                } else if (std::this_thread::get_id() == caller) {
                    n = first;
                } else {
                    return;
                }
                claimed[n] = true;
            }
            if (!body_lock.owns_lock()) {
                body_lock = std::unique_lock<std::mutex>(mutexes[n]);
            }
            try {
                outputs[n] = bodies[n]->forward(input);
            } catch (...) {
                const std::lock_guard<std::mutex> lock(claim_mutex);
                failed = true;
                throw;
            }
        }
    });
    return outputs;
}

}  // namespace ens::serve
