// perfbench binary: one executable, one role per process (see
// perfbench.hpp). Usage: perfbench <bundle|host|client|selftest|env> --flags.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "perfbench.hpp"
#include "tensor/gemm_kernel.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace {

bool built_with_sanitizer() {
#if defined(PERFBENCH_SANITIZED) || defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    return true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
    return true;
#else
    return false;
#endif
#else
    return false;
#endif
}

}  // namespace

std::string environment_stamp_json() {
    const char* threads = std::getenv("ENS_THREADS");
    std::string json = "{\"nproc\": " + std::to_string(std::thread::hardware_concurrency());
    json += ", \"ens_threads\": \"" + std::string(threads == nullptr ? "" : threads) + "\"";
    json += ", \"kernel_isa\": \"" + std::string(ens::kernel::kernel_isa()) + "\"";
    json += ", \"build_type\": \"" + std::string(PERFBENCH_BUILD_TYPE) + "\"";
    json += ", \"sanitizer\": " + std::string(built_with_sanitizer() ? "true" : "false") + "}";
    return json;
}

std::string environment_refusal() {
    if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
        return std::string("build type is '") + PERFBENCH_BUILD_TYPE + "', not Release";
    }
    if (built_with_sanitizer()) {
        return "built with a sanitizer";
    }
    return {};
}

}  // namespace perfbench

int main(int argc, char** argv) {
    try {
        const ens::ArgParser args(argc, argv);
        const std::string& role = args.command();
        if (role == "bundle") {
            return perfbench::run_bundle(args);
        }
        if (role == "host") {
            return perfbench::run_host(args);
        }
        if (role == "client") {
            return perfbench::run_client(args);
        }
        if (role == "selftest") {
            return perfbench::run_selftest(args);
        }
        if (role == "env") {
            std::printf("%s\n", perfbench::environment_stamp_json().c_str());
            const std::string refusal = perfbench::environment_refusal();
            if (!refusal.empty()) {
                std::fprintf(stderr, "perfbench: refusing to report: %s\n", refusal.c_str());
                return 3;
            }
            return 0;
        }
        std::fprintf(stderr, "perfbench: unknown role '%s'\n", role.c_str());
        return 2;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
