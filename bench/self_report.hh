/**
 * @file
 * Wall-clock self-report for bench binaries (satellite of the
 * observability layer). Kept separate from common.hh so benches that
 * only link desim/mesh/stats can use it without pulling in the apps.
 */

#ifndef CCHAR_BENCH_SELF_REPORT_HH
#define CCHAR_BENCH_SELF_REPORT_HH

#include <chrono>
#include <cstdint>
#include <iostream>
#include <string>
#include <utility>

#include "obs/obs.hh"

namespace cchar::bench {

/**
 * Installs a process-wide metrics registry for its lifetime so every
 * simulation the bench runs is counted; on destruction prints
 * simulator throughput (events/sec, messages/sec) to stderr. The
 * event and message counts are deterministic: the bench count tests
 * in bench/CMakeLists.txt pin them.
 */
class SelfReport
{
  public:
    explicit SelfReport(std::string name)
        : name_(std::move(name)), scope_(&registry_),
          start_(std::chrono::steady_clock::now())
    {}

    SelfReport(const SelfReport &) = delete;
    SelfReport &operator=(const SelfReport &) = delete;

    ~SelfReport()
    {
        double wall = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start_)
                          .count();
        std::uint64_t events = registry_.counterValue("desim.events");
        std::uint64_t msgs = registry_.counterValue("mesh.messages");
        double eps =
            wall > 0.0 ? static_cast<double>(events) / wall : 0.0;
        double mps =
            wall > 0.0 ? static_cast<double>(msgs) / wall : 0.0;
        std::cerr << "[bench] " << name_ << ": " << wall << "s wall, "
                  << events << " events (" << eps << "/s), " << msgs
                  << " mesh messages (" << mps << "/s)\n";
    }

  private:
    std::string name_;
    obs::MetricsRegistry registry_;
    obs::ScopedObservability scope_;
    std::chrono::steady_clock::time_point start_;
};

} // namespace cchar::bench

#endif // CCHAR_BENCH_SELF_REPORT_HH
