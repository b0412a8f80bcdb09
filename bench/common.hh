/**
 * @file
 * Shared configuration and report builders for the benchmark harness.
 *
 * Every table/figure binary reproduces one element of the paper's
 * evaluation (see DESIGN.md section 4) using the standard setups: the
 * shared-memory suite on a 16-processor 4x4-mesh CC-NUMA machine
 * (dynamic strategy), and the NAS message-passing suite on 8 ranks
 * replayed into a 4x2 mesh (static strategy).
 */

#ifndef CCHAR_BENCH_COMMON_HH
#define CCHAR_BENCH_COMMON_HH

#include <stdexcept>
#include <string>
#include <vector>

#include "apps/registry.hh"
#include "core/core.hh"
#include "self_report.hh"

namespace cchar::bench {

inline ccnuma::MachineConfig
standardMachine()
{
    ccnuma::MachineConfig cfg;
    cfg.mesh.width = 4;
    cfg.mesh.height = 4;
    return cfg;
}

inline mp::MpConfig
standardWorld()
{
    mp::MpConfig cfg;
    cfg.mesh.width = 4;
    cfg.mesh.height = 2;
    return cfg;
}

/** Characterize one shared-memory app by name with standard params. */
inline core::CharacterizationReport
sharedMemoryReport(const std::string &name)
{
    auto app = apps::makeSharedMemoryApp(name);
    if (!app)
        throw std::invalid_argument("unknown shared-memory app: " + name);
    return core::CharacterizationPipeline{}.runDynamic(*app,
                                                       standardMachine());
}

/** Characterize one message-passing app by name (static strategy). */
inline core::CharacterizationReport
messagePassingReport(const std::string &name)
{
    auto app = apps::makeMessagePassingApp(name);
    if (!app)
        throw std::invalid_argument("unknown message-passing app: " + name);
    return core::CharacterizationPipeline{}.runStatic(*app, standardWorld());
}

inline const std::vector<std::string> &
sharedMemoryAppNames()
{
    static const std::vector<std::string> names{
        "1d-fft", "is", "cholesky", "maxflow", "nbody"};
    return names;
}

inline const std::vector<std::string> &
messagePassingAppNames()
{
    static const std::vector<std::string> names{"3d-fft", "mg"};
    return names;
}

} // namespace cchar::bench

#endif // CCHAR_BENCH_COMMON_HH
