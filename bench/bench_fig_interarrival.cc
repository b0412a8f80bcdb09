/**
 * @file
 * Experiment F-IA — per-application inter-arrival time distributions
 * (the paper's per-application distribution figures): empirical CDF
 * points of the aggregate arrival process with the fitted CDF
 * overlaid, printed as plot-ready series.
 */

#include <iomanip>
#include <iostream>

#include "common.hh"

namespace {

void
printSeries(const cchar::core::CharacterizationReport &report)
{
    std::cout << "# " << report.application << " — aggregate "
              << "inter-arrival time, fit: "
              << report.temporalAggregate.fit.dist->describe()
              << " (R2=" << report.temporalAggregate.fit.gof.r2
              << ")\n";
    std::cout << "# x(us)  F_empirical  F_fitted\n";

    // Re-derive the empirical CDF for plotting. The pipeline does not
    // retain raw samples, so re-run is avoided by sampling the fitted
    // quantile range against the fitted CDF and the summary stats.
    const auto &fit = report.temporalAggregate;
    double xMax = fit.stats.p99 > 0.0 ? fit.stats.p99
                                      : fit.stats.mean * 3.0;
    for (int i = 1; i <= 20; ++i) {
        double x = xMax * static_cast<double>(i) / 20.0;
        std::cout << std::fixed << std::setprecision(5) << std::setw(9)
                  << x << "  " << std::setw(11) << "-" << "  "
                  << std::setw(9) << fit.fit.dist->cdf(x) << "\n";
    }
    std::cout << "\n";
}

} // namespace

int
main()
{
    cchar::bench::SelfReport selfReport{"fig_interarrival"};
    using namespace cchar;
    using namespace cchar::bench;

    std::cout << "F-IA: inter-arrival time CDFs (empirical vs fitted) "
                 "per application\n\n";

    // For two representative applications print the full empirical
    // series by re-running and keeping the raw log.
    core::CharacterizationPipeline pipeline;
    for (const std::string &name : {std::string{"1d-fft"},
                                    std::string{"is"}}) {
        desim::Simulator sim;
        ccnuma::Machine machine{sim, standardMachine()};
        auto app = apps::makeSharedMemoryApp(name);
        apps::launch(machine, *app);
        machine.run();
        auto gaps = machine.log().interArrivalTimes();
        stats::Ecdf ecdf{gaps};
        stats::DistributionFitter fitter;
        auto best = fitter.bestFit(gaps);
        std::cout << "# " << name << " — " << gaps.size()
                  << " samples, fit " << best.dist->describe()
                  << " R2=" << best.gof.r2 << "\n";
        std::cout << "# x(us)  F_empirical  F_fitted\n";
        auto pts = ecdf.regressionPoints(25);
        for (const auto &[x, f] : pts) {
            std::cout << std::fixed << std::setprecision(5)
                      << std::setw(9) << x << "  " << std::setw(11) << f
                      << "  " << std::setw(9) << best.dist->cdf(x)
                      << "\n";
        }
        std::cout << "\n";
    }

    // Fitted-only series for the rest of the suite.
    for (const std::string &name : {std::string{"cholesky"},
                                    std::string{"nbody"}})
        printSeries(sharedMemoryReport(name));
    for (const auto &name : messagePassingAppNames())
        printSeries(messagePassingReport(name));
    return 0;
}
