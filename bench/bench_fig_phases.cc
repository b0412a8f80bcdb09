/**
 * @file
 * Experiment F-PH — phase structure of the message generation.
 *
 * The paper describes each application in terms of execution phases
 * ("there are three main phases in the execution [of 1D-FFT]; in the
 * first and last phase ... an entirely local operation"). This figure
 * slices each run into equal time windows and fits the arrival
 * process per window: phase boundaries show up as sharp changes in
 * rate and in the winning distribution family.
 */

#include <iomanip>
#include <iostream>

#include "common.hh"

int
main()
{
    cchar::bench::SelfReport selfReport{"fig_phases"};
    using namespace cchar;
    using namespace cchar::bench;

    std::cout << "F-PH: windowed inter-arrival analysis (8 windows "
                 "per run)\n\n";

    for (const std::string &name :
         {std::string{"1d-fft"}, std::string{"nbody"},
          std::string{"is"}}) {
        desim::Simulator sim;
        ccnuma::Machine machine{sim, standardMachine()};
        auto app = apps::makeSharedMemoryApp(name);
        apps::launch(machine, *app);
        machine.run();

        core::TemporalAnalyzer analyzer;
        auto windows = analyzer.analyzeWindows(machine.log(), 8);
        std::cout << "# " << name << "\n";
        std::cout << "# win     msgs   rate(/us)      CV  family\n";
        for (const auto &w : windows) {
            double rate =
                w.stats.mean > 0.0 ? 1.0 / w.stats.mean : 0.0;
            std::cout << "  " << std::setw(3) << w.source
                      << std::setw(9) << (w.stats.count + 1)
                      << std::setw(12) << std::fixed
                      << std::setprecision(3) << rate << std::setw(8)
                      << std::setprecision(2) << w.stats.cv << "  "
                      << (w.fit.dist ? w.fit.dist->name()
                                     : std::string{"(sparse)"})
                      << "\n";
        }
        std::cout << "\n";
    }
    std::cout << "Expected shape: rate swings across windows follow "
                 "the applications' compute/communicate phases.\n";
    return 0;
}
