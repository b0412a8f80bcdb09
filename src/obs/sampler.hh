/**
 * @file
 * Windowed telemetry sampler: fixed-period time series of simulation
 * signals (injection rate, channel utilization, VC occupancy, event
 * calendar depth, ...).
 *
 * The sampler itself is passive storage plus a set of registered
 * probes; it has no clock of its own. A driver — normally
 * desim::Simulator::attachPeriodic — calls sample(t) once per window,
 * at which point every probe is evaluated and one column is appended
 * to the series table. Probes are plain std::function<double()>; a
 * probe that needs windowed semantics (a rate, a delta) captures its
 * own previous-value state.
 */

#ifndef CCHAR_OBS_SAMPLER_HH
#define CCHAR_OBS_SAMPLER_HH

#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

namespace cchar::obs {

/** Multi-series fixed-period sample recorder. */
class WindowedSampler
{
  public:
    WindowedSampler() = default;

    WindowedSampler(const WindowedSampler &) = delete;
    WindowedSampler &operator=(const WindowedSampler &) = delete;

    /**
     * Register a series. Must happen before the first sample() so all
     * series stay the same length.
     *
     * @return index of the series.
     */
    std::size_t addSeries(std::string name,
                          std::function<double()> probe);

    /** Evaluate every probe at simulated time t and append a column. */
    void sample(double t);

    /**
     * Sample the last, partial window of a run that ended at t: a
     * periodic driver stops at the run's last event, so a run that
     * ends between two periods has one window it never sampled.
     */
    void flush(double t);

    std::size_t seriesCount() const { return series_.size(); }
    std::size_t sampleCount() const { return times_.size(); }

    const std::vector<double> &times() const { return times_; }
    const std::string &seriesName(std::size_t i) const;
    const std::vector<double> &seriesValues(std::size_t i) const;

    /**
     * JSON: {"t":[...],"series":{"name":[...],...}} — one value per
     * sample per series, aligned with "t".
     */
    void writeJson(std::ostream &os) const;

  private:
    struct Series
    {
        std::string name;
        std::function<double()> probe;
        std::vector<double> values;
    };

    std::vector<double> times_;
    std::vector<Series> series_;
};

} // namespace cchar::obs

#endif // CCHAR_OBS_SAMPLER_HH
