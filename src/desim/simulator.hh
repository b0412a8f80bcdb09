/**
 * @file
 * Process-oriented discrete-event simulation kernel.
 *
 * This is the reproduction's stand-in for the CSIM simulation package the
 * paper's 2-D mesh network simulator was written in. It provides:
 *
 *  - a global simulation clock (double-precision, microseconds by
 *    convention throughout this project);
 *  - processes expressed as C++20 coroutines (Task<void>), spawned and
 *    joined through the Simulator;
 *  - a deterministic event calendar (ties broken by insertion order, so
 *    every run of the same model with the same seed is bit-identical).
 *
 * Blocking primitives (Delay, Resource, Mailbox, SimEvent) live in their
 * own headers and interoperate with any coroutine driven by this kernel.
 *
 * Observability: the kernel self-instruments against the process-wide
 * obs hooks (see obs/obs.hh) — events dispatched, peak calendar depth,
 * and wall-clock events/sec land in the installed MetricsRegistry, and
 * every completed process emits a lifetime span to the installed
 * Tracer. With no sinks installed the handles are detached and the
 * per-event cost is a null check.
 */

#ifndef CCHAR_DESIM_SIMULATOR_HH
#define CCHAR_DESIM_SIMULATOR_HH

#include <coroutine>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "calendar.hh"
#include "obs/obs.hh"
#include "task.hh"

namespace cchar::desim {

/** Simulated time. Convention: microseconds. */
using SimTime = double;

class Simulator;

/** Shared completion state of a spawned root process. */
struct ProcessState
{
    std::string name;
    /** Time the process was spawned (lifetime span start). */
    SimTime spawnTime = 0.0;
    bool done = false;
    std::exception_ptr error{};
    std::vector<std::coroutine_handle<>> joiners;
};

/**
 * Lightweight handle to a spawned process; awaitable (join semantics).
 *
 * `co_await ref` suspends the awaiting process until the referenced
 * process completes. Joining an already-finished process does not
 * suspend.
 */
class ProcessRef
{
  public:
    ProcessRef() = default;

    explicit ProcessRef(std::shared_ptr<ProcessState> state)
        : state_(std::move(state))
    {}

    bool valid() const { return static_cast<bool>(state_); }
    bool done() const { return state_ && state_->done; }
    const std::string &name() const { return state_->name; }

    /** Time the process was spawned. */
    SimTime spawnTime() const { return state_->spawnTime; }

    struct Awaiter
    {
        ProcessState *state;

        bool await_ready() const noexcept { return state->done; }

        void
        await_suspend(std::coroutine_handle<> h)
        {
            state->joiners.push_back(h);
        }

        void await_resume() const noexcept {}
    };

    Awaiter operator co_await() const { return Awaiter{state_.get()}; }

  private:
    std::shared_ptr<ProcessState> state_{};
};

/**
 * Awaitable that suspends the current process for a fixed duration.
 *
 * Single-shot: each Delay schedules exactly one resumption, so it is
 * move-only — a copy could be awaited a second time and resume a
 * coroutine handle that no longer exists.
 */
class Delay
{
  public:
    Delay(Simulator *sim, SimTime dt) : sim_(sim), dt_(dt) {}

    Delay(const Delay &) = delete;
    Delay &operator=(const Delay &) = delete;
    Delay(Delay &&) = default;
    Delay &operator=(Delay &&) = default;

    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h);
    void await_resume() const noexcept {}

  private:
    Simulator *sim_;
    SimTime dt_;
};

/**
 * The simulation kernel: event calendar, clock, and process registry.
 */
class Simulator
{
  public:
    Simulator();
    Simulator(const Simulator &) = delete;
    Simulator &operator=(const Simulator &) = delete;
    ~Simulator();

    /** Current simulated time. */
    SimTime now() const { return now_; }

    /** Awaitable: suspend the calling process for dt time units. */
    Delay
    delay(SimTime dt)
    {
        return Delay{this, dt};
    }

    /**
     * Adopt a coroutine as a root process and schedule it to start at
     * the current simulated time.
     *
     * @param body  The process body; ownership of the frame transfers
     *              to the simulator.
     * @param name  Diagnostic name (deadlock reports, error messages).
     * @return A joinable handle to the process.
     */
    ProcessRef spawn(Task<void> body, std::string name = {});

    /** Schedule resumption of a suspended coroutine at absolute time. */
    void scheduleResume(std::coroutine_handle<> h, SimTime at);

    /** Schedule a plain callback at absolute time. */
    void schedule(std::function<void()> fn, SimTime at);

    /**
     * Run `fn(now)` every `period` time units, starting one period from
     * now, for as long as the calendar holds any other work. Periodic
     * ticks do not keep the simulation alive: once only periodic ticks
     * remain, run() drops them and returns with now() at the last
     * other event. Telemetry samplers and
     * progress reporting hang off this.
     */
    void attachPeriodic(std::function<void(SimTime)> fn, SimTime period);

    /**
     * Run until the event calendar drains.
     *
     * @throws std::runtime_error if any process terminated with an
     *         exception, or if the event cap is exceeded.
     */
    void run();

    /**
     * Run events with timestamp <= t, then stop. The clock ends at
     * min(t, time of last executed event ... t).
     */
    void runUntil(SimTime t);

    /** Number of calendar events executed so far. */
    std::uint64_t processedEvents() const { return processed_; }

    /** Pending events in the calendar. */
    std::size_t calendarSize() const { return calendar_.size(); }

    /** Largest calendar depth observed so far. */
    std::size_t calendarPeak() const { return calendarPeak_; }

    /** Wall-clock seconds spent inside run()/runUntil() so far. */
    double wallSeconds() const { return wallSeconds_; }

    /** Self-profiled dispatch throughput (events / wall second). */
    double
    wallEventsPerSec() const
    {
        return wallSeconds_ > 0.0
                   ? static_cast<double>(processed_) / wallSeconds_
                   : 0.0;
    }

    /** Safety valve: maximum events before run() aborts. */
    void setMaxEvents(std::uint64_t n) { maxEvents_ = n; }

    /**
     * Tear down every root process (destroying suspended coroutine
     * chains) and drop all pending calendar entries. Idempotent.
     *
     * Owners of simulation resources (networks, machines) call this
     * from their destructors: suspended frames hold RAII releases
     * onto those resources, so the frames must die first. The object
     * declaration order at every call site (simulator before machine)
     * would otherwise destroy them in exactly the wrong order when a
     * run ends abnormally (deadlock, watchdog trip).
     */
    void destroyProcesses();

    /**
     * Names of spawned processes that have not completed. Non-empty
     * after run() indicates deadlock (every process blocked with no
     * pending events).
     */
    std::vector<std::string> unfinishedProcesses() const;

    /** True if all spawned processes have completed. */
    bool allProcessesDone() const { return unfinishedProcesses().empty(); }

    /** Trace sink this kernel resolved at construction (may be null). */
    obs::Tracer *tracer() const { return tracer_; }

  private:
    struct RootProcess
    {
        Task<void> runner;
        std::shared_ptr<ProcessState> state;
    };

    static Task<void> processRunner(Task<void> body,
                                    std::shared_ptr<ProcessState> state,
                                    Simulator *sim);

    void dispatch(const CalendarEvent &ev);
    std::uint32_t allocFnSlot(std::function<void()> fn);
    void rethrowProcessErrors() const;
    void schedulePeriodicTick(
        std::shared_ptr<std::function<void(SimTime)>> fn, SimTime period);
    void publishRunStats();

    SimTime now_ = 0.0;
    std::uint64_t seq_ = 0;
    std::uint64_t processed_ = 0;
    std::uint64_t maxEvents_ = 2'000'000'000;
    std::size_t calendarPeak_ = 0;
    /** Periodic ticks currently sitting in the calendar. */
    std::size_t periodicPending_ = 0;
    double wallSeconds_ = 0.0;
    EventCalendar calendar_;
    /**
     * Side storage for callback events: the calendar entry carries a
     * 1-based index into fnSlots_ so heap percolation only ever moves
     * 32-byte PODs. Freed indices are recycled through fnFree_.
     */
    std::vector<std::function<void()>> fnSlots_;
    std::vector<std::uint32_t> fnFree_;
    std::vector<RootProcess> processes_;

    // Observability handles, resolved once at construction.
    obs::Tracer *tracer_ = nullptr;
    obs::Counter eventsCtr_;
    obs::Gauge calendarPeakGauge_;
    obs::Gauge eventsPerSecGauge_;
};

} // namespace cchar::desim

#endif // CCHAR_DESIM_SIMULATOR_HH
