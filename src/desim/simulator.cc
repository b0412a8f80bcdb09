#include "simulator.hh"

#include <chrono>
#include <sstream>
#include <stdexcept>

namespace cchar::desim {

void
Delay::await_suspend(std::coroutine_handle<> h)
{
    SimTime dt = dt_ < 0.0 ? 0.0 : dt_;
    sim_->scheduleResume(h, sim_->now() + dt);
}

Simulator::Simulator()
{
    // Resolve observability handles once; the dispatch loop never does
    // a name lookup. With no sinks installed these stay detached and
    // every use is a null check.
    if (obs::MetricsRegistry *reg = obs::metrics()) {
        eventsCtr_ = reg->counter("desim.events");
        calendarPeakGauge_ = reg->gauge("desim.calendar_peak");
        eventsPerSecGauge_ = reg->gauge("desim.events_per_sec");
    }
    tracer_ = obs::tracer();
}

Simulator::~Simulator()
{
    // Frames still on the calendar belong to root processes owned by
    // processes_; destroying the Task<void> runners tears down the
    // whole suspended coroutine chains.
}

Task<void>
Simulator::processRunner(Task<void> body,
                         std::shared_ptr<ProcessState> state, Simulator *sim)
{
    try {
        co_await std::move(body);
    } catch (...) {
        state->error = std::current_exception();
    }
    state->done = true;
    if (sim->tracer_) {
        obs::Tracer *tr = sim->tracer_;
        tr->span(tr->lane("proc:" + state->name), tr->name("process"),
                 state->spawnTime, sim->now_ - state->spawnTime);
    }
    for (auto h : state->joiners)
        sim->scheduleResume(h, sim->now());
    state->joiners.clear();
}

ProcessRef
Simulator::spawn(Task<void> body, std::string name)
{
    auto state = std::make_shared<ProcessState>();
    if (name.empty()) {
        std::ostringstream os;
        os << "process-" << processes_.size();
        name = os.str();
    }
    state->name = std::move(name);
    state->spawnTime = now_;

    Task<void> runner = processRunner(std::move(body), state, this);
    // Schedule the runner's first resumption at the current time; the
    // frame itself stays owned by the registry entry so teardown is
    // deterministic even if the process never completes.
    calendar_.push(CalendarEvent{now_, seq_++, runner.rawHandle(), 0});
    processes_.push_back(RootProcess{std::move(runner), state});
    return ProcessRef{std::move(state)};
}

void
Simulator::scheduleResume(std::coroutine_handle<> h, SimTime at)
{
    if (at < now_)
        at = now_;
    calendar_.push(CalendarEvent{at, seq_++, h, 0});
}

std::uint32_t
Simulator::allocFnSlot(std::function<void()> fn)
{
    if (!fnFree_.empty()) {
        std::uint32_t slot = fnFree_.back();
        fnFree_.pop_back();
        fnSlots_[slot - 1] = std::move(fn);
        return slot;
    }
    fnSlots_.push_back(std::move(fn));
    return static_cast<std::uint32_t>(fnSlots_.size());
}

void
Simulator::schedule(std::function<void()> fn, SimTime at)
{
    if (at < now_)
        at = now_;
    calendar_.push(CalendarEvent{at, seq_++, {}, allocFnSlot(std::move(fn))});
}

void
Simulator::attachPeriodic(std::function<void(SimTime)> fn, SimTime period)
{
    if (period <= 0.0)
        throw std::invalid_argument("desim: periodic period must be > 0");
    if (!fn)
        throw std::invalid_argument("desim: null periodic callback");
    schedulePeriodicTick(
        std::make_shared<std::function<void(SimTime)>>(std::move(fn)),
        period);
}

void
Simulator::schedulePeriodicTick(
    std::shared_ptr<std::function<void(SimTime)>> fn, SimTime period)
{
    ++periodicPending_;
    schedule(
        [this, fn, period] {
            --periodicPending_;
            (*fn)(now_);
            // Re-arm only while non-periodic work remains; otherwise
            // periodic chains would keep each other (and run())
            // alive forever.
            if (calendar_.size() > periodicPending_)
                schedulePeriodicTick(fn, period);
        },
        now_ + period);
}

void
Simulator::dispatch(const CalendarEvent &ev)
{
    now_ = ev.time;
    ++processed_;
    eventsCtr_.add(1);
    if (ev.handle) {
        ev.handle.resume();
    } else if (ev.fnSlot != 0) {
        // Move the callback out of its slot before invoking it: the
        // callback may schedule again and reuse the freed slot.
        std::function<void()> fn = std::move(fnSlots_[ev.fnSlot - 1]);
        fnFree_.push_back(ev.fnSlot);
        fn();
    }
    if (calendar_.size() > calendarPeak_)
        calendarPeak_ = calendar_.size();
}

void
Simulator::publishRunStats()
{
    calendarPeakGauge_.high(static_cast<double>(calendarPeak_));
    eventsPerSecGauge_.set(wallEventsPerSec());
}

void
Simulator::run()
{
    auto wallStart = std::chrono::steady_clock::now();
    // Stop at the last non-periodic event: a leftover tick would move
    // now() up to one period past the end of the run.
    while (calendar_.size() > periodicPending_) {
        if (processed_ >= maxEvents_)
            throw std::runtime_error(
                "desim: event cap exceeded (runaway simulation?)");
        CalendarEvent ev = calendar_.popMin();
        dispatch(ev);
    }
    while (!calendar_.empty()) {
        CalendarEvent tick = calendar_.popMin();
        fnSlots_[tick.fnSlot - 1] = nullptr;
        fnFree_.push_back(tick.fnSlot);
    }
    periodicPending_ = 0;
    wallSeconds_ +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      wallStart)
            .count();
    publishRunStats();
    rethrowProcessErrors();
}

void
Simulator::runUntil(SimTime t)
{
    auto wallStart = std::chrono::steady_clock::now();
    while (!calendar_.empty() && calendar_.top().time <= t) {
        if (processed_ >= maxEvents_)
            throw std::runtime_error(
                "desim: event cap exceeded (runaway simulation?)");
        CalendarEvent ev = calendar_.popMin();
        dispatch(ev);
    }
    if (now_ < t)
        now_ = t;
    wallSeconds_ +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      wallStart)
            .count();
    publishRunStats();
    rethrowProcessErrors();
}

void
Simulator::rethrowProcessErrors() const
{
    for (const auto &proc : processes_) {
        if (proc.state->error)
            std::rethrow_exception(proc.state->error);
    }
}

void
Simulator::destroyProcesses()
{
    // Frame teardown may release resources, which may in turn push
    // wake-up events for sibling frames — destroy everything first,
    // then drop the (now dangling) calendar entries and callbacks.
    processes_.clear();
    calendar_.clear();
    fnSlots_.clear();
    fnFree_.clear();
    periodicPending_ = 0;
}

std::vector<std::string>
Simulator::unfinishedProcesses() const
{
    std::vector<std::string> names;
    for (const auto &proc : processes_) {
        if (!proc.state->done)
            names.push_back(proc.state->name);
    }
    return names;
}

} // namespace cchar::desim
