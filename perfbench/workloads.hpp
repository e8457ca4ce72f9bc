// Workloads of the host-cost benchmark, and the instrumentation of its traced
// run.
//
// A workload is a closed, deterministic simulation built from one seed. make()
// builds it up to the first simulated event (the set-up the benchmark times as
// setup_s); Instance::run is the simulation phase (run_s). Nothing here changes
// the simulator: every number is taken through the public APIs of exp::World,
// exp::Swarm, exp::FlyweightSwarm, sim::Simulator,
// bt::Tracker, the net::AccessLink hooks and trace::Recorder sinks.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bt/tracker.hpp"
#include "exp/world.hpp"
#include "trace/invariant_checker.hpp"
#include "trace/recorder.hpp"

namespace perfbench {

namespace trace = wp2p::trace;

// Per-layer numbers by metric name (see README.md for the table).
using LayerValues = std::map<std::string, double>;

// What a run must reproduce exactly: simulator events plus the workload's
// outcome statistics, rendered as canonical text. A speed-only change to the
// simulator leaves both identical.
struct Fingerprint {
  std::uint64_t events = 0;
  std::string text;

  std::uint64_t hash() const;
  bool operator==(const Fingerprint&) const = default;
};

// Counts every trace event by component and by kind.
class CountingSink final : public trace::Sink {
 public:
  void on_event(const trace::TraceEvent& ev) override {
    ++by_component[static_cast<std::size_t>(ev.component)];
    ++by_kind[static_cast<std::size_t>(ev.kind)];
  }

  std::uint64_t count(trace::Kind kind) const {
    return by_kind[static_cast<std::size_t>(kind)];
  }

  // Indexed by the enum's value; sized for its whole underlying type.
  std::array<std::uint64_t, 256> by_component{};
  std::array<std::uint64_t, trace::kNumKinds> by_kind{};
};

// Forwards every event to an InvariantChecker and sums the host time it takes.
class TimedChecker final : public trace::Sink {
 public:
  void on_event(const trace::TraceEvent& ev) override;

  trace::InvariantChecker checker;
  double seconds = 0.0;
};

// The traced run's instrumentation: a recorder carrying the two sinks above,
// transmit/drop hooks on every host's access link, and a simulation phase cut
// into one-simulated-second run_until slices so the queue depth can be sampled
// between them. None of it may change what the simulation does; the tests
// check that sim.events and the fingerprint stay identical.
class Probe {
 public:
  Probe();
  Probe(const Probe&) = delete;
  Probe& operator=(const Probe&) = delete;

  void attach(wp2p::exp::World& world);
  void detach(wp2p::exp::World& world);
  void run_until(wp2p::sim::Simulator& sim, wp2p::sim::SimTime horizon);

  trace::Recorder recorder{1};
  CountingSink counts;
  TimedChecker timed_checker;
  std::uint64_t packets = 0;
  std::uint64_t queue_drops = 0;
  std::size_t queue_peak = 0;
};

// One built workload, ready for its simulation phase.
class Instance {
 public:
  virtual ~Instance() = default;

  // The simulation phase.
  virtual void run() = 0;
  // Only valid after run().
  virtual Fingerprint fingerprint() const = 0;
  // Outcome checks beyond the fingerprint, as failure messages.
  virtual std::vector<std::string> failures() const = 0;
  // Per-layer numbers the workload knows without the probe.
  virtual void layers(LayerValues& out) const = 0;
  // The tracker the announce probe runs against, and its torrent.
  virtual wp2p::bt::Tracker& tracker() = 0;
  virtual wp2p::bt::InfoHash info_hash() const = 0;
};

struct Workload {
  const char* name;
  // The seed whose fingerprint is pinned in pinned.hpp.
  std::uint64_t default_seed;
  // Builds the workload up to its first simulated event. `probe` is null for
  // the untraced run; otherwise it is attached before anything starts.
  std::unique_ptr<Instance> (*make)(std::uint64_t seed, Probe* probe);
};

const std::vector<Workload>& workloads();
const Workload* find_workload(const std::string& name);

// Median host microseconds of `count` synchronous announces with fresh peer
// ids against the tracker's current population. Each is undone with a
// kStopped announce, so the swarm is left as it was found. Schedules the
// announce callbacks but never runs the simulator: call it only after the
// fingerprint is taken.
double announce_probe_us(wp2p::bt::Tracker& tracker, wp2p::bt::InfoHash info_hash,
                         int count);

}  // namespace perfbench
