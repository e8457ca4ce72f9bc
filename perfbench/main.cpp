// Host-cost benchmark of the wP2P simulator.
//
//   perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//
// --trace 0 repeats the untraced workload for about S seconds and reports the
// end-to-end metrics: medians of the simulation phase (run_s), the set-up
// (setup_s) and the CPU time of one repetition (cpu_s), plus the peak
// resident set of the process. --trace 1 makes the same untraced repetitions,
// then one traced run of the same seed, and reports the per-layer metrics.
// Every repetition must reproduce the first one's fingerprint, the traced run
// must reproduce the untraced one, and the default seed must reproduce the
// fingerprint pinned in pinned.hpp. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "pinned.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux reports KiB
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(mid),
                   values.end());
  if (values.size() % 2 == 1) return values[mid];
  const double upper = values[mid];
  return (upper + *std::max_element(values.begin(), values.begin() +
                                                        static_cast<std::ptrdiff_t>(mid))) /
         2.0;
}

// Fresh peer ids announced per bt.announce_us probe.
constexpr int kAnnounceProbes = 32;
// Set-up samples a --trace 0 run aims for; extra set-ups (built, never run)
// fill in when the repetitions alone give fewer.
constexpr std::size_t kSetupSamples = 51;

struct Options {
  const Workload* workload = nullptr;
  std::uint64_t seed = 0;
  double seconds = 20.0;
  bool trace = false;
};

[[noreturn]] void usage_error(const std::string& message) {
  std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  std::fprintf(stderr,
               "usage: perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]\n"
               "workloads:");
  for (const Workload& w : workloads()) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opts;
  bool seed_given = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage_error(arg + " expects a value");
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      opts.workload = find_workload(value);
      if (opts.workload == nullptr) usage_error("unknown workload '" + value + "'");
    } else if (arg == "--seed") {
      opts.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0' || value[0] == '-') usage_error("bad --seed");
      seed_given = true;
    } else if (arg == "--seconds") {
      opts.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(opts.seconds > 0.0) || opts.seconds > 3600.0) {
        usage_error("bad --seconds");
      }
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") usage_error("--trace expects 0 or 1");
      opts.trace = value == "1";
    } else {
      usage_error("unknown flag " + arg);
    }
  }
  if (opts.workload == nullptr) usage_error("--workload is required");
  if (!seed_given) opts.seed = opts.workload->default_seed;
  return opts;
}

// Correctness bookkeeping across every operation of the run.
class Checks {
 public:
  Checks(const Workload& workload, std::uint64_t seed) : workload_{workload}, seed_{seed} {}

  // Records one built-and-run instance. The first fingerprint recorded is the
  // reference every later run of this seed must reproduce.
  void record(const Instance& instance, const Fingerprint& fp, const char* label) {
    ++attempted_;
    std::vector<std::string> failures = instance.failures();
    if (reference_.has_value() && !(fp == *reference_)) {
      failures.push_back(std::string{label} + ": fingerprint differs from the first run");
      report_fingerprint("first", *reference_);
      report_fingerprint(label, fp);
    }
    if (!reference_.has_value()) {
      reference_ = fp;
      check_pin(fp);
    }
    fail(failures);
  }

  void fail(const std::vector<std::string>& failures) {
    for (const std::string& message : failures) {
      std::fprintf(stderr, "FAIL %s\n", message.c_str());
    }
    failed_ += static_cast<int>(failures.size());
  }

  bool correct() const { return failed_ == 0 && pin_ok_; }
  int attempted() const { return attempted_; }
  int failed() const { return failed_; }
  const Fingerprint& reference() const { return *reference_; }

 private:
  void check_pin(const Fingerprint& fp) {
    std::fprintf(stderr, "perfbench: %s seed=%llu fingerprint events=%llu hash=%016llx\n",
                 workload_.name, static_cast<unsigned long long>(seed_),
                 static_cast<unsigned long long>(fp.events),
                 static_cast<unsigned long long>(fp.hash()));
    if (seed_ != workload_.default_seed) return;
    const Pin* pin = find_pin(workload_.name);
    if (pin != nullptr && pin->events == fp.events && pin->hash == fp.hash()) return;
    pin_ok_ = false;
    std::fprintf(stderr, "FAIL %s: default-seed fingerprint does not match pinned.hpp\n",
                 workload_.name);
    report_fingerprint("run", fp);
  }

  static void report_fingerprint(const char* label, const Fingerprint& fp) {
    std::fprintf(stderr, "--- %s fingerprint (events=%llu)\n%s", label,
                 static_cast<unsigned long long>(fp.events), fp.text.c_str());
  }

  const Workload& workload_;
  std::uint64_t seed_;
  std::optional<Fingerprint> reference_;
  bool pin_ok_ = true;
  int attempted_ = 0;
  int failed_ = 0;
};

struct Repetitions {
  std::vector<double> setup_s;
  std::vector<double> run_s;
  std::vector<double> cpu_s;
};

// Untraced repetitions of the workload until about `budget_s` host seconds
// are spent. The first one always runs.
Repetitions repeat_untraced(const Options& opts, Checks& checks, double budget_s) {
  Repetitions reps;
  const Clock::time_point start = Clock::now();
  std::vector<double> wall;
  do {
    const Clock::time_point rep_start = Clock::now();
    const double cpu_start = cpu_seconds();
    std::unique_ptr<Instance> instance = opts.workload->make(opts.seed, nullptr);
    reps.setup_s.push_back(since(rep_start));
    const Clock::time_point run_start = Clock::now();
    instance->run();
    reps.run_s.push_back(since(run_start));
    reps.cpu_s.push_back(cpu_seconds() - cpu_start);
    checks.record(*instance, instance->fingerprint(), "repetition");
    instance.reset();
    wall.push_back(since(rep_start));
  } while (since(start) + median(wall) <= budget_s);
  std::fprintf(stderr, "perfbench: run_s of %zu repetitions:", reps.run_s.size());
  for (double s : reps.run_s) std::fprintf(stderr, " %.4f", s);
  std::fprintf(stderr, "\n");
  return reps;
}

// Extra set-ups (built, started, torn down, never run) until kSetupSamples
// are collected or the budget is spent.
void repeat_setup(const Options& opts, std::vector<double>& setup_s, double budget_s) {
  const Clock::time_point start = Clock::now();
  std::vector<double> wall;
  while (setup_s.size() < kSetupSamples &&
         (wall.empty() || since(start) + median(wall) <= budget_s)) {
    const Clock::time_point rep_start = Clock::now();
    std::unique_ptr<Instance> instance = opts.workload->make(opts.seed, nullptr);
    setup_s.push_back(since(rep_start));
    instance.reset();
    wall.push_back(since(rep_start));
  }
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

// Shortest text that reads back as the same double.
std::string number(double value) {
  char buf[64];
  const auto result = std::to_chars(buf, buf + sizeof buf, value);
  return std::string{buf, result.ptr};
}

void print(const Options& opts, const Checks& checks, const std::vector<Metric>& metrics) {
  std::printf("%s seed=%llu %s\n", opts.workload->name,
              static_cast<unsigned long long>(opts.seed), opts.trace ? "traced" : "untraced");
  for (const Metric& m : metrics) {
    std::printf("  %-24s %16s %s\n", m.name.c_str(), number(m.value).c_str(), m.unit);
  }
  std::string json = "{\"correct\": ";
  json += checks.correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(checks.attempted());
  json += ", \"failed\": " + std::to_string(checks.failed());
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " + number(metrics[i].value) +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

std::vector<Metric> end_to_end(const Options& opts, Checks& checks) {
  Repetitions reps = repeat_untraced(opts, checks, opts.seconds);
  // Set-up is a median too: top the samples up with at most a fifth more time.
  repeat_setup(opts, reps.setup_s, 0.2 * opts.seconds);
  return {
      {"run_s", median(reps.run_s), "s"},
      {"setup_s", median(reps.setup_s), "s"},
      {"cpu_s", median(reps.cpu_s), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
}

std::vector<Metric> per_layer(const Options& opts, Checks& checks) {
  const Repetitions reps = repeat_untraced(opts, checks, opts.seconds);
  const double untraced_run_s = median(reps.run_s);

  Probe probe;
  std::unique_ptr<Instance> instance = opts.workload->make(opts.seed, &probe);
  const Clock::time_point run_start = Clock::now();
  instance->run();
  const double traced_run_s = since(run_start);
  checks.record(*instance, instance->fingerprint(), "traced run");
  LayerValues layers;
  instance->layers(layers);
  const auto& violations = probe.timed_checker.checker.violations();
  for (const trace::Violation& v : violations) {
    checks.fail({"traced run: " + trace::to_string(v)});
  }
  // After the fingerprint: the probe schedules announce replies.
  const double announce_us =
      announce_probe_us(instance->tracker(), instance->info_hash(), kAnnounceProbes);
  instance.reset();

  const CountingSink& counts = probe.counts;
  const double events = static_cast<double>(checks.reference().events);
  const double packets = static_cast<double>(probe.packets);

  auto layer = [&](const char* name) {
    auto it = layers.find(name);
    return it == layers.end() ? 0.0 : it->second;
  };
  auto kind = [&](trace::Kind k) { return static_cast<double>(counts.count(k)); };
  std::vector<Metric> out{
      {"sim.events", events, "count"},
      {"sim.ns_per_event", events > 0 ? untraced_run_s / events * 1e9 : 0.0, "ns"},
      {"sim.queue_peak", static_cast<double>(probe.queue_peak), "count"},
      {"net.packets", packets, "count"},
      {"net.ns_per_packet", packets > 0 ? untraced_run_s / packets * 1e9 : 0.0, "ns"},
      {"net.queue_drops", static_cast<double>(probe.queue_drops), "count"},
      {"tcp.fast_retransmits", kind(trace::Kind::kTcpFastRetransmit), "count"},
      {"tcp.rtos", kind(trace::Kind::kTcpRto), "count"},
      {"core.am_decouples", kind(trace::Kind::kAmDecouple), "count"},
      {"core.am_dupack_drops", kind(trace::Kind::kAmDupackDrop), "count"},
      {"core.lihd_steps", kind(trace::Kind::kLihdStep), "count"},
      {"bt.payload_mb", layer("bt.payload_mb"), "MB"},
      {"bt.announces", layer("bt.announces"), "count"},
      {"bt.announce_us", announce_us, "us"},
      {"bt.bans", layer("bt.bans"), "count"},
      {"bt.enforce_strikes", layer("bt.enforce_strikes"), "count"},
      {"exp.add_peers_s", layer("exp.add_peers_s"), "s"},
  };
  for (std::size_t c = 0; c <= static_cast<std::size_t>(trace::Component::kStore); ++c) {
    const auto component = static_cast<trace::Component>(c);
    out.push_back({std::string{"trace.events."} + trace::to_string(component),
                   static_cast<double>(counts.by_component[c]), "count"});
  }
  out.push_back({"trace.checker_s", probe.timed_checker.seconds, "s"});
  out.push_back({"trace.overhead_s", traced_run_s - untraced_run_s, "s"});
  out.push_back({"trace.violations", static_cast<double>(violations.size()), "count"});
  return out;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Options opts = perfbench::parse(argc, argv);
  perfbench::Checks checks{*opts.workload, opts.seed};
  const std::vector<perfbench::Metric> metrics =
      opts.trace ? perfbench::per_layer(opts, checks) : perfbench::end_to_end(opts, checks);
  perfbench::print(opts, checks, metrics);
  return checks.correct() ? 0 : 1;
}
