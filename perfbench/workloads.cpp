#include "workloads.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "bt/client.hpp"
#include "core/wp2p_client.hpp"
#include "exp/flyweight.hpp"
#include "exp/swarm.hpp"

namespace perfbench {

namespace bt = wp2p::bt;
namespace core = wp2p::core;
namespace exp = wp2p::exp;
namespace net = wp2p::net;
namespace sim = wp2p::sim;
namespace util = wp2p::util;

namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// --- Run lengths ---------------------------------------------------------------
// Each is sized so that one world takes a few host seconds on a 4-core x86
// machine, which leaves room for several repetitions inside one benchmark run.

constexpr int kMobileTestbeds = 4;
constexpr double kMobileMinutes = 4.0;
constexpr int kCrowdPeers = 200000;
constexpr double kCrowdSeconds = 300.0;
constexpr double kAdversarySeconds = 90.0;

void append(std::string& text, const char* fmt, auto... args) {
  char line[256];
  std::snprintf(line, sizeof line, fmt, args...);
  text += line;
}

// Payload and completion time of one client, the per-client part of every
// fingerprint. `done_s` is -1 while the client has not completed.
void append_client(std::string& text, const std::string& name, const bt::Client& client,
                   double done_s) {
  append(text, "%s payload=%lld done=%.6f\n", name.c_str(),
         static_cast<long long>(client.stats().payload_downloaded), done_s);
}

// Completion time of each client in registration order, -1 until it completes.
class Completions {
 public:
  void watch(sim::Simulator& sim, bt::Client& client) {
    const std::size_t slot = done_s_.size();
    done_s_.push_back(-1.0);
    client.on_complete = [this, slot, &sim] { done_s_[slot] = sim::to_seconds(sim.now()); };
  }
  double operator[](std::size_t slot) const { return done_s_[slot]; }

 private:
  std::vector<double> done_s_;
};

void add_client_layers(LayerValues& out, const bt::Client& client) {
  out["bt.payload_mb"] += static_cast<double>(client.stats().payload_downloaded) / 1e6;
  out["bt.bans"] += static_cast<double>(client.stats().peers_banned);
  out["bt.enforce_strikes"] += static_cast<double>(client.stats().enforce_strikes);
}

// Seed of the k-th independent replica of a workload built from `seed`.
std::uint64_t replica_seed(std::uint64_t seed, int k) {
  return seed ^ (0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(k));
}

void run_to(sim::Simulator& sim, sim::SimTime horizon, Probe* probe) {
  if (probe != nullptr) {
    probe->run_until(sim, horizon);
  } else {
    sim.run_until(horizon);
  }
}

// --- mobile_swarm ----------------------------------------------------------------
// The paper's Fig. 10 testbed on the Fig. 8(b) shape: a fixed wired swarm
// serving a 688 MB image to a default mobile client and a full wP2P
// (AM + IA + MA) mobile client. Each mobile sits on its own bit-error wireless
// leg and changes IP address every simulated minute.

class MobileTestbed {
 public:
  MobileTestbed(std::uint64_t seed, Probe* probe)
      : world_{seed},
        tracker_{world_.sim},
        meta_{bt::Metainfo::create("fedora.iso", 688'000'000, 256 * 1024, "tr", 9)},
        probe_{probe} {
    bt::ClientConfig fixed;
    fixed.announce_interval = sim::minutes(2.0);
    fixed.unchoke_slots = 2;
    fixed.optimistic_interval = sim::seconds(30.0);
    fixed.upload_limit = util::Rate::kBps(40.0);
    add_fixed("seed", fixed, /*is_seed=*/true, 0.0);
    for (int i = 0; i < 10; ++i) {
      add_fixed("leech" + std::to_string(i), fixed, false, 0.1 + 0.05 * i);
    }

    net::WirelessParams wireless;
    wireless.capacity = util::Rate::kBps(400.0);
    wireless.bit_error_rate = 1e-5;
    bt::ClientConfig mobile = fixed;
    mobile.upload_limit = util::Rate::kBps(60.0);

    exp::World::Host& plain = world_.add_wireless_host("mob-default", wireless);
    clients_.push_back(std::make_unique<bt::Client>(*plain.node, *plain.stack, tracker_,
                                                    meta_, mobile, false));
    names_.push_back("mob-default");
    exp::World::Host& smart = world_.add_wireless_host("mob-wp2p", wireless);
    core::WP2PConfig wp2p_config;
    wp2p_config.base = mobile;
    wp2p_ = std::make_unique<core::WP2PClient>(*smart.node, *smart.stack, tracker_, meta_,
                                               wp2p_config);
    names_.push_back("mob-wp2p");

    for (auto& client : clients_) completions_.watch(world_.sim, *client);
    completions_.watch(world_.sim, wp2p_->client());
    // Hand-offs every simulated minute, the two mobiles half a minute apart.
    move(*plain.node, 1.0);
    move(*smart.node, 0.5);

    if (probe_ != nullptr) probe_->attach(world_);
    for (auto& client : clients_) client->start();
    wp2p_->start();
  }

  void run() {
    run_to(world_.sim, sim::minutes(kMobileMinutes), probe_);
    if (probe_ != nullptr) probe_->detach(world_);
  }

  void fingerprint(Fingerprint& fp) const {
    fp.events += world_.sim.events_processed();
    for (std::size_t i = 0; i < clients_.size(); ++i) {
      append_client(fp.text, names_[i], *clients_[i], completions_[i]);
    }
    append_client(fp.text, names_.back(), wp2p_->client(), completions_[clients_.size()]);
  }

  // Both mobiles made progress through their hand-offs.
  bool mobiles_progressed() const {
    return clients_.back()->stats().payload_downloaded > 0 &&
           wp2p_->client().stats().payload_downloaded > 0;
  }

  void layers(LayerValues& out) const {
    for (const auto& client : clients_) add_client_layers(out, *client);
    add_client_layers(out, wp2p_->client());
    out["bt.announces"] += static_cast<double>(tracker_.stats().announces);
  }

  bt::Tracker& tracker() { return tracker_; }
  bt::InfoHash info_hash() const { return meta_.info_hash; }

 private:
  void add_fixed(const std::string& name, const bt::ClientConfig& config, bool is_seed,
                 double preload) {
    exp::World::Host& host = world_.add_wired_host(name);
    clients_.push_back(std::make_unique<bt::Client>(*host.node, *host.stack, tracker_,
                                                    meta_, config, is_seed));
    if (preload > 0.0) clients_.back()->preload(preload);
    names_.push_back(name);
  }

  void move(net::Node& node, double phase) {
    mobility_.push_back(std::make_unique<sim::PeriodicTask>(
        world_.sim, sim::minutes(1.0), [&node] { node.change_address(); }));
    mobility_.back()->start_after(static_cast<sim::SimTime>(
        static_cast<double>(sim::minutes(1.0)) * phase));
  }

  exp::World world_;
  bt::Tracker tracker_;
  bt::Metainfo meta_;
  Probe* probe_;
  Completions completions_;
  std::vector<std::string> names_;
  std::vector<std::unique_ptr<bt::Client>> clients_;
  std::unique_ptr<core::WP2PClient> wp2p_;
  std::vector<std::unique_ptr<sim::PeriodicTask>> mobility_;
};

// Several independently seeded testbeds, as the figure benches average over
// seeds: one seed's piece layout can make its testbed markedly cheaper or
// dearer to simulate than another's.
class MobileSwarm final : public Instance {
 public:
  MobileSwarm(std::uint64_t seed, Probe* probe) {
    for (int k = 0; k < kMobileTestbeds; ++k) {
      testbeds_.push_back(std::make_unique<MobileTestbed>(replica_seed(seed, k), probe));
    }
  }

  void run() override {
    for (auto& testbed : testbeds_) testbed->run();
  }

  Fingerprint fingerprint() const override {
    Fingerprint fp;
    for (std::size_t k = 0; k < testbeds_.size(); ++k) {
      append(fp.text, "testbed %zu\n", k);
      testbeds_[k]->fingerprint(fp);
    }
    return fp;
  }

  std::vector<std::string> failures() const override {
    for (const auto& testbed : testbeds_) {
      if (!testbed->mobiles_progressed()) {
        return {"mobile_swarm: a mobile client downloaded nothing"};
      }
    }
    return {};
  }

  void layers(LayerValues& out) const override {
    for (const auto& testbed : testbeds_) testbed->layers(out);
  }

  bt::Tracker& tracker() override { return testbeds_.front()->tracker(); }
  bt::InfoHash info_hash() const override { return testbeds_.front()->info_hash(); }

 private:
  std::vector<std::unique_ptr<MobileTestbed>> testbeds_;
};

// --- flyweight_crowd -------------------------------------------------------------
// bench_scale's composition at its largest point: 200k flyweight background
// peers around one full seed and two full leeches on a 4 MB torrent. Cost
// tracks the population (tracker announces, progress ticks, add_peers), not
// the event count.

class FlyweightCrowd final : public Instance {
 public:
  FlyweightCrowd(std::uint64_t seed, Probe* probe)
      : swarm_{seed, bt::Metainfo::create("scale", 4 * 1024 * 1024, 256 * 1024, "tr", 1)},
        crowd_{swarm_.world, swarm_.tracker, swarm_.meta},
        probe_{probe} {
    // One aggregator host per 10k peers, as bench_scale sizes them.
    for (int h = 0; h < (kCrowdPeers + 9999) / 10000; ++h) {
      net::WiredParams link;
      link.up_capacity = util::Rate::mbps(1000.0);
      link.down_capacity = util::Rate::mbps(1000.0);
      crowd_.add_host(swarm_.world.add_wired_host("agg" + std::to_string(h), link));
    }
    const Clock::time_point start = Clock::now();
    crowd_.add_peers(kCrowdPeers);
    add_peers_s_ = since(start);

    bt::ClientConfig config;
    config.announce_interval = sim::seconds(30.0);
    for (const char* name : {"seed0", "leech0", "leech1"}) {
      const bool is_seed = std::string{name} == "seed0";
      completions_.watch(swarm_.world.sim, *swarm_.add_wired(name, is_seed, config).client);
    }

    if (probe_ != nullptr) probe_->attach(swarm_.world);
    crowd_.start();
    swarm_.start_all();
  }

  void run() override {
    run_to(swarm_.world.sim, swarm_.world.sim.now() + sim::seconds(kCrowdSeconds), probe_);
    if (probe_ != nullptr) probe_->detach(swarm_.world);
  }

  Fingerprint fingerprint() const override {
    Fingerprint fp{swarm_.world.sim.events_processed(), {}};
    for (std::size_t i = 0; i < swarm_.members.size(); ++i) {
      append_client(fp.text, swarm_.members[i].host->node->name(), *swarm_.members[i].client,
                    completions_[i]);
    }
    const exp::FlyweightSwarm::Stats& stats = crowd_.stats();
    append(fp.text, "crowd served=%llu fetched=%llu granted=%llu\n",
           static_cast<unsigned long long>(stats.blocks_served),
           static_cast<unsigned long long>(stats.blocks_fetched),
           static_cast<unsigned long long>(stats.pieces_granted));
    return fp;
  }

  std::vector<std::string> failures() const override {
    for (std::size_t i = 1; i < swarm_.members.size(); ++i) {
      if (!swarm_.members[i].client->complete()) {
        return {"flyweight_crowd: a foreground leech did not complete"};
      }
    }
    return {};
  }

  void layers(LayerValues& out) const override {
    for (const auto& member : swarm_.members) add_client_layers(out, *member.client);
    out["bt.announces"] = static_cast<double>(swarm_.tracker.stats().announces);
    out["exp.add_peers_s"] = add_peers_s_;
  }

  bt::Tracker& tracker() override { return swarm_.tracker; }
  bt::InfoHash info_hash() const override { return swarm_.meta.info_hash; }

 private:
  exp::Swarm swarm_;
  exp::FlyweightSwarm crowd_;
  Probe* probe_;
  Completions completions_;
  double add_peers_s_ = 0.0;
};

// --- adversary_mixed -------------------------------------------------------------
// bench_adversary's mixed-load composition, built directly on exp::Swarm (the
// fuzzer would force tracing on): one seed and three leeches on 16 MB under
// four flooders, a slowloris and a liar, enforcement on. The slowloris's
// bimodal near/far schedule is what the event queue is weakest at.

class AdversaryMixed final : public Instance {
 public:
  AdversaryMixed(std::uint64_t seed, Probe* probe)
      : swarm_{seed, bt::Metainfo::create("fuzz", 16 << 20, 256 * 1024, "tr",
                                          seed ^ 0xa076bd5f3017c1d3ULL)},
        probe_{probe} {
    // Client settings as exp::ScenarioFuzzer::run gives every honest peer.
    for (const char* name : {"seed0", "l0", "l1", "l2"}) {
      bt::ClientConfig config;
      config.announce_interval = sim::seconds(20.0);
      config.listen_port = static_cast<std::uint16_t>(6881 + swarm_.members.size());
      const bool is_seed = std::string{name} == "seed0";
      completions_.watch(swarm_.world.sim, *swarm_.add_wired(name, is_seed, config).client);
    }
    int index = 0;
    for (bt::AdversaryKind kind :
         {bt::AdversaryKind::kFlooder, bt::AdversaryKind::kFlooder, bt::AdversaryKind::kFlooder,
          bt::AdversaryKind::kFlooder, bt::AdversaryKind::kSlowloris, bt::AdversaryKind::kLiar}) {
      swarm_.add_adversary("adv" + std::to_string(index++), kind);
    }

    if (probe_ != nullptr) probe_->attach(swarm_.world);
    swarm_.start_all();
  }

  void run() override {
    run_to(swarm_.world.sim, swarm_.world.sim.now() + sim::seconds(kAdversarySeconds), probe_);
    if (probe_ != nullptr) probe_->detach(swarm_.world);
  }

  Fingerprint fingerprint() const override {
    Fingerprint fp{swarm_.world.sim.events_processed(), {}};
    for (std::size_t i = 0; i < swarm_.members.size(); ++i) {
      const bt::Client& client = *swarm_.members[i].client;
      append_client(fp.text, swarm_.members[i].host->node->name(), client, completions_[i]);
      append(fp.text, "  bans=%llu strikes=%llu\n",
             static_cast<unsigned long long>(client.stats().peers_banned),
             static_cast<unsigned long long>(client.stats().enforce_strikes));
    }
    return fp;
  }

  std::vector<std::string> failures() const override {
    // bench_adversary's contract for the enforced swarm: every leech finishes
    // under the attack, and enforcement bans someone.
    bool banned = false;
    for (const auto& member : swarm_.members) {
      banned |= member.client->stats().peers_banned > 0;
      if (!member.client->complete()) {
        return {"adversary_mixed: a leech did not complete under attack"};
      }
    }
    if (!banned) return {"adversary_mixed: enforcement banned no one"};
    return {};
  }

  void layers(LayerValues& out) const override {
    for (const auto& member : swarm_.members) add_client_layers(out, *member.client);
    out["bt.announces"] = static_cast<double>(swarm_.tracker.stats().announces);
  }

  bt::Tracker& tracker() override { return swarm_.tracker; }
  bt::InfoHash info_hash() const override { return swarm_.meta.info_hash; }

 private:
  exp::Swarm swarm_;
  Probe* probe_;
  Completions completions_;
};

template <typename W>
std::unique_ptr<Instance> make(std::uint64_t seed, Probe* probe) {
  return std::make_unique<W>(seed, probe);
}

}  // namespace

std::uint64_t Fingerprint::hash() const {
  std::uint64_t h = 0xcbf29ce484222325ULL ^ events;
  for (char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

void TimedChecker::on_event(const trace::TraceEvent& ev) {
  const Clock::time_point start = Clock::now();
  checker.on_event(ev);
  seconds += since(start);
}

Probe::Probe() {
  recorder.add_sink(&counts);
  recorder.add_sink(&timed_checker);
}

void Probe::attach(exp::World& world) {
  world.sim.set_tracer(&recorder);
  for (exp::World::Host& host : world.hosts) {
    net::AccessLink* link = host.node->access();
    link->on_transmit = [this](net::Direction, const net::Packet&) { ++packets; };
    link->on_queue_drop = [this](net::Direction, const net::Packet&) { ++queue_drops; };
  }
}

void Probe::detach(exp::World& world) {
  world.sim.set_tracer(nullptr);
  for (exp::World::Host& host : world.hosts) {
    host.node->access()->on_transmit = nullptr;
    host.node->access()->on_queue_drop = nullptr;
  }
}

void Probe::run_until(sim::Simulator& sim, sim::SimTime horizon) {
  // One call is one world's simulation phase. The worlds of one workload reuse
  // host names and restart the clock, so the checker starts each afresh.
  recorder.emit(trace::event(trace::Component::kSim, trace::Kind::kScenario).on("perfbench"));
  while (sim.now() < horizon) {
    sim.run_until(std::min(horizon, sim.now() + sim::seconds(1.0)));
    queue_peak = std::max(queue_peak, sim.queue_entries());
  }
}

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all{
      {"mobile_swarm", 1200, &make<MobileSwarm>},
      {"flyweight_crowd", 1, &make<FlyweightCrowd>},
      {"adversary_mixed", 9100, &make<AdversaryMixed>},
  };
  return all;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

double announce_probe_us(bt::Tracker& tracker, bt::InfoHash info_hash, int count) {
  // Even ids in a range of their own: flyweight peers draw odd ids and
  // clients draw theirs from the simulator's stream.
  constexpr bt::PeerId kProbeIdBase = 0x5052'4f42'0000'0000ULL;
  std::vector<double> micros;
  for (int i = 0; i < count; ++i) {
    bt::AnnounceRequest request;
    request.info_hash = info_hash;
    request.endpoint = {net::IpAddr{0xfe000000u + static_cast<std::uint32_t>(i)}, 6881};
    request.peer_id = kProbeIdBase + 2 * static_cast<bt::PeerId>(i);
    request.event = bt::AnnounceEvent::kStarted;
    const Clock::time_point start = Clock::now();
    tracker.announce(request, [](bt::AnnounceResult) {});
    micros.push_back(since(start) * 1e6);
    request.event = bt::AnnounceEvent::kStopped;
    tracker.announce(request, nullptr);
  }
  std::nth_element(micros.begin(), micros.begin() + count / 2, micros.end());
  return micros[static_cast<std::size_t>(count / 2)];
}

}  // namespace perfbench
