// Deterministic fault injection: a seeded FaultPlan (worker crashes at
// fixed sim times, probabilistic message drop/duplication, bridge-push
// delays) armed against a running cluster. Every decision draws from one
// explicitly seeded stream consulted in deterministic engine order, so a
// plan plus a seed reproduces the exact same failure trace — the property
// the recovery tests and the CI fault matrix rely on.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "deisa/net/cluster.hpp"
#include "deisa/util/rng.hpp"

namespace deisa::dts {
class Runtime;
}

namespace deisa::fault {

struct FaultPlan {
  struct Kill {
    Kill() = default;
    Kill(int worker_, double time_) : worker(worker_), time(time_) {}
    int worker = -1;   // dts worker id
    double time = 0.0; // sim seconds after arming
  };

  /// Fail-stop worker crashes at fixed times.
  std::vector<Kill> kills;
  /// Probability a droppable/lossy message is silently lost.
  double drop_prob = 0.0;
  /// Probability an idempotent/lossy message is delivered twice.
  double dup_prob = 0.0;
  /// Probability any perturbable message (including bulk pushes) is
  /// delayed by `delay_seconds`.
  double delay_prob = 0.0;
  double delay_seconds = 0.0;
  /// Seed of the injection stream; same plan + seed = same fault trace.
  std::uint64_t seed = 0xFA017;

  bool empty() const {
    return kills.empty() && drop_prob <= 0.0 && dup_prob <= 0.0 &&
           delay_prob <= 0.0;
  }

  /// Parse a compact spec, e.g.
  ///   "kill:1@3.5;drop:0.01;dup:0.02;delay:0.05@0.2;seed:7"
  /// kill may repeat; delay is prob@seconds. Throws util::Error on
  /// malformed input.
  static FaultPlan parse(const std::string& spec);

  /// One-line human-readable summary ("2 kills, drop 1%, ...").
  std::string describe() const;
};

/// Arms a FaultPlan against a cluster + runtime: installs the cluster
/// fault hook (message perturbation) and spawns one kill actor per
/// planned crash. Must outlive the engine run. With an empty plan this
/// is a no-op — no hook is installed and no RNG is ever drawn, so
/// fault-free runs keep byte-identical event streams.
class FaultInjector {
public:
  FaultInjector(sim::Engine& engine, net::Cluster& cluster, FaultPlan plan);

  /// Install hooks and spawn kill actors (call once, before engine.run).
  void arm(dts::Runtime& runtime);

  const FaultPlan& plan() const { return plan_; }
  std::uint64_t kills_performed() const { return kills_performed_; }

private:
  exec::Co<void> kill_at(dts::Runtime& runtime, int worker, double time);

  sim::Engine* engine_;
  net::Cluster* cluster_;
  FaultPlan plan_;
  util::Rng rng_;
  std::uint64_t kills_performed_ = 0;
  bool armed_ = false;
};

}  // namespace deisa::fault
