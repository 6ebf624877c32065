#include "deisa/fault/fault.hpp"

#include <sstream>

#include "deisa/dts/runtime.hpp"
#include "deisa/obs/metrics.hpp"
#include "deisa/obs/trace.hpp"
#include "deisa/util/log.hpp"
#include "deisa/util/strings.hpp"

namespace deisa::fault {

namespace {

double parse_double(const std::string& s, const std::string& what) {
  std::size_t pos = 0;
  double v = 0.0;
  try {
    v = std::stod(s, &pos);
  } catch (const std::exception&) {
    pos = 0;
  }
  DEISA_CHECK(pos == s.size() && !s.empty(),
              "fault spec: bad " << what << " value '" << s << "'");
  return v;
}

}  // namespace

FaultPlan FaultPlan::parse(const std::string& spec) {
  FaultPlan plan;
  for (const std::string& part : util::split(spec, ';')) {
    if (part.empty()) continue;
    const auto colon = part.find(':');
    DEISA_CHECK(colon != std::string::npos,
                "fault spec: expected '<kind>:<value>', got '" << part << "'");
    const std::string kind = part.substr(0, colon);
    const std::string value = part.substr(colon + 1);
    if (kind == "kill") {
      // kill:<worker>@<time>
      const auto at = value.find('@');
      DEISA_CHECK(at != std::string::npos,
                  "fault spec: kill needs '<worker>@<time>', got '" << value
                                                                    << "'");
      const int worker = static_cast<int>(
          parse_double(value.substr(0, at), "kill worker"));
      const double time = parse_double(value.substr(at + 1), "kill time");
      DEISA_CHECK(worker >= 0 && time >= 0.0,
                  "fault spec: kill worker/time must be non-negative");
      plan.kills.emplace_back(worker, time);
    } else if (kind == "drop") {
      plan.drop_prob = parse_double(value, "drop probability");
    } else if (kind == "dup") {
      plan.dup_prob = parse_double(value, "dup probability");
    } else if (kind == "delay") {
      // delay:<prob>@<seconds>
      const auto at = value.find('@');
      DEISA_CHECK(at != std::string::npos,
                  "fault spec: delay needs '<prob>@<seconds>', got '" << value
                                                                     << "'");
      plan.delay_prob = parse_double(value.substr(0, at), "delay probability");
      plan.delay_seconds =
          parse_double(value.substr(at + 1), "delay seconds");
    } else if (kind == "seed") {
      plan.seed = static_cast<std::uint64_t>(
          parse_double(value, "seed"));
    } else {
      DEISA_CHECK(false, "fault spec: unknown fault kind '" << kind << "'");
    }
  }
  DEISA_CHECK(plan.drop_prob >= 0.0 && plan.drop_prob <= 1.0 &&
                  plan.dup_prob >= 0.0 && plan.dup_prob <= 1.0 &&
                  plan.delay_prob >= 0.0 && plan.delay_prob <= 1.0,
              "fault spec: probabilities must be in [0, 1]");
  return plan;
}

std::string FaultPlan::describe() const {
  if (empty()) return "none";
  std::ostringstream os;
  bool first = true;
  auto sep = [&] {
    if (!first) os << ", ";
    first = false;
  };
  for (const Kill& k : kills) {
    sep();
    os << "kill worker " << k.worker << " @ " << k.time << "s";
  }
  if (drop_prob > 0.0) {
    sep();
    os << "drop " << drop_prob * 100.0 << "%";
  }
  if (dup_prob > 0.0) {
    sep();
    os << "dup " << dup_prob * 100.0 << "%";
  }
  if (delay_prob > 0.0) {
    sep();
    os << "delay " << delay_prob * 100.0 << "% by " << delay_seconds << "s";
  }
  os << " (seed " << seed << ")";
  return os.str();
}

FaultInjector::FaultInjector(sim::Engine& engine, net::Cluster& cluster,
                             FaultPlan plan)
    : engine_(&engine),
      cluster_(&cluster),
      plan_(std::move(plan)),
      rng_(plan_.seed) {}

void FaultInjector::arm(dts::Runtime& runtime) {
  DEISA_CHECK(!armed_, "fault injector armed twice");
  armed_ = true;
  if (plan_.empty()) return;  // no hook, no RNG draws: bit-identical runs
  if (plan_.drop_prob > 0.0 || plan_.dup_prob > 0.0 ||
      plan_.delay_prob > 0.0) {
    cluster_->set_fault_hook([this](int /*src*/, int /*dst*/,
                                    std::uint64_t /*bytes*/,
                                    net::Delivery delivery) {
      net::FaultDecision fd;
      // One draw per opportunity, in deterministic engine order: the
      // decision stream is a pure function of the plan seed.
      if (plan_.drop_prob > 0.0 && exec::may_drop(delivery))
        fd.drop = rng_.uniform() < plan_.drop_prob;
      if (!fd.drop && plan_.dup_prob > 0.0 && exec::may_duplicate(delivery))
        fd.duplicate = rng_.uniform() < plan_.dup_prob;
      if (plan_.delay_prob > 0.0 && rng_.uniform() < plan_.delay_prob)
        fd.extra_delay = plan_.delay_seconds;
      return fd;
    });
  }
  for (const FaultPlan::Kill& k : plan_.kills) {
    DEISA_CHECK(k.worker >= 0 && k.worker < runtime.num_workers(),
                "fault plan kills unknown worker " << k.worker);
    engine_->spawn(kill_at(runtime, k.worker, k.time));
  }
}

exec::Co<void> FaultInjector::kill_at(dts::Runtime& runtime, int worker,
                                      double time) {
  co_await engine_->delay(time);
  dts::Worker& w = runtime.worker(worker);
  if (!w.alive()) co_return;
  w.crash();
  ++kills_performed_;
  obs::count("fault.workers_killed");
  obs::trace_instant("fault", "inject",
                     "kill:worker-" + std::to_string(worker));
  DEISA_TRACE("fault", "killed worker " << worker << " at t=" << time);
}

}  // namespace deisa::fault
