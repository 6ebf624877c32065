// ObservationScope: installs a trace recorder and a SimClock source for
// the duration of one scope (one scenario run), and restores whatever was
// installed before on exit. This is how the experiment harness attaches
// tracing to a pipeline run without threading recorder handles through
// every actor.
#pragma once

#include "deisa/obs/clock.hpp"
#include "deisa/obs/trace.hpp"

namespace deisa::obs {

class ObservationScope {
public:
  /// A null recorder disables tracing; an empty clock source leaves the
  /// SimClock on wall time.
  explicit ObservationScope(Recorder* recorder, SimClock::Source clock = {});
  ObservationScope(const ObservationScope&) = delete;
  ObservationScope& operator=(const ObservationScope&) = delete;
  ~ObservationScope();

private:
  Recorder* previous_recorder_;
  bool clock_bound_ = false;
};

}  // namespace deisa::obs
