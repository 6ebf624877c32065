#include "deisa/obs/observation.hpp"

namespace deisa::obs {

ObservationScope::ObservationScope(Recorder* recorder, SimClock::Source clock)
    : previous_recorder_(Recorder::current()) {
  Recorder::install(recorder);
  if (clock) {
    SimClock::set_source(std::move(clock));
    clock_bound_ = true;
  }
}

ObservationScope::~ObservationScope() {
  if (clock_bound_) SimClock::clear_source();
  Recorder::install(previous_recorder_);
}

}  // namespace deisa::obs
