// Task model of the distributed task system (dts) — a C++ re-creation of
// the dask.distributed actors the paper extends: keys, task specs, task
// states (including the new `External` state introduced by the paper),
// and the Data payload moved between workers.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <typeinfo>
#include <vector>

#include "deisa/exec/co.hpp"
#include "deisa/util/error.hpp"

namespace deisa::dts {

using Key = std::string;

/// Dense integer handle for an interned Key. The scheduler interns every
/// key string once at ingestion (see KeyTable) and indexes all of its
/// internal structures by KeyId; key strings are only rebuilt at the
/// wire boundary (worker messages, client replies, traces).
using KeyId = std::uint32_t;
inline constexpr KeyId kNoKeyId = static_cast<KeyId>(-1);

/// Scheduler-side task lifecycle. `kExternal` is this paper's addition: a
/// task that is known (keyed, sized) but neither schedulable nor runnable
/// by the task system — it completes when an external environment pushes
/// its output to a worker.
enum class TaskState {
  kWaiting,     // has unfinished dependencies
  kReady,       // runnable, not yet assigned
  kProcessing,  // assigned to a worker
  kMemory,      // finished, result stored on a worker
  kExternal,    // waiting on the external environment (the simulation)
  kErred,       // execution raised
};

const char* to_string(TaskState s);

/// Number of TaskState values (flat per-state counters).
inline constexpr std::size_t kNumTaskStates =
    static_cast<std::size_t>(TaskState::kErred) + 1;

/// How bulk payloads travel between producers and workers. There is one
/// data plane: every scatter pushes the payload bytes through the
/// transport to the preselected worker, and every dependency read
/// materializes its own copy (dask's model). Nothing reads this type; it
/// survives only because the real-cost benchmark in perfbench/ assigns
/// RuntimeParams::data_plane, and that benchmark is kept unchanged.
enum class DataPlane { kCopy };

/// Value moved between actors. In functional runs `value` holds a real
/// payload; in synthetic (paper-scale benchmark) runs only `bytes` is
/// meaningful and `value` stays empty — the same scheduler/worker code
/// paths run either way. The payload is one `make_shared<const T>` (its
/// control block and the T in one allocation), typed by `type`.
struct Data {
  Data() = default;

  std::shared_ptr<const void> value;
  const std::type_info* type = nullptr;  // of *value; null when empty
  std::uint64_t bytes = 0;
  /// Causal provenance: span id of the event that produced this payload
  /// (execute span for computed results, push span for scattered blocks).
  /// Rides along with the value so consumers on other actors can link
  /// their own spans back to the producer. 0 = unknown.
  std::uint64_t cause = 0;

  bool has_value() const { return value != nullptr; }

  template <typename T>
  const T& as() const {
    DEISA_CHECK(value != nullptr, "Data carries no value (synthetic mode?)");
    DEISA_CHECK(*type == typeid(T), "Data payload type mismatch");
    return *static_cast<const T*>(value.get());
  }

  template <typename T>
  static Data make(T v, std::uint64_t bytes) {
    Data d;
    d.value = std::make_shared<const T>(std::move(v));
    d.type = &typeid(T);
    d.bytes = bytes;
    return d;
  }

  /// Size-only payload for synthetic runs.
  static Data sized(std::uint64_t bytes) {
    Data d;
    d.bytes = bytes;
    return d;
  }
};

/// Worker-executed function: inputs are the dependency outputs in the
/// order listed by TaskSpec::deps.
using TaskFn = std::function<Data(const std::vector<Data>&)>;

/// Optional asynchronous I/O hook awaited by the worker before running
/// the task function. Used by post-hoc read tasks to charge simulated
/// parallel-file-system time (with contention) for their input bytes.
using AsyncHook = std::function<exec::Co<void>()>;

/// One node of a task graph submitted by a client.
struct TaskSpec {
  TaskSpec() = default;  // non-aggregate: see mpix::Message note on GCC 12
  TaskSpec(Key key_, std::vector<Key> deps_, TaskFn fn_, double cost_ = 0.0,
           std::uint64_t out_bytes_ = 0, int preferred_worker_ = -1)
      : key(std::move(key_)),
        deps(std::move(deps_)),
        fn(std::move(fn_)),
        cost(cost_),
        out_bytes(out_bytes_),
        preferred_worker(preferred_worker_) {}

  Key key;
  std::vector<Key> deps;
  TaskFn fn;                     // may be empty in synthetic mode
  AsyncHook io;                  // optional; awaited before fn runs
  double cost = 0.0;             // simulated compute seconds
  std::uint64_t out_bytes = 0;   // output size estimate (synthetic mode)
  int preferred_worker = -1;     // -1: scheduler decides
};

}  // namespace deisa::dts
