#include "deisa/io/pfs.hpp"

#include "deisa/obs/trace.hpp"

namespace deisa::io {

Pfs::Pfs(exec::Executor& ex, PfsParams params)
    : engine_(&ex),
      params_(params),
      streams_(ex, static_cast<std::size_t>(std::max(1, params.streams))),
      rng_(params.seed) {
  DEISA_CHECK(params_.per_stream_bandwidth > 0, "PFS bandwidth must be > 0");
}

double Pfs::jitter() {
  if (params_.jitter_sigma <= 0.0) return 1.0;
  std::lock_guard lk(mu_);
  return rng_.lognormal_mean(1.0, params_.jitter_sigma);
}

exec::Co<void> Pfs::io_op(const char* op, std::uint64_t bytes,
                         double extra_latency) {
  ++ops_;
  const double start = engine_->now();
  obs::Span span = obs::trace_span("pfs", "streams", op);
  if (span.active()) span.add_arg(obs::arg("bytes", bytes));
  co_await streams_.acquire();
  const double duration =
      (params_.metadata_latency + extra_latency +
       static_cast<double>(bytes) / params_.per_stream_bandwidth) *
      jitter();
  co_await engine_->delay(duration);
  streams_.release();
  span.finish();
  const double seconds = engine_->now() - start;
  std::lock_guard lk(mu_);
  op_seconds_.observe(seconds);
}

exec::Co<void> Pfs::write(const std::string& path, std::uint64_t bytes) {
  double extra = 0.0;
  {
    std::lock_guard lk(mu_);
    if (created_.insert(path).second) extra = params_.file_create_cost;
  }
  bytes_written_ += bytes;
  co_await io_op("write", bytes, extra);
}

exec::Co<void> Pfs::read(const std::string& /*path*/, std::uint64_t bytes) {
  bytes_read_ += bytes;
  co_await io_op("read", bytes, 0.0);
}

}  // namespace deisa::io
