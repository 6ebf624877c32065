// Tests for the I/O layer: PFS contention model, the h5mini chunked
// container (real files), and the post-hoc writer/read-provider.
#include <gtest/gtest.h>

#include <filesystem>

#include "deisa/net/cluster.hpp"
#include "deisa/sim/engine.hpp"
#include "deisa/io/h5mini.hpp"
#include "deisa/io/pfs.hpp"
#include "deisa/io/posthoc.hpp"

namespace arr = deisa::array;
namespace exec = deisa::exec;
namespace io = deisa::io;
namespace sim = deisa::sim;
namespace fs = std::filesystem;

namespace {

template <typename... T>
arr::Index ix(T... v) {
  arr::Index i;
  (i.push_back(static_cast<std::int64_t>(v)), ...);
  return i;
}

io::PfsParams fast_pfs() {
  io::PfsParams p;
  p.streams = 2;
  p.per_stream_bandwidth = 1e8;  // 100 MB/s
  p.metadata_latency = 1e-3;
  p.file_create_cost = 0.5;
  p.jitter_sigma = 0.0;
  return p;
}

// `path` by value: the callers spawn this with a temporary that dies
// before the coroutine runs.
exec::Co<void> one_write(io::Pfs& pfs, std::string path, std::uint64_t bytes,
                         double& finished_at, sim::Engine& eng) {
  co_await pfs.write(path, bytes);
  finished_at = eng.now();
}

TEST(Pfs, FirstWritePaysFileCreation) {
  sim::Engine eng;
  io::Pfs pfs(eng, fast_pfs());
  double t1 = 0, t2 = 0;
  eng.spawn(one_write(pfs, "/f", 1000000, t1, eng));
  eng.run();
  eng.spawn(one_write(pfs, "/f", 1000000, t2, eng));
  eng.run();
  // 0.5 create + 1ms + 10ms transfer, then only 11ms.
  EXPECT_NEAR(t1, 0.511, 1e-9);
  EXPECT_NEAR(t2 - t1, 0.011, 1e-9);
}

TEST(Pfs, StreamsLimitConcurrency) {
  sim::Engine eng;
  auto p = fast_pfs();
  p.file_create_cost = 0.0;
  io::Pfs pfs(eng, p);
  std::vector<double> done(4, 0);
  for (int i = 0; i < 4; ++i)
    eng.spawn(one_write(pfs, "/shared", 100000000, done[static_cast<std::size_t>(i)], eng));
  eng.run();
  std::sort(done.begin(), done.end());
  // 2 streams, 1 s per 100 MB write: pairs finish at ~1 s and ~2 s.
  EXPECT_NEAR(done[1], 1.001, 1e-3);
  EXPECT_NEAR(done[3], 2.002, 1e-3);
  EXPECT_EQ(pfs.bytes_written(), 400000000u);
  EXPECT_EQ(pfs.ops(), 4u);
}

TEST(H5Mini, WriteReadRoundTrip) {
  const auto dir = fs::temp_directory_path() / "deisa-test-h5";
  auto file = io::H5Mini::create(dir, ix(2, 4, 4), ix(1, 2, 4));
  EXPECT_EQ(file.grid().num_chunks(), 4);
  arr::NDArray chunk(ix(1, 2, 4));
  for (std::int64_t i = 0; i < chunk.size(); ++i)
    chunk.flat()[static_cast<std::size_t>(i)] = static_cast<double>(i) * 1.5;
  file.write_chunk(ix(1, 1, 0), chunk);

  // Reopen from disk and read back.
  auto reopened = io::H5Mini::open(dir);
  EXPECT_EQ(reopened.grid(), file.grid());
  const auto back = reopened.read_chunk(ix(1, 1, 0));
  EXPECT_EQ(back.shape(), ix(1, 2, 4));
  for (std::int64_t i = 0; i < back.size(); ++i)
    EXPECT_DOUBLE_EQ(back.flat()[static_cast<std::size_t>(i)],
                     static_cast<double>(i) * 1.5);
}

TEST(H5Mini, ShapeMismatchAndMissingChunkThrow) {
  const auto dir = fs::temp_directory_path() / "deisa-test-h5-err";
  auto file = io::H5Mini::create(dir, ix(4, 4), ix(2, 2));
  arr::NDArray wrong(ix(3, 2));
  EXPECT_THROW(file.write_chunk(ix(0, 0), wrong), deisa::util::Error);
  EXPECT_THROW((void)file.read_chunk(ix(1, 1)), deisa::util::Error);
  EXPECT_THROW(io::H5Mini::open(fs::temp_directory_path() / "nope"),
               deisa::util::Error);
}

TEST(PosthocDataset, GeometryHelpers) {
  io::PosthocDataset ds("/pfs/x", arr::ChunkGrid(ix(3, 4, 8), ix(1, 4, 4)));
  const auto chunks = ds.grid.step_chunks(1);
  ASSERT_EQ(chunks.size(), 2u);
  EXPECT_EQ(chunks[0], ix(1, 0, 0));
  EXPECT_EQ(chunks[1], ix(1, 0, 1));
  EXPECT_EQ(ds.chunk_bytes(chunks[0]), 4u * 4u * 8u);
  EXPECT_EQ(ds.step_path(2), "/pfs/x/step-2");
}

TEST(PosthocReadProvider, FreshKeysPerSubmission) {
  sim::Engine eng;
  io::Pfs pfs(eng, fast_pfs());
  io::PosthocDataset ds("/pfs/y", arr::ChunkGrid(ix(2, 4, 4), ix(1, 4, 2)));
  io::PosthocReadProvider provider(pfs, &ds);
  std::vector<deisa::dts::TaskSpec> tasks;
  const auto k0 = provider.chunks(0, 0, tasks);
  const auto k1 = provider.chunks(1, 0, tasks);
  ASSERT_EQ(k0.size(), 2u);
  ASSERT_EQ(k1.size(), 2u);
  EXPECT_NE(k0[0], k1[0]);  // separate submissions cannot share reads
  EXPECT_EQ(tasks.size(), 4u);
  EXPECT_EQ(provider.read_tasks_created(), 4u);
  for (const auto& t : tasks) {
    EXPECT_TRUE(t.io != nullptr);  // reads charge PFS time
    EXPECT_EQ(t.out_bytes, 4u * 2u * 8u);
  }
}

}  // namespace
