// Performance-model tests: Welford statistics, footprints and their cache,
// history lookup, per-codelet model slots, power-law regression,
// persistence round-trips.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>

#include "runtime/engine.hpp"
#include "runtime/perfmodel.hpp"
#include "support/error.hpp"
#include "support/fs.hpp"

#include "temp_dir.hpp"

namespace peppher::rt {
namespace {

TEST(SampleStats, WelfordMeanAndStddev) {
  SampleStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_EQ(s.count, 8u);
  EXPECT_DOUBLE_EQ(s.mean, 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 0.001);  // sample stddev
  EXPECT_DOUBLE_EQ(s.min, 2.0);
  EXPECT_DOUBLE_EQ(s.max, 9.0);
}

TEST(SampleStats, SingleSample) {
  SampleStats s;
  s.add(3.5);
  EXPECT_DOUBLE_EQ(s.mean, 3.5);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(Footprint, DistinguishesSizesAndOrder) {
  EXPECT_NE(footprint_of({100}), footprint_of({200}));
  EXPECT_NE(footprint_of({100, 200}), footprint_of({200, 100}));
  EXPECT_EQ(footprint_of({100, 200}), footprint_of({100, 200}));
  EXPECT_NE(footprint_of({}), footprint_of({0}));
}

// Footprints key persisted .model files and peppher-dispatch v1 tables, so
// their values must never change: these constants are FNV-1a over each size
// as eight little-endian bytes.
TEST(Footprint, PinnedToCommittedValues) {
  EXPECT_EQ(footprint_of({}), 0xcbf29ce484222325ULL);
  EXPECT_EQ(footprint_of({0}), 0xa8c7f832281a39c5ULL);
  EXPECT_EQ(footprint_of({100, 200}), 0xe2727c268a9ae4c9ULL);
  // The ODE operand shapes of Figure 7 at n = 64: J, y, k and J, y, k1, k2, t.
  EXPECT_EQ(footprint_of({16384, 256, 256}), 0xe421c6e8415512e5ULL);
  EXPECT_EQ(footprint_of({16384, 256, 256, 256, 256}), 0xd2c6c0bf3e459ac5ULL);
}

TEST(FootprintCache, MissHitAndMissAgainMatchFootprintOf) {
  const FootprintCache cache;
  const std::vector<std::vector<std::size_t>> sizes = {
      {16384, 256, 256}, {16384, 256, 256}, {256, 256},
      {16384, 256, 256}, {},                {1, 2, 3, 4, 5, 6, 7, 8, 9}};
  for (const auto& operand_bytes : sizes) {
    EXPECT_EQ(cache.get(operand_bytes), footprint_of(operand_bytes));
  }
  // A copy starts empty and still answers correctly.
  const FootprintCache copy = cache;
  EXPECT_EQ(copy.get({256, 256}), footprint_of({256, 256}));
}

TEST(FootprintCache, EngineTaskFootprintFollowsChangingOperandSizes) {
  EngineConfig config;
  config.machine = sim::MachineConfig::cpu_only(1);
  Engine engine(config);
  Codelet codelet("footprint_probe");
  codelet.add_impl(Implementation(Arch::kCpu, "footprint_probe_cpu",
                                  [](ExecContext&) {}));
  std::vector<float> small(16), large(64);
  const DataHandlePtr a =
      engine.register_buffer(small.data(), small.size() * sizeof(float), 4);
  const DataHandlePtr b =
      engine.register_buffer(large.data(), large.size() * sizeof(float), 4);
  // The same codelet with operand sizes that miss, hit, miss and miss
  // again in its one-entry cache.
  const std::vector<std::vector<DataHandlePtr>> calls = {
      {a, b}, {a, b}, {b, a}, {a}, {a, b}};
  for (const auto& operands : calls) {
    TaskSpec spec;
    spec.codelet = &codelet;
    for (const DataHandlePtr& handle : operands) {
      spec.operands.push_back({handle, AccessMode::kRead});
    }
    const TaskPtr task = engine.submit(std::move(spec));
    ASSERT_EQ(task->operand_bytes.size(), operands.size());
    for (std::size_t i = 0; i < operands.size(); ++i) {
      EXPECT_EQ(task->operand_bytes[i], operands[i]->bytes());
    }
    EXPECT_EQ(task->footprint, footprint_of(task->operand_bytes));
  }
  engine.wait_for_all();
}

TEST(PerfRegistry, CodeletSlotsAgreeWithNameLookups) {
  PerfRegistry registry;
  Codelet codelet("slot_probe");
  const Codelet copy = codelet;  // same name, same models
  Codelet other("slot_other");
  registry.record(codelet, Arch::kCuda, 7, 100, 1.0);
  registry.record(copy, Arch::kCuda, 7, 100, 3.0);
  registry.record("slot_probe", Arch::kCuda, 7, 100, 2.0);
  registry.record(other, Arch::kCpu, 7, 100, 9.0);
  EXPECT_EQ(registry.sample_count("slot_probe", Arch::kCuda, 7), 3u);
  EXPECT_DOUBLE_EQ(registry.expected("slot_probe", Arch::kCuda, 7).value(), 2.0);
  const auto by_codelet = registry.query(codelet, Arch::kCuda, 7, 100, 2);
  const auto by_name = registry.query("slot_probe", Arch::kCuda, 7, 100, 2);
  EXPECT_EQ(by_codelet.samples, 3u);
  EXPECT_EQ(by_codelet.samples, by_name.samples);
  EXPECT_EQ(by_codelet.exec, by_name.exec);
  EXPECT_FALSE(registry.query(codelet, Arch::kCpu, 7, 100, 2).exec.has_value());
  EXPECT_EQ(registry.query(other, Arch::kCpu, 7, 100, 1).exec, 9.0);

  // clear() drops the models and the slots that point at them.
  registry.clear();
  EXPECT_EQ(registry.query(codelet, Arch::kCuda, 7, 100, 1).samples, 0u);
  registry.record(codelet, Arch::kCuda, 7, 100, 4.0);
  EXPECT_EQ(registry.sample_count("slot_probe", Arch::kCuda, 7), 1u);
  EXPECT_EQ(registry.query(codelet, Arch::kCuda, 7, 100, 1).exec, 4.0);
}

TEST(HistoryModel, ExactMatchReturnsMean) {
  HistoryModel model;
  model.record(42, 1000, 0.5);
  model.record(42, 1000, 1.5);
  EXPECT_DOUBLE_EQ(model.expected(42).value(), 1.0);
  EXPECT_EQ(model.sample_count(42), 2u);
  EXPECT_FALSE(model.expected(43).has_value());
  EXPECT_EQ(model.sample_count(43), 0u);
}

TEST(HistoryModel, RegressionNeedsFourDistinctSizes) {
  HistoryModel model;
  model.record(1, 1000, 1.0);
  model.record(2, 2000, 2.0);
  model.record(3, 4000, 4.0);
  EXPECT_FALSE(model.regression_estimate(8000).has_value());
  model.record(4, 8000, 8.0);
  // Perfectly linear data: time = 1e-3 * bytes.
  const double estimate = model.regression_estimate(16000).value();
  EXPECT_NEAR(estimate, 16.0, 0.5);
}

TEST(HistoryModel, RegressionFitsPowerLaw) {
  HistoryModel model;
  // time = 2e-9 * bytes^1.5
  for (std::size_t bytes : {1000u, 4000u, 16000u, 64000u, 256000u}) {
    const double t = 2e-9 * std::pow(static_cast<double>(bytes), 1.5);
    model.record(bytes /*as footprint*/, bytes, t);
  }
  const double estimate = model.regression_estimate(1000000).value();
  const double truth = 2e-9 * std::pow(1e6, 1.5);
  EXPECT_NEAR(estimate / truth, 1.0, 0.05);
}

TEST(HistoryModel, SerializeRoundTrip) {
  HistoryModel model;
  model.record(7, 512, 0.25);
  model.record(7, 512, 0.75);
  model.record(9, 2048, 3.0);
  HistoryModel copy;
  copy.deserialize(model.serialize());
  EXPECT_DOUBLE_EQ(copy.expected(7).value(), 0.5);
  EXPECT_EQ(copy.sample_count(7), 2u);
  EXPECT_DOUBLE_EQ(copy.expected(9).value(), 3.0);
  EXPECT_EQ(copy.entry_count(), 2u);
}

TEST(HistoryModel, DeserializeRejectsGarbage) {
  HistoryModel model;
  EXPECT_THROW(model.deserialize("1 2 3\n"), Error);
  EXPECT_NO_THROW(model.deserialize(""));
}

TEST(PerfRegistry, RecordsPerCodeletAndArch) {
  PerfRegistry registry;
  registry.record("spmv", Arch::kCpu, 1, 100, 2.0);
  registry.record("spmv", Arch::kCuda, 1, 100, 0.5);
  EXPECT_DOUBLE_EQ(registry.expected("spmv", Arch::kCpu, 1).value(), 2.0);
  EXPECT_DOUBLE_EQ(registry.expected("spmv", Arch::kCuda, 1).value(), 0.5);
  EXPECT_FALSE(registry.expected("sgemm", Arch::kCpu, 1).has_value());
  EXPECT_EQ(registry.sample_count("spmv", Arch::kCpu, 1), 1u);
}

TEST(PerfRegistry, SaveLoadRoundTrip) {
  const auto dir = peppher::testing::unique_temp_dir("peppher_models");

  PerfRegistry registry;
  registry.record("spmv", Arch::kCpu, 11, 100, 2.0);
  registry.record("spmv", Arch::kCuda, 11, 100, 0.25);
  registry.record("sgemm", Arch::kCpuOmp, 12, 200, 1.0);
  registry.save(dir);

  PerfRegistry loaded;
  loaded.load(dir);
  EXPECT_DOUBLE_EQ(loaded.expected("spmv", Arch::kCpu, 11).value(), 2.0);
  EXPECT_DOUBLE_EQ(loaded.expected("spmv", Arch::kCuda, 11).value(), 0.25);
  EXPECT_DOUBLE_EQ(loaded.expected("sgemm", Arch::kCpuOmp, 12).value(), 1.0);
  std::filesystem::remove_all(dir);
}

TEST(PerfRegistry, LoadMissingDirIsColdStart) {
  PerfRegistry registry;
  EXPECT_NO_THROW(registry.load("/nonexistent/peppher/dir"));
}

TEST(PerfRegistry, ClearDropsEverything) {
  PerfRegistry registry;
  registry.record("x", Arch::kCpu, 1, 8, 1.0);
  registry.clear();
  EXPECT_FALSE(registry.expected("x", Arch::kCpu, 1).has_value());
}

}  // namespace
}  // namespace peppher::rt
