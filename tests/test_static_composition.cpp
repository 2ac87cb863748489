// End-to-end static composition (§III steps 2-3, §IV-A): training
// executions record performance history; the composition tool derives the
// runtime's dispatch table (rt::DispatchTable) from the history via
// regression; the table narrows the candidate set (or pins a single
// variant), and the narrowed composition is both correct and fast. Also covers the sampling-directory persistence
// that makes training survive across tool invocations (like StarPU's
// ~/.starpu/sampling).
#include <gtest/gtest.h>

#include <filesystem>
#include <set>

#include "apps/common.hpp"
#include "apps/sgemm.hpp"
#include "apps/sparse.hpp"
#include "apps/spmv.hpp"
#include "compose/dispatch.hpp"
#include "compose/ir.hpp"
#include "compose/training.hpp"
#include "core/peppher.hpp"
#include "runtime/engine.hpp"

#include "temp_dir.hpp"

namespace peppher {
namespace {

rt::EngineConfig training_config() {
  rt::EngineConfig config;
  config.machine = sim::MachineConfig::platform_c2050();
  config.machine.cpu_cores = 2;
  config.use_history_models = true;
  config.calibration_samples = 1;
  return config;
}

/// Trains the sgemm component at several sizes by forcing each variant
/// (training executions, §III step 2).
void train_sgemm(rt::Engine& engine, const std::vector<std::uint32_t>& sizes) {
  for (std::uint32_t n : sizes) {
    const auto problem = apps::sgemm::make_problem(n, n, n);
    for (rt::Arch arch : {rt::Arch::kCpu, rt::Arch::kCpuOmp, rt::Arch::kCuda}) {
      apps::sgemm::run_single(engine, problem, arch);
    }
  }
}

/// Architectures the table votes for, over all of its codelets.
std::set<rt::Arch> voted_archs(const rt::DispatchTable& table) {
  std::set<rt::Arch> out;
  for (const auto& entry : table.entries()) out.insert(entry.arch);
  return out;
}

compose::ComponentNode sgemm_component() {
  compose::ComponentNode node;
  node.interface.name = "sgemm";
  for (const char* lang : {"cpu", "openmp", "cuda"}) {
    compose::VariantNode variant;
    variant.descriptor.name = std::string("sgemm_") + lang;
    variant.descriptor.interface_name = "sgemm";
    variant.descriptor.language = lang;
    node.variants.push_back(std::move(variant));
  }
  return node;
}

TEST(StaticComposition, TrainingThenDispatchTablePinsGpuForLargeGemm) {
  rt::Engine engine(training_config());
  // 5 training sizes give the regression enough distinct footprints.
  train_sgemm(engine, {16, 24, 32, 48, 64});

  compose::ComponentNode node = sgemm_component();
  const compose::Predictor predict =
      compose::history_predictor(engine.perf(), "sgemm");

  // Large-context scenarios only: GEMM is compute-bound, the GPU must win
  // every scenario, so static composition narrows to a single candidate
  // ("in the extreme case to one possible candidate per call").
  std::vector<std::size_t> big_scenarios;
  for (std::uint32_t n : {256u, 384u, 512u}) {
    big_scenarios.push_back(3u * n * n * sizeof(float));
  }
  const rt::DispatchTable table =
      compose::predict_dispatch(node, big_scenarios, predict);
  ASSERT_FALSE(table.empty());
  EXPECT_EQ(voted_archs(table), std::set<rt::Arch>{rt::Arch::kCuda});
  EXPECT_EQ(compose::narrow_with_table(node, table), 2);
  ASSERT_EQ(node.enabled_variants().size(), 1u);
  EXPECT_EQ(node.enabled_variants()[0]->arch(), rt::Arch::kCuda);
}

TEST(StaticComposition, MixedScenariosKeepMultipleCandidates) {
  rt::Engine engine(training_config());
  train_sgemm(engine, {16, 24, 32, 48, 64});
  compose::ComponentNode node = sgemm_component();
  const compose::Predictor predict =
      compose::history_predictor(engine.perf(), "sgemm");

  // Tiny scenarios favour the CPU (GPU launch overhead + transfers), large
  // ones the GPU: the table keeps both registered for the runtime's final
  // choice (multi-stage composition).
  std::vector<std::size_t> scenarios = {64, 256, 1024};
  for (std::uint32_t n : {256u, 512u}) {
    scenarios.push_back(3u * n * n * sizeof(float));
  }
  const rt::DispatchTable table =
      compose::predict_dispatch(node, scenarios, predict);
  ASSERT_FALSE(table.empty());
  EXPECT_GE(voted_archs(table).size(), 2u);
  compose::narrow_with_table(node, table);
  EXPECT_GE(node.enabled_variants().size(), 2u);
}

TEST(StaticComposition, NarrowedCompositionStaysCorrect) {
  // Simulate the user-guided narrowing result: only the CUDA variant stays
  // enabled; results must match the reference.
  rt::Engine engine(training_config());
  apps::sgemm::register_components();
  rt::Codelet* codelet = core::ComponentRegistry::global().find("sgemm");
  ASSERT_NE(codelet, nullptr);
  codelet->disable_impls("cpu");
  codelet->disable_impls("openmp");
  const auto problem = apps::sgemm::make_problem(20, 20, 20);
  const auto result = apps::sgemm::run_single(engine, problem);
  const auto expected = apps::sgemm::reference(problem);
  codelet->enable_all();  // restore for other tests
  EXPECT_LT(apps::max_abs_diff(result.C, expected), 1e-3);
}

TEST(StaticComposition, PerformanceModelsPersistAcrossEngines) {
  const auto dir = peppher::testing::unique_temp_dir("peppher_sampling_test");

  // First "tool invocation": train and persist.
  {
    rt::EngineConfig config = training_config();
    config.sampling_dir = dir;
    rt::Engine engine(config);
    train_sgemm(engine, {16, 24, 32, 48, 64});
  }  // destructor saves the models

  // Second invocation: a cold engine loads the history; the regression
  // predictor works without any new training runs.
  {
    rt::EngineConfig config = training_config();
    config.sampling_dir = dir;
    rt::Engine engine(config);
    const compose::Predictor predict =
        compose::history_predictor(engine.perf(), "sgemm");
    const auto estimate = predict(rt::Arch::kCuda, 3u * 256u * 256u * 4u);
    ASSERT_TRUE(estimate.has_value());
    EXPECT_GT(*estimate, 0.0);
  }
  std::filesystem::remove_all(dir);
}

// -- the packaged training API (§III step 2) ----------------------------------

namespace {

/// Training factory for sgemm: scenario = square matrix dimension.
compose::TrainingTaskFactory sgemm_factory(
    std::vector<std::shared_ptr<apps::sgemm::Problem>>& problems) {
  return [&problems](rt::Engine& engine, std::size_t scenario,
                     std::vector<rt::DataHandlePtr>& keepalive) {
    apps::sgemm::register_components();
    auto problem = std::make_shared<apps::sgemm::Problem>(
        apps::sgemm::make_problem(static_cast<std::uint32_t>(scenario),
                                  static_cast<std::uint32_t>(scenario),
                                  static_cast<std::uint32_t>(scenario)));
    problems.push_back(problem);  // operands must outlive the task
    auto h_A = engine.register_buffer(problem->A.data(),
                                      problem->A.size() * 4, 4);
    auto h_B = engine.register_buffer(problem->B.data(),
                                      problem->B.size() * 4, 4);
    auto h_C = engine.register_buffer(problem->C.data(),
                                      problem->C.size() * 4, 4);
    keepalive = {h_A, h_B, h_C};
    auto args = std::make_shared<apps::sgemm::SgemmArgs>();
    args->m = args->n = args->k = static_cast<std::uint32_t>(scenario);
    rt::TaskSpec spec;
    spec.codelet = core::ComponentRegistry::global().find("sgemm");
    spec.operands = {{h_A, rt::AccessMode::kRead},
                     {h_B, rt::AccessMode::kRead},
                     {h_C, rt::AccessMode::kReadWrite}};
    spec.arg = std::shared_ptr<const void>(args, args.get());
    return spec;
  };
}

}  // namespace

TEST(Training, TrainComponentCoversEveryArchAndScenario) {
  apps::sgemm::register_components();
  rt::Engine engine(training_config());
  rt::Codelet* codelet = core::ComponentRegistry::global().find("sgemm");
  ASSERT_NE(codelet, nullptr);
  std::vector<std::shared_ptr<apps::sgemm::Problem>> problems;
  const auto report = compose::train_component(
      engine, *codelet, sgemm_factory(problems), {8, 16, 24, 32, 48}, 2);
  EXPECT_EQ(report.component, "sgemm");
  // 5 scenarios x 3 architectures (cpu, openmp, cuda on the C2050 machine).
  EXPECT_EQ(report.samples.size(), 15u);
  EXPECT_EQ(report.scenario_bytes().size(), 5u);
  for (const auto& sample : report.samples) {
    EXPECT_EQ(sample.runs, 2u);
    EXPECT_GT(sample.seconds, 0.0);
    EXPECT_GT(sample.total_bytes, 0u);
  }
  // The engine's registry now answers regression queries per architecture.
  EXPECT_TRUE(engine.perf()
                  .regression_estimate("sgemm", rt::Arch::kCuda, 1 << 20)
                  .has_value());
}

TEST(Training, TrainAndBuildTablePinsTheWinner) {
  apps::sgemm::register_components();
  rt::Engine engine(training_config());
  rt::Codelet* codelet = core::ComponentRegistry::global().find("sgemm");
  ASSERT_NE(codelet, nullptr);
  compose::ComponentNode node = sgemm_component();
  std::vector<std::shared_ptr<apps::sgemm::Problem>> problems;
  const auto table = compose::train_and_build_table(
      engine, node, *codelet, sgemm_factory(problems), {8, 16, 24, 32, 48}, 2);
  ASSERT_FALSE(table.empty());
  // The table comes back finalized, ready for replay.
  EXPECT_TRUE(table.lookup(rt::DispatchTable::key("sgemm", 0, -1)).has_value());
  // At these tiny sizes a CPU-side variant must win the smallest scenario
  // (GPU launch overhead dominates), so some vote is not for CUDA.
  const std::set<rt::Arch> archs = voted_archs(table);
  EXPECT_TRUE(archs.count(rt::Arch::kCpu) + archs.count(rt::Arch::kCpuOmp) > 0);
  // Every entry is one of this component's votes: its codelet, any
  // footprint, any point, an architecture one of its variants targets.
  std::uint64_t votes = 0;
  for (const auto& entry : table.entries()) {
    EXPECT_EQ(entry.codelet, "sgemm");
    EXPECT_EQ(entry.footprint, 0u);
    EXPECT_EQ(entry.point, -1);
    bool known = false;
    for (const auto& variant : node.variants) {
      known = known || variant.arch() == entry.arch;
    }
    EXPECT_TRUE(known) << rt::to_string(entry.arch);
    votes += entry.count;
  }
  EXPECT_EQ(votes, 5u);  // one per training scenario
}

TEST(StaticComposition, SpmvNetworkMatrixNarrowsAwayFromGpuOnC1060) {
  // The platform-adaptation story as a static-composition decision: train
  // spmv on the cache-less C1060 with a skewed matrix; the dispatch table
  // must not select the CUDA variant.
  rt::EngineConfig config = training_config();
  config.machine = sim::MachineConfig::platform_c1060();
  rt::Engine engine(config);

  std::vector<std::size_t> scenario_bytes;
  for (double scale : {0.02, 0.035, 0.05, 0.075, 0.1}) {
    const auto problem =
        apps::spmv::make_problem(apps::sparse::MatrixClass::kNetwork, scale);
    for (rt::Arch arch : {rt::Arch::kCpuOmp, rt::Arch::kCuda}) {
      apps::spmv::run_single(engine, problem, arch);
    }
    scenario_bytes.push_back(problem.A.values.size() * 4 +
                             problem.A.colidx.size() * 4 +
                             problem.A.rowptr.size() * 4 +
                             problem.x.size() * 4 + problem.A.nrows * 4);
  }

  compose::ComponentNode node;
  node.interface.name = "spmv";
  for (const char* lang : {"openmp", "cuda"}) {
    compose::VariantNode variant;
    variant.descriptor.name = std::string("spmv_") + lang;
    variant.descriptor.interface_name = "spmv";
    variant.descriptor.language = lang;
    node.variants.push_back(std::move(variant));
  }
  const rt::DispatchTable table = compose::predict_dispatch(
      node, scenario_bytes, compose::history_predictor(engine.perf(), "spmv"));
  ASSERT_FALSE(table.empty());
  EXPECT_EQ(voted_archs(table).count(rt::Arch::kCuda), 0u);
}

}  // namespace
}  // namespace peppher
