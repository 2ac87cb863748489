// Parameterised application sweeps: correctness of every kernel across the
// workload dimensions the evaluation varies — matrix classes, problem
// shapes, step counts, chunk counts — on the performance-aware scheduler
// (no forced architecture: placement is free, results must not change).
#include <gtest/gtest.h>

#include <tuple>

#include "apps/common.hpp"
#include "apps/hotspot.hpp"
#include "apps/nw.hpp"
#include "apps/ode.hpp"
#include "apps/pathfinder.hpp"
#include "apps/sgemm.hpp"
#include "apps/sparse.hpp"
#include "apps/spmv.hpp"
#include "runtime/engine.hpp"

namespace peppher::apps {
namespace {

rt::Engine& shared_engine() {
  static rt::Engine engine = [] {
    rt::EngineConfig config;
    config.machine = sim::MachineConfig::platform_c2050();
    config.machine.cpu_cores = 2;
    config.use_history_models = false;
    return rt::Engine(config);
  }();
  return engine;
}

// ---------------------------------------------------------------------------
// SpMV across every §V-A matrix class, single and hybrid
// ---------------------------------------------------------------------------

class SpmvSweep : public ::testing::TestWithParam<sparse::MatrixClass> {};

INSTANTIATE_TEST_SUITE_P(
    MatrixClasses, SpmvSweep,
    ::testing::Values(sparse::MatrixClass::kStructural, sparse::MatrixClass::kHB,
                      sparse::MatrixClass::kConvex, sparse::MatrixClass::kSimulation,
                      sparse::MatrixClass::kNetwork, sparse::MatrixClass::kChemistry),
    [](const auto& info) {
      for (const auto& spec : sparse::uf_matrix_table()) {
        if (spec.matrix_class == info.param) return spec.short_name;
      }
      return std::string("unknown");
    });

TEST_P(SpmvSweep, SingleInvocationMatchesReference) {
  const auto problem = spmv::make_problem(GetParam(), 0.01);
  const auto expected = spmv::reference(problem);
  const auto result = spmv::run_single(shared_engine(), problem);
  EXPECT_LT(max_abs_diff(result.y, expected), 1e-4);
}

TEST_P(SpmvSweep, HybridMatchesReferenceAcrossChunkCounts) {
  const auto problem = spmv::make_problem(GetParam(), 0.01);
  const auto expected = spmv::reference(problem);
  for (int chunks : {1, 3, 7}) {
    const auto result = spmv::run_hybrid(shared_engine(), problem, chunks);
    EXPECT_LT(max_abs_diff(result.y, expected), 1e-4) << "chunks=" << chunks;
  }
}

// ---------------------------------------------------------------------------
// SGEMM across shapes (square, tall, wide, deep) and block counts
// ---------------------------------------------------------------------------

class SgemmSweep
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, std::uint32_t,
                                                 std::uint32_t>> {};

INSTANTIATE_TEST_SUITE_P(Shapes, SgemmSweep,
                         ::testing::Values(std::make_tuple(16u, 16u, 16u),
                                           std::make_tuple(64u, 8u, 8u),
                                           std::make_tuple(8u, 64u, 8u),
                                           std::make_tuple(8u, 8u, 64u),
                                           std::make_tuple(33u, 17u, 29u),
                                           std::make_tuple(1u, 48u, 48u)),
                         [](const auto& info) {
                           return 'm' + std::to_string(std::get<0>(info.param)) +
                                  'n' + std::to_string(std::get<1>(info.param)) +
                                  'k' + std::to_string(std::get<2>(info.param));
                         });

TEST_P(SgemmSweep, SingleMatchesReference) {
  const auto [m, n, k] = GetParam();
  const auto problem = sgemm::make_problem(m, n, k);
  EXPECT_LT(max_abs_diff(sgemm::run_single(shared_engine(), problem).C,
                         sgemm::reference(problem)),
            1e-3);
}

TEST_P(SgemmSweep, BlockedMatchesReference) {
  const auto [m, n, k] = GetParam();
  const auto problem = sgemm::make_problem(m, n, k);
  const auto expected = sgemm::reference(problem);
  for (int blocks : {2, 5}) {
    if (static_cast<std::uint32_t>(blocks) > m) continue;
    EXPECT_LT(max_abs_diff(sgemm::run_blocked(shared_engine(), problem, blocks).C,
                           expected),
              1e-3)
        << "blocks=" << blocks;
  }
}

// ---------------------------------------------------------------------------
// Hotspot across grid shapes and step parities
// ---------------------------------------------------------------------------

class HotspotSweep
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, std::uint32_t, int>> {};

INSTANTIATE_TEST_SUITE_P(Grids, HotspotSweep,
                         ::testing::Combine(::testing::Values(8u, 31u),
                                            ::testing::Values(8u, 17u),
                                            ::testing::Values(1, 2, 5)),
                         [](const auto& info) {
                           return 'r' + std::to_string(std::get<0>(info.param)) +
                                  'c' + std::to_string(std::get<1>(info.param)) +
                                  's' + std::to_string(std::get<2>(info.param));
                         });

TEST_P(HotspotSweep, MatchesReference) {
  const auto [rows, cols, steps] = GetParam();
  const auto problem = hotspot::make_problem(rows, cols, steps);
  EXPECT_LT(max_abs_diff(hotspot::run(shared_engine(), problem).temp,
                         hotspot::reference(problem)),
            1e-3);
}

// ---------------------------------------------------------------------------
// NW and pathfinder across sizes (exact integer results)
// ---------------------------------------------------------------------------

class SizeSweep : public ::testing::TestWithParam<std::uint32_t> {};

INSTANTIATE_TEST_SUITE_P(Sizes, SizeSweep,
                         ::testing::Values(1u, 2u, 17u, 64u, 129u),
                         [](const auto& info) {
                           return 'n' + std::to_string(info.param);
                         });

TEST_P(SizeSweep, NwExactAcrossSizes) {
  const auto problem = nw::make_problem(GetParam());
  EXPECT_EQ(nw::run_single(shared_engine(), problem).score,
            nw::reference(problem));
}

TEST_P(SizeSweep, PathfinderExactAcrossShapes) {
  const auto problem = pathfinder::make_problem(2 + GetParam() % 37, GetParam() + 3);
  EXPECT_EQ(pathfinder::run_single(shared_engine(), problem).result,
            pathfinder::reference(problem));
}

TEST_P(SizeSweep, OdeMatchesReferenceAcrossSizes) {
  const auto problem = ode::make_problem(4 + GetParam(), 6);
  EXPECT_LT(max_abs_diff(ode::run_tool(shared_engine(), problem).y,
                         ode::reference(problem)),
            1e-4);
}

// ---------------------------------------------------------------------------
// OpenCL platform: every application has a fourth backend (§IV-C lists
// CPU/OpenMP, CUDA, OpenCL as the supported platform types)
// ---------------------------------------------------------------------------

TEST(OpenClPlatform, AppsRunCorrectlyOnOpenClBackend) {
  rt::EngineConfig config;
  config.machine = sim::MachineConfig::platform_opencl();
  config.machine.cpu_cores = 1;
  config.use_history_models = false;
  rt::Engine engine(config);

  const auto spmv_problem = spmv::make_problem(sparse::MatrixClass::kHB, 0.01);
  const auto spmv_result =
      spmv::run_single(engine, spmv_problem, rt::Arch::kOpenCl);
  EXPECT_LT(max_abs_diff(spmv_result.y, spmv::reference(spmv_problem)), 1e-4);

  const auto sgemm_problem = sgemm::make_problem(24, 24, 24);
  EXPECT_LT(max_abs_diff(
                sgemm::run_single(engine, sgemm_problem, rt::Arch::kOpenCl).C,
                sgemm::reference(sgemm_problem)),
            1e-3);

  const auto nw_problem = nw::make_problem(48);
  EXPECT_EQ(nw::run_single(engine, nw_problem, rt::Arch::kOpenCl).score,
            nw::reference(nw_problem));

  const auto ode_problem = ode::make_problem(16, 8);
  EXPECT_LT(max_abs_diff(ode::run_tool(engine, ode_problem, rt::Arch::kOpenCl).y,
                         ode::reference(ode_problem)),
            1e-4);
}

TEST(OpenClPlatform, DynamicSelectionUsesTheOpenClDevice) {
  rt::EngineConfig config;
  config.machine = sim::MachineConfig::platform_opencl();
  config.use_history_models = false;
  rt::Engine engine(config);
  // Compute-bound GEMM: the OpenCL accelerator must win unforced.
  const auto problem = sgemm::make_problem(128, 128, 128);
  sgemm::run_single(engine, problem);
  const auto counts = engine.arch_task_counts();
  EXPECT_GT(counts[static_cast<std::size_t>(rt::Arch::kOpenCl)], 0u);
}

}  // namespace
}  // namespace peppher::apps
