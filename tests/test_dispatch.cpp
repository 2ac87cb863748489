// Static-composition dispatch-table tests: building the runtime's
// rt::DispatchTable from predictions (one vote per scenario), lookup,
// serialisation, narrowing, and the history-backed predictor.
#include <gtest/gtest.h>

#include "compose/dispatch.hpp"
#include "support/error.hpp"

namespace peppher::compose {
namespace {

/// Component with a CPU and a CUDA variant.
ComponentNode make_component() {
  ComponentNode node;
  node.interface.name = "kernel";
  VariantNode cpu;
  cpu.descriptor.name = "kernel_cpu";
  cpu.descriptor.interface_name = "kernel";
  cpu.descriptor.language = "cpu";
  node.variants.push_back(cpu);
  VariantNode cuda;
  cuda.descriptor.name = "kernel_cuda";
  cuda.descriptor.interface_name = "kernel";
  cuda.descriptor.language = "cuda";
  node.variants.push_back(cuda);
  return node;
}

/// CPU: 1 ns/byte. CUDA: 100 us + 0.01 ns/byte => crossover at ~101 KB.
Predictor crossover_predictor() {
  return [](rt::Arch arch, std::size_t bytes) -> std::optional<double> {
    if (arch == rt::Arch::kCpu) return 1e-9 * static_cast<double>(bytes);
    return 100e-6 + 1e-11 * static_cast<double>(bytes);
  };
}

/// The any-footprint, any-point probe every replayed task falls back to.
std::optional<rt::Arch> wildcard_choice(const rt::DispatchTable& table) {
  return table.lookup(rt::DispatchTable::key("kernel", 0, -1));
}

TEST(DispatchTable, PicksWinnerPerScenarioAndCompacts) {
  const ComponentNode node = make_component();
  const rt::DispatchTable table = predict_dispatch(
      node, {1'000, 10'000, 100'000, 1'000'000, 10'000'000}, crossover_predictor());
  // Three small sizes vote CPU, two large vote CUDA; votes for the same
  // architecture collapse into one counted entry.
  const auto entries = table.entries();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].codelet, "kernel");
  EXPECT_EQ(entries[0].arch, rt::Arch::kCpu);
  EXPECT_EQ(entries[0].count, 3u);
  EXPECT_EQ(entries[1].arch, rt::Arch::kCuda);
  EXPECT_EQ(entries[1].count, 2u);
  for (const auto& entry : entries) {
    EXPECT_EQ(entry.footprint, 0u);
    EXPECT_EQ(entry.point, -1);
  }
}

TEST(DispatchTable, LookupResolvesTheMajorityArchitecture) {
  const ComponentNode node = make_component();
  // The table comes back finalized: replay lookups work immediately.
  EXPECT_EQ(wildcard_choice(predict_dispatch(node, {1'000, 100'000, 10'000'000},
                                             crossover_predictor())),
            rt::Arch::kCpu);
  EXPECT_EQ(wildcard_choice(predict_dispatch(node, {1'000, 10'000'000, 100'000'000},
                                             crossover_predictor())),
            rt::Arch::kCuda);
  // Other codelets miss, so the runtime falls back to dynamic selection.
  const rt::DispatchTable table =
      predict_dispatch(node, {1'000}, crossover_predictor());
  EXPECT_FALSE(table.lookup(rt::DispatchTable::key("other", 0, -1)).has_value());
}

TEST(DispatchTable, EmptyWhenNothingPredictable) {
  const ComponentNode node = make_component();
  const rt::DispatchTable table = predict_dispatch(
      node, {100, 200}, [](rt::Arch, std::size_t) { return std::nullopt; });
  EXPECT_TRUE(table.empty());
  EXPECT_FALSE(wildcard_choice(table).has_value());
}

TEST(DispatchTable, SkipsDisabledVariants) {
  ComponentNode node = make_component();
  node.variants[0].enabled = false;  // CPU gone
  const rt::DispatchTable table =
      predict_dispatch(node, {1'000}, crossover_predictor());
  const auto entries = table.entries();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].arch, rt::Arch::kCuda);
}

TEST(DispatchTable, SerializeRoundTrip) {
  const ComponentNode node = make_component();
  rt::DispatchTable table =
      predict_dispatch(node, {1'000, 10'000'000}, crossover_predictor());
  table.set_machine("c2050");
  rt::DispatchTable copy;
  copy.deserialize(table.serialize());
  EXPECT_EQ(copy.machine(), "c2050");
  const auto original = table.entries();
  const auto parsed = copy.entries();
  ASSERT_EQ(parsed.size(), original.size());
  for (std::size_t i = 0; i < parsed.size(); ++i) {
    EXPECT_EQ(parsed[i].codelet, original[i].codelet);
    EXPECT_EQ(parsed[i].arch, original[i].arch);
    EXPECT_EQ(parsed[i].count, original[i].count);
  }
}

TEST(DispatchTable, DeserializeRejectsGarbage) {
  rt::DispatchTable table;
  EXPECT_THROW(table.deserialize("1 2\n"), ParseError);
  EXPECT_THROW(table.deserialize("peppher-dispatch v1 c2050\nkernel 0 -1\n"),
               ParseError);
  EXPECT_NO_THROW(table.deserialize("peppher-dispatch v1 c2050\n"));
  EXPECT_TRUE(table.empty());
}

TEST(DispatchNarrowing, DisablesNeverChosenVariants) {
  ComponentNode node = make_component();
  // Only large scenarios: CUDA always wins; CPU should be narrowed away.
  const rt::DispatchTable table = predict_dispatch(
      node, {10'000'000, 100'000'000}, crossover_predictor());
  const int disabled = narrow_with_table(node, table);
  EXPECT_EQ(disabled, 1);
  ASSERT_EQ(node.enabled_variants().size(), 1u);
  EXPECT_EQ(node.enabled_variants()[0]->descriptor.name, "kernel_cuda");
}

TEST(DispatchNarrowing, EmptyTableIsNoOp) {
  ComponentNode node = make_component();
  EXPECT_EQ(narrow_with_table(node, rt::DispatchTable{}), 0);
  EXPECT_EQ(node.enabled_variants().size(), 2u);
  // Votes for another codelet say nothing about this component either.
  rt::DispatchTable other;
  other.train("other", 0, -1, rt::Arch::kCuda);
  EXPECT_EQ(narrow_with_table(node, other), 0);
  EXPECT_EQ(node.enabled_variants().size(), 2u);
}

TEST(DispatchNarrowing, MultiVariantTableKeepsCandidateSet) {
  // Mixed scenarios keep both variants registered (multi-stage composition:
  // the runtime takes the final choice).
  ComponentNode node = make_component();
  const rt::DispatchTable table =
      predict_dispatch(node, {1'000, 10'000'000}, crossover_predictor());
  EXPECT_EQ(narrow_with_table(node, table), 0);
  EXPECT_EQ(node.enabled_variants().size(), 2u);
}

TEST(HistoryPredictor, UsesRegressionOverRecordedSizes) {
  rt::PerfRegistry registry;
  // CPU times linear in bytes, 1e-9 s/B, at 5 distinct sizes.
  for (std::size_t bytes : {1000u, 2000u, 4000u, 8000u, 16000u}) {
    registry.record("kernel", rt::Arch::kCpu, bytes, bytes,
                    1e-9 * static_cast<double>(bytes));
  }
  const Predictor predict = history_predictor(registry, "kernel");
  const auto cpu_estimate = predict(rt::Arch::kCpu, 32'000);
  ASSERT_TRUE(cpu_estimate.has_value());
  EXPECT_NEAR(*cpu_estimate, 32e-6, 5e-6);
  // No CUDA history: unpredictable.
  EXPECT_FALSE(predict(rt::Arch::kCuda, 32'000).has_value());
}

}  // namespace
}  // namespace peppher::compose
