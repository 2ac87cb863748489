// Distributed scaling over simulated cluster nodes (the PR-9 tentpole):
// the 2-D Jacobi stencil with halo exchange and the row-partitioned SpMV
// are run on 1 -> 2 -> 4 uniform C2050 nodes joined by a 10GbE-class
// inter-node link, at a FIXED per-node problem size (weak scaling).
//
// Two headline numbers, both gated by tools/run_bench.sh:
//
//   overlap_speedup_4node   blocking / overlapped virtual makespan of the
//                           4-node Jacobi run. Identical numerics and
//                           traffic; only the dependency shape differs
//                           (JacobiConfig::overlap). Gate: >= 1.3x.
//   weak_scaling_4node      scaled speedup nodes * T(1) / T(nodes) of the
//                           overlapped Jacobi run at 4 nodes — 4.0 would be
//                           perfect weak scaling, the inter-node exchange
//                           is the loss term. Gate: >= 2.0x.
//
// Flags:
//   --json[=FILE]  machine-readable output, consumed by tools/run_bench.sh
//   --smoke        tiny grids/few sweeps; sub-second (the bench-smoke ctest)
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "apps/distributed.hpp"
#include "apps/spmv.hpp"
#include "runtime/engine.hpp"
#include "sim/topology.hpp"

using namespace peppher;

namespace {

struct Row {
  std::string workload;
  int nodes = 1;
  std::string exchange = "-";  ///< "overlapped" | "blocking" | "-" (spmv)
  double virtual_s = 0.0;
  double wall_ms = 0.0;
  std::uint64_t internode_transfers = 0;
  std::uint64_t internode_bytes = 0;
};

rt::EngineConfig cluster_config(int nodes) {
  rt::EngineConfig config;
  config.cluster =
      sim::ClusterConfig::uniform(nodes, sim::MachineConfig::platform_c2050());
  config.use_history_models = false;
  config.enable_prefetch = false;
  return config;
}

Row run_jacobi_row(int nodes, bool overlap, std::size_t rows_per_node,
                   std::size_t cols, int iterations, int reps) {
  apps::dist::JacobiConfig jacobi;
  jacobi.rows = rows_per_node * static_cast<std::size_t>(nodes);
  jacobi.cols = cols;
  jacobi.iterations = iterations;
  jacobi.overlap = overlap;

  Row row;
  row.workload = "jacobi";
  row.nodes = nodes;
  row.exchange = overlap ? "overlapped" : "blocking";
  // Best of `reps`: the virtual schedule depends on which ready task each
  // worker thread dequeues first, so the makespan jitters a little from run
  // to run; the minimum is the noise-free schedule for this shape.
  for (int rep = 0; rep < reps; ++rep) {
    rt::Engine engine(cluster_config(nodes));
    const auto wall_start = std::chrono::steady_clock::now();
    const apps::dist::JacobiResult result =
        apps::dist::run_jacobi(engine, jacobi);
    const auto wall_end = std::chrono::steady_clock::now();
    const double wall_ms =
        std::chrono::duration<double, std::milli>(wall_end - wall_start)
            .count();
    if (rep == 0 || result.virtual_seconds < row.virtual_s) {
      row.virtual_s = result.virtual_seconds;
      row.wall_ms = wall_ms;
      row.internode_transfers = result.transfers.internode_count;
      row.internode_bytes = result.transfers.internode_bytes;
    }
  }
  return row;
}

Row run_spmv_row(int nodes, double scale_per_node) {
  const apps::spmv::Problem problem = apps::spmv::make_problem(
      apps::sparse::MatrixClass::kHB, scale_per_node * nodes);

  rt::Engine engine(cluster_config(nodes));
  const auto wall_start = std::chrono::steady_clock::now();
  const apps::spmv::RunResult result =
      apps::dist::run_distributed_spmv(engine, problem);
  const auto wall_end = std::chrono::steady_clock::now();

  Row row;
  row.workload = "spmv";
  row.nodes = nodes;
  row.virtual_s = result.virtual_seconds;
  row.wall_ms =
      std::chrono::duration<double, std::milli>(wall_end - wall_start).count();
  row.internode_transfers = result.transfers.internode_count;
  row.internode_bytes = result.transfers.internode_bytes;
  return row;
}

void write_json(std::FILE* out, const std::vector<Row>& rows,
                std::size_t rows_per_node, std::size_t cols, int iterations,
                double overlap_speedup, double weak_scaling) {
  std::fprintf(out, "{\n  \"benchmark\": \"distributed_scaling\",\n");
  std::fprintf(out, "  \"unit\": \"virtual seconds\",\n");
  std::fprintf(out,
               "  \"jacobi\": {\"rows_per_node\": %zu, \"cols\": %zu, "
               "\"iterations\": %d, \"halo\": 1},\n",
               rows_per_node, cols, iterations);
  std::fprintf(out, "  \"rows\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(out,
                 "    {\"workload\": \"%s\", \"nodes\": %d, \"exchange\": "
                 "\"%s\", \"virtual_s\": %.6f, \"internode_transfers\": %llu, "
                 "\"internode_bytes\": %llu, \"wall_ms\": %.2f}%s\n",
                 r.workload.c_str(), r.nodes, r.exchange.c_str(), r.virtual_s,
                 static_cast<unsigned long long>(r.internode_transfers),
                 static_cast<unsigned long long>(r.internode_bytes), r.wall_ms,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out,
               "  ],\n  \"overlap_speedup_4node\": %.3f,\n"
               "  \"weak_scaling_4node\": %.3f\n}\n",
               overlap_speedup, weak_scaling);
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  bool smoke = false;
  std::string json_file;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      json = true;
    } else if (arg.rfind("--json=", 0) == 0) {
      json = true;
      json_file = arg.substr(std::strlen("--json="));
    } else if (arg == "--smoke") {
      smoke = true;
    } else {
      std::fprintf(stderr, "usage: %s [--json[=FILE]] [--smoke]\n", argv[0]);
      return 2;
    }
  }

  const std::size_t rows_per_node = smoke ? 16 : 512;
  const std::size_t cols = smoke ? 64 : 2048;
  const int iterations = smoke ? 2 : 8;
  const double spmv_scale = smoke ? 0.02 : 0.10;
  const int reps = smoke ? 1 : 3;

  apps::dist::register_components();

  std::printf("Distributed weak scaling: Jacobi %zux%zu per node, %d sweeps; "
              "SpMV scale %.2f per node; C2050 nodes over 10GbE\n\n",
              rows_per_node, cols, iterations, spmv_scale);
  std::printf("%-8s %6s %-11s %12s %10s %14s %10s\n", "workload", "nodes",
              "exchange", "virtual(s)", "n2n hops", "n2n bytes", "wall(ms)");

  std::vector<Row> rows;
  const auto emit = [&rows](Row row) {
    std::printf("%-8s %6d %-11s %12.6f %10llu %14llu %10.2f\n",
                row.workload.c_str(), row.nodes, row.exchange.c_str(),
                row.virtual_s,
                static_cast<unsigned long long>(row.internode_transfers),
                static_cast<unsigned long long>(row.internode_bytes),
                row.wall_ms);
    rows.push_back(std::move(row));
  };

  for (const int nodes : {1, 2, 4}) {
    emit(run_jacobi_row(nodes, /*overlap=*/true, rows_per_node, cols,
                        iterations, reps));
  }
  emit(run_jacobi_row(4, /*overlap=*/false, rows_per_node, cols, iterations,
                      reps));
  for (const int nodes : {1, 2, 4}) {
    emit(run_spmv_row(nodes, spmv_scale));
  }

  const double t1 = rows[0].virtual_s;
  const double t4 = rows[2].virtual_s;
  const double t4_blocking = rows[3].virtual_s;
  const double overlap_speedup = t4_blocking / t4;
  const double weak_scaling = 4.0 * t1 / t4;
  std::printf("\nHeadline (4-node Jacobi): overlapped exchange %.2fx over "
              "blocking; scaled speedup %.2fx of 4.0 ideal\n",
              overlap_speedup, weak_scaling);

  if (json) {
    if (json_file.empty()) {
      write_json(stdout, rows, rows_per_node, cols, iterations,
                 overlap_speedup, weak_scaling);
    } else {
      std::FILE* out = std::fopen(json_file.c_str(), "w");
      if (out == nullptr) {
        std::fprintf(stderr, "cannot open %s for writing\n", json_file.c_str());
        return 1;
      }
      write_json(out, rows, rows_per_node, cols, iterations, overlap_speedup,
                 weak_scaling);
      std::fclose(out);
    }
  }
  return 0;
}
