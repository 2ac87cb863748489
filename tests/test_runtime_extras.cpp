// Tests for the runtime's supporting facilities: execution tracing, data
// prefetch, OpenCL workers, dmda priorities, Vector partitioning, and the
// resource-requirement narrowing of the composition tool.
#include <gtest/gtest.h>

#include <numeric>

#include "compose/ir.hpp"
#include "containers/containers.hpp"
#include "runtime/engine.hpp"
#include "runtime/trace.hpp"
#include "support/error.hpp"

namespace peppher {
namespace {

rt::Codelet make_add_one(std::initializer_list<rt::Arch> archs) {
  rt::Codelet codelet("add_one");
  for (rt::Arch arch : archs) {
    rt::Implementation impl;
    impl.arch = arch;
    impl.name = "add_one_" + rt::to_string(arch);
    impl.fn = [](rt::ExecContext& ctx) {
      auto* data = ctx.buffer_as<float>(0);
      for (std::size_t i = 0; i < ctx.buffer_bytes(0) / sizeof(float); ++i) {
        data[i] += 1.0f;
      }
    };
    impl.cost = [](const std::vector<std::size_t>& bytes, const void*) {
      return sim::KernelCost{static_cast<double>(bytes[0]),
                             static_cast<double>(bytes[0]), 1.0};
    };
    codelet.add_impl(std::move(impl));
  }
  return codelet;
}

// ---------------------------------------------------------------------------
// tracing
// ---------------------------------------------------------------------------

TEST(Trace, RecordsEveryExecutionWhenEnabled) {
  rt::EngineConfig config;
  config.machine = sim::MachineConfig::platform_c2050();
  config.machine.cpu_cores = 2;
  config.use_history_models = false;
  config.enable_trace = true;
  rt::Engine engine(config);

  rt::Codelet codelet = make_add_one({rt::Arch::kCpu, rt::Arch::kCuda});
  std::vector<float> data(64, 0.0f);
  auto handle = engine.register_buffer(data.data(), data.size() * sizeof(float),
                                       sizeof(float));
  for (int i = 0; i < 5; ++i) {
    rt::TaskSpec spec;
    spec.codelet = &codelet;
    spec.name = "traced";
    spec.operands = {{handle, rt::AccessMode::kReadWrite}};
    engine.submit(std::move(spec));
  }
  engine.wait_for_all();

  const auto records = engine.trace().records();
  ASSERT_EQ(records.size(), 5u);
  for (const auto& r : records) {
    EXPECT_EQ(r.name, "traced");
    EXPECT_GT(r.vend, r.vstart);
    EXPECT_GE(r.worker, 0);
    EXPECT_FALSE(r.impl.empty());
  }
}

TEST(Trace, DisabledByDefault) {
  rt::EngineConfig config;
  config.machine = sim::MachineConfig::cpu_only(1);
  rt::Engine engine(config);
  rt::Codelet codelet = make_add_one({rt::Arch::kCpu});
  std::vector<float> data(4, 0.0f);
  auto handle = engine.register_buffer(data.data(), data.size() * sizeof(float),
                                       sizeof(float));
  rt::TaskSpec spec;
  spec.codelet = &codelet;
  spec.operands = {{handle, rt::AccessMode::kReadWrite}};
  spec.synchronous = true;
  engine.submit(std::move(spec));
  EXPECT_EQ(engine.trace().size(), 0u);
}

rt::TaskRecord task_record(std::uint64_t sequence, std::string name,
                           std::string impl, rt::Arch arch, rt::WorkerId worker,
                           rt::VirtualTime vstart, rt::VirtualTime vend) {
  rt::TaskRecord record;
  record.sequence = sequence;
  record.name = std::move(name);
  record.impl = std::move(impl);
  record.arch = arch;
  record.worker = worker;
  record.vstart = vstart;
  record.vend = vend;
  return record;
}

TEST(Trace, ChromeJsonIsWellFormedIsh) {
  rt::Tracer tracer;
  tracer.record(task_record(1, "spmv \"quoted\"", "spmv_cuda",
                            rt::Arch::kCuda, 3, 0.5, 1.5));
  tracer.record(task_record(2, "sgemm", "sgemm_cpu",
                            rt::Arch::kCpu, 0, 0.0, 0.25));
  const std::string json = tracer.to_chrome_json();
  EXPECT_EQ(json.front(), '[');
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"tid\": 3"), std::string::npos);
  EXPECT_NE(json.find("spmv 'quoted'"), std::string::npos);  // escaped
  EXPECT_NE(json.find("\"dur\": 1000000.000"), std::string::npos);  // 1 s
}

TEST(Trace, TextGanttPaintsWorkers) {
  rt::Tracer tracer;
  tracer.record(task_record(1, "alpha", "a_cpu", rt::Arch::kCpu, 0, 0.0, 0.5));
  tracer.record(task_record(2, "beta", "b_cuda", rt::Arch::kCuda, 1, 0.5, 1.0));
  const std::string gantt = tracer.to_text_gantt(20);
  EXPECT_NE(gantt.find("worker 0"), std::string::npos);
  EXPECT_NE(gantt.find("worker 1"), std::string::npos);
  EXPECT_NE(gantt.find('a'), std::string::npos);
  EXPECT_NE(gantt.find('b'), std::string::npos);
  EXPECT_EQ(rt::Tracer().to_text_gantt(20), "");
  tracer.clear();
  EXPECT_EQ(tracer.size(), 0u);
}

// ---------------------------------------------------------------------------
// prefetch
// ---------------------------------------------------------------------------

TEST(Prefetch, MovesDataAheadOfTasks) {
  rt::EngineConfig config;
  config.machine = sim::MachineConfig::platform_c2050();
  config.machine.cpu_cores = 1;
  config.use_history_models = false;
  rt::Engine engine(config);

  std::vector<float> data(1024, 1.0f);
  auto handle = engine.register_buffer(data.data(), data.size() * sizeof(float),
                                       sizeof(float));
  EXPECT_TRUE(engine.prefetch(handle, 1));
  EXPECT_EQ(handle->replica_state(1), rt::ReplicaState::kShared);
  // A GPU task now finds its data resident: zero further h2d transfers.
  engine.reset_transfer_stats();
  rt::Codelet codelet = make_add_one({rt::Arch::kCuda});
  rt::TaskSpec spec;
  spec.codelet = &codelet;
  spec.operands = {{handle, rt::AccessMode::kReadWrite}};
  spec.synchronous = true;
  engine.submit(std::move(spec));
  EXPECT_EQ(engine.transfer_stats().host_to_device_count, 0u);
}

TEST(Prefetch, SkipsWhileWriterInFlight) {
  rt::EngineConfig config;
  config.machine = sim::MachineConfig::platform_c2050();
  config.machine.cpu_cores = 1;
  config.use_history_models = false;
  rt::Engine engine(config);
  std::vector<float> data(1 << 16, 1.0f);
  auto handle = engine.register_buffer(data.data(), data.size() * sizeof(float),
                                       sizeof(float));
  rt::Codelet slow("slow_writer");
  rt::Implementation impl;
  impl.arch = rt::Arch::kCpu;
  impl.name = "slow_cpu";
  impl.fn = [](rt::ExecContext& ctx) {
    auto* d = ctx.buffer_as<float>(0);
    for (int repeat = 0; repeat < 50; ++repeat) {
      for (std::size_t i = 0; i < ctx.elements(0); ++i) d[i] += 1.0f;
    }
  };
  slow.add_impl(std::move(impl));
  rt::TaskSpec spec;
  spec.codelet = &slow;
  spec.operands = {{handle, rt::AccessMode::kReadWrite}};
  rt::TaskPtr task = engine.submit(std::move(spec));
  // Racing prefetches must either succeed (writer already done) or be
  // skipped — never crash or corrupt.
  const bool prefetched = engine.prefetch(handle, 1);
  engine.wait(task);
  if (!prefetched) {
    EXPECT_EQ(handle->replica_state(1), rt::ReplicaState::kInvalid);
  }
  engine.acquire_host(handle, rt::AccessMode::kRead);
  EXPECT_FLOAT_EQ(data[0], 51.0f);
}

// ---------------------------------------------------------------------------
// OpenCL backend
// ---------------------------------------------------------------------------

TEST(OpenCl, EngineRunsOpenClVariants) {
  rt::EngineConfig config;
  config.machine = sim::MachineConfig::platform_opencl();
  config.machine.cpu_cores = 1;
  config.use_history_models = false;
  rt::Engine engine(config);

  rt::Codelet codelet = make_add_one({rt::Arch::kOpenCl});
  std::vector<float> data(32, 0.0f);
  auto handle = engine.register_buffer(data.data(), data.size() * sizeof(float),
                                       sizeof(float));
  rt::TaskSpec spec;
  spec.codelet = &codelet;
  spec.operands = {{handle, rt::AccessMode::kReadWrite}};
  spec.synchronous = true;
  rt::TaskPtr task = engine.submit(std::move(spec));
  EXPECT_EQ(task->executed_arch, rt::Arch::kOpenCl);
  engine.acquire_host(handle, rt::AccessMode::kRead);
  EXPECT_FLOAT_EQ(data[0], 1.0f);
}

TEST(OpenCl, ComposeKeepsOpenClVariantOnOpenClMachine) {
  desc::Repository repo;
  repo.load_text(R"(<peppher-interface name="k">
      <function returnType="void">
        <param name="v" type="float*" accessMode="readwrite" size="n"/>
        <param name="n" type="int" accessMode="read"/>
      </function></peppher-interface>)");
  repo.load_text(R"(<peppher-implementation name="k_ocl" interface="k">
      <platform language="opencl"/></peppher-implementation>)");
  repo.load_text(R"(<peppher-implementation name="k_cuda" interface="k">
      <platform language="cuda"/></peppher-implementation>)");
  repo.load_text(R"(<peppher-main name="app"><uses interface="k"/></peppher-main>)");

  compose::Recipe recipe;
  recipe.machine = sim::MachineConfig::platform_opencl();
  const compose::ComponentTree tree = compose::build_tree(repo, recipe);
  const auto enabled = tree.components[0].enabled_variants();
  ASSERT_EQ(enabled.size(), 1u);
  EXPECT_EQ(enabled[0]->descriptor.name, "k_ocl");
}

// ---------------------------------------------------------------------------
// dmda priorities
// ---------------------------------------------------------------------------

TEST(Priority, DmdaRunsHigherPriorityFirstWithinAQueue) {
  rt::EngineConfig config;
  config.machine = sim::MachineConfig::cpu_only(1);
  config.use_history_models = false;
  rt::Engine engine(config);

  // One long blocker keeps the worker busy while we enqueue; after it, the
  // high-priority task must run before earlier-submitted low-priority ones.
  std::vector<int> order;
  std::mutex order_mutex;
  rt::Codelet codelet("prio");
  rt::Implementation impl;
  impl.arch = rt::Arch::kCpu;
  impl.name = "prio_cpu";
  impl.fn = [&order, &order_mutex](rt::ExecContext& ctx) {
    const int id = ctx.arg<int>();
    std::lock_guard<std::mutex> lock(order_mutex);
    order.push_back(id);
  };
  codelet.add_impl(std::move(impl));

  // Serialise everything through one handle in RW mode? No — that would fix
  // the order by dependencies. Use independent buffers and a single CPU
  // worker; the queue order is the scheduler's choice.
  std::vector<float> blocker_data(1 << 18, 0.0f);
  auto blocker = engine.register_buffer(blocker_data.data(),
                                        blocker_data.size() * sizeof(float),
                                        sizeof(float));
  rt::Codelet slow("slow");
  rt::Implementation slow_impl;
  slow_impl.arch = rt::Arch::kCpu;
  slow_impl.name = "slow_cpu";
  slow_impl.fn = [](rt::ExecContext& ctx) {
    auto* d = ctx.buffer_as<float>(0);
    for (int repeat = 0; repeat < 30; ++repeat) {
      for (std::size_t i = 0; i < ctx.elements(0); ++i) d[i] += 1.0f;
    }
  };
  slow.add_impl(std::move(slow_impl));
  {
    rt::TaskSpec spec;
    spec.codelet = &slow;
    spec.operands = {{blocker, rt::AccessMode::kReadWrite}};
    engine.submit(std::move(spec));
  }

  std::vector<std::vector<float>> buffers(4, std::vector<float>(4, 0.0f));
  auto submit = [&](int id, int priority) {
    auto h = engine.register_buffer(buffers[static_cast<std::size_t>(id)].data(),
                                    4 * sizeof(float), sizeof(float));
    auto arg = std::make_shared<int>(id);
    rt::TaskSpec spec;
    spec.codelet = &codelet;
    spec.operands = {{h, rt::AccessMode::kReadWrite}};
    spec.arg = std::shared_ptr<const void>(arg, arg.get());
    spec.priority = priority;
    engine.submit(std::move(spec));
  };
  submit(0, 0);
  submit(1, 0);
  submit(2, 10);  // submitted last-but-one but most urgent
  submit(3, 0);
  engine.wait_for_all();

  ASSERT_EQ(order.size(), 4u);
  // Task 2 must not run after every low-priority task; with the blocker in
  // front, it should in fact be first.
  EXPECT_EQ(order.front(), 2);
}

// ---------------------------------------------------------------------------
// Vector partitioning
// ---------------------------------------------------------------------------

TEST(VectorPartition, BlocksProcessIndependentlyThenGather) {
  rt::EngineConfig config;
  config.machine = sim::MachineConfig::platform_c2050();
  config.machine.cpu_cores = 2;
  config.use_history_models = false;
  rt::Engine engine(config);

  cont::Vector<float> v(&engine, 100);
  {
    auto view = v.write_access();
    std::iota(view.begin(), view.end(), 0.0f);
  }
  rt::Codelet codelet = make_add_one({rt::Arch::kCpu, rt::Arch::kCuda});
  auto blocks = v.partition(4);
  ASSERT_EQ(blocks.size(), 4u);
  // The whole-vector handle is blocked while partitioned.
  auto submit_whole = [&] {
    rt::TaskSpec spec;
    spec.codelet = &codelet;
    spec.operands = {{v.handle(), rt::AccessMode::kReadWrite}};
    engine.submit(std::move(spec));
  };
  EXPECT_THROW(submit_whole(), Error);
  for (auto& block : blocks) {
    rt::TaskSpec spec;
    spec.codelet = &codelet;
    spec.operands = {{block, rt::AccessMode::kReadWrite}};
    engine.submit(std::move(spec));
  }
  engine.wait_for_all();
  v.unpartition();
  for (std::size_t i = 0; i < v.size(); ++i) {
    ASSERT_FLOAT_EQ(v[i], static_cast<float>(i) + 1.0f);
  }
}

// ---------------------------------------------------------------------------
// failure isolation
// ---------------------------------------------------------------------------

TEST(Failure, ThrowingImplementationSurfacesAtWait) {
  rt::EngineConfig config;
  config.machine = sim::MachineConfig::cpu_only(2);
  config.use_history_models = false;
  rt::Engine engine(config);

  rt::Codelet codelet("bomb");
  rt::Implementation impl;
  impl.arch = rt::Arch::kCpu;
  impl.name = "bomb_cpu";
  impl.fn = [](rt::ExecContext&) {
    throw Error(ErrorCode::kInternal, "kernel exploded");
  };
  codelet.add_impl(std::move(impl));

  std::vector<float> data(8, 0.0f);
  auto handle = engine.register_buffer(data.data(), data.size() * 4, 4);
  rt::TaskSpec spec;
  spec.codelet = &codelet;
  spec.operands = {{handle, rt::AccessMode::kReadWrite}};
  rt::TaskPtr task = engine.submit(std::move(spec));
  EXPECT_THROW(engine.wait(task), Error);
  EXPECT_TRUE(task->failed());

  // The engine is still alive: a healthy task runs fine afterwards.
  rt::Codelet healthy = make_add_one({rt::Arch::kCpu});
  std::vector<float> other(8, 0.0f);
  auto h2 = engine.register_buffer(other.data(), other.size() * 4, 4);
  rt::TaskSpec ok;
  ok.codelet = &healthy;
  ok.operands = {{h2, rt::AccessMode::kReadWrite}};
  ok.synchronous = true;
  EXPECT_NO_THROW(engine.submit(std::move(ok)));
  engine.acquire_host(h2, rt::AccessMode::kRead);
  EXPECT_FLOAT_EQ(other[0], 1.0f);
}

TEST(Failure, DependentTasksAreCancelledTransitively) {
  rt::EngineConfig config;
  config.machine = sim::MachineConfig::cpu_only(1);
  config.use_history_models = false;
  rt::Engine engine(config);

  rt::Codelet bomb("bomb2");
  {
    rt::Implementation impl;
    impl.arch = rt::Arch::kCpu;
    impl.name = "bomb2_cpu";
    impl.fn = [](rt::ExecContext&) { throw std::runtime_error("boom"); };
    bomb.add_impl(std::move(impl));
  }
  rt::Codelet healthy = make_add_one({rt::Arch::kCpu});

  std::vector<float> data(8, 0.0f);
  auto handle = engine.register_buffer(data.data(), data.size() * 4, 4);
  rt::TaskSpec first;
  first.codelet = &bomb;
  first.operands = {{handle, rt::AccessMode::kReadWrite}};
  engine.submit(std::move(first));

  // Two chained successors on the same handle: both must be cancelled and
  // report the predecessor failure; nothing hangs.
  std::vector<rt::TaskPtr> chain;
  for (int i = 0; i < 2; ++i) {
    rt::TaskSpec spec;
    spec.codelet = &healthy;
    spec.operands = {{handle, rt::AccessMode::kReadWrite}};
    chain.push_back(engine.submit(std::move(spec)));
  }
  for (const auto& task : chain) {
    EXPECT_THROW(engine.wait(task), Error);
    EXPECT_TRUE(task->failed());
  }
  engine.wait_for_all();  // must not hang
  EXPECT_FLOAT_EQ(data[0], 0.0f);  // the healthy increments never ran
}

// ---------------------------------------------------------------------------
// multi-GPU (abstract: "GPU and multi-GPU based systems")
// ---------------------------------------------------------------------------

TEST(MultiGpu, IndependentTasksSpreadAcrossBothGpus) {
  rt::EngineConfig config;
  config.machine = sim::MachineConfig::platform_dual_c2050();
  config.machine.cpu_cores = 1;
  config.use_history_models = false;
  // Disable the CPU variant entirely: GPU-only codelet.
  rt::Engine engine(config);
  EXPECT_EQ(engine.accelerator_count(), 2);

  rt::Codelet codelet = make_add_one({rt::Arch::kCuda});
  // Compute-heavy independent tasks: with both GPUs available the makespan
  // must be clearly below a single-GPU serialisation.
  std::vector<std::vector<float>> buffers(8, std::vector<float>(1 << 16, 0.0f));
  std::vector<rt::DataHandlePtr> handles;
  for (auto& buffer : buffers) {
    handles.push_back(engine.register_buffer(buffer.data(),
                                             buffer.size() * sizeof(float),
                                             sizeof(float)));
  }
  for (const auto& handle : handles) {
    rt::TaskSpec spec;
    spec.codelet = &codelet;
    spec.operands = {{handle, rt::AccessMode::kReadWrite}};
    engine.submit(std::move(spec));
  }
  engine.wait_for_all();
  // Both GPU workers executed something.
  std::uint64_t per_gpu[2] = {0, 0};
  for (const auto& desc : engine.workers()) {
    if (desc.node != rt::kHostNode) {
      per_gpu[static_cast<std::size_t>(desc.node - 1)] =
          engine.worker_stats(desc.id).tasks_executed;
    }
  }
  EXPECT_GT(per_gpu[0], 0u);
  EXPECT_GT(per_gpu[1], 0u);
  for (auto& buffer : buffers) {
    EXPECT_FLOAT_EQ(buffer[0], 0.0f);  // device copy not yet fetched
  }
  for (const auto& handle : handles) {
    engine.acquire_host(handle, rt::AccessMode::kRead);
  }
  EXPECT_FLOAT_EQ(buffers[0][0], 1.0f);
}

TEST(MultiGpu, DataMigratesBetweenGpusThroughHost) {
  rt::EngineConfig config;
  config.machine = sim::MachineConfig::platform_dual_c2050();
  config.machine.cpu_cores = 1;
  config.use_history_models = false;
  rt::Engine engine(config);

  rt::Codelet codelet = make_add_one({rt::Arch::kCuda});
  std::vector<float> data(128, 0.0f);
  auto handle = engine.register_buffer(data.data(), data.size() * sizeof(float),
                                       sizeof(float));
  // Chain two tasks pinned to different GPU workers: the second must see
  // the first's result via a device->host->device migration.
  rt::WorkerId gpu0 = -1, gpu1 = -1;
  for (const auto& desc : engine.workers()) {
    if (desc.node == 1) gpu0 = desc.id;
    if (desc.node == 2) gpu1 = desc.id;
  }
  ASSERT_GE(gpu0, 0);
  ASSERT_GE(gpu1, 0);
  for (rt::WorkerId target : {gpu0, gpu1}) {
    rt::TaskSpec spec;
    spec.codelet = &codelet;
    spec.operands = {{handle, rt::AccessMode::kReadWrite}};
    spec.forced_worker = target;
    engine.submit(std::move(spec));
  }
  engine.acquire_host(handle, rt::AccessMode::kRead);
  EXPECT_FLOAT_EQ(data[0], 2.0f);
}

// ---------------------------------------------------------------------------
// call-context selectability constraints
// ---------------------------------------------------------------------------

TEST(Selectability, VariantWithFailingPredicateIsSkipped) {
  rt::EngineConfig config;
  config.machine = sim::MachineConfig::platform_c2050();
  config.machine.cpu_cores = 1;
  config.use_history_models = false;
  rt::Engine engine(config);

  // The "CUDA" variant only accepts operands of at least 1 KiB.
  rt::Codelet codelet("constrained");
  {
    rt::Implementation cpu;
    cpu.arch = rt::Arch::kCpu;
    cpu.name = "constrained_cpu";
    cpu.fn = [](rt::ExecContext&) {};
    codelet.add_impl(std::move(cpu));
    rt::Implementation cuda;
    cuda.arch = rt::Arch::kCuda;
    cuda.name = "constrained_cuda";
    cuda.fn = [](rt::ExecContext&) {};
    cuda.selectable = [](const std::vector<std::size_t>& bytes, const void*) {
      return bytes.at(0) >= 1024;
    };
    codelet.add_impl(std::move(cuda));
  }

  std::vector<float> small(16, 0.0f), large(1024, 0.0f);
  auto h_small = engine.register_buffer(small.data(), small.size() * 4, 4);
  auto h_large = engine.register_buffer(large.data(), large.size() * 4, 4);

  // Forcing CUDA on the small operand: no selectable variant -> submit
  // throws (no worker can serve).
  {
    rt::TaskSpec spec;
    spec.codelet = &codelet;
    spec.operands = {{h_small, rt::AccessMode::kReadWrite}};
    spec.forced_arch = rt::Arch::kCuda;
    EXPECT_THROW(engine.submit(std::move(spec)), Error);
  }
  // Forcing CUDA on the large operand works.
  {
    rt::TaskSpec spec;
    spec.codelet = &codelet;
    spec.operands = {{h_large, rt::AccessMode::kReadWrite}};
    spec.forced_arch = rt::Arch::kCuda;
    spec.synchronous = true;
    rt::TaskPtr task = engine.submit(std::move(spec));
    EXPECT_EQ(task->executed_impl(), "constrained_cuda");
  }
  // Unforced on the small operand: the scheduler falls back to the CPU.
  {
    rt::TaskSpec spec;
    spec.codelet = &codelet;
    spec.operands = {{h_small, rt::AccessMode::kReadWrite}};
    spec.synchronous = true;
    rt::TaskPtr task = engine.submit(std::move(spec));
    EXPECT_EQ(task->executed_impl(), "constrained_cpu");
  }
}

// ---------------------------------------------------------------------------
// resource-requirement narrowing
// ---------------------------------------------------------------------------

TEST(ResourceNarrowing, VariantExceedingDeviceMemoryIsDisabled) {
  desc::Repository repo;
  repo.load_text(R"(<peppher-interface name="big">
      <function returnType="void">
        <param name="v" type="float*" accessMode="readwrite" size="n"/>
        <param name="n" type="int" accessMode="read"/>
      </function></peppher-interface>)");
  repo.load_text(R"(<peppher-implementation name="big_cuda" interface="big">
      <platform language="cuda"/>
      <resources minMemoryMB="8192" maxMemoryMB="16384"/>
    </peppher-implementation>)");
  repo.load_text(R"(<peppher-implementation name="big_cpu" interface="big">
      <platform language="cpu"/>
      <resources minMemoryMB="8192" maxMemoryMB="16384"/>
    </peppher-implementation>)");
  repo.load_text(R"(<peppher-main name="app"><uses interface="big"/></peppher-main>)");

  // The C2050 has 3 GB: the CUDA variant (needs 8 GB) must be narrowed
  // away; the CPU variant (24 GB host RAM) survives.
  compose::ComponentTree tree = compose::build_tree(repo, compose::Recipe{});
  const auto report = compose::apply_static_narrowing(tree);
  ASSERT_EQ(tree.components[0].enabled_variants().size(), 1u);
  EXPECT_EQ(tree.components[0].enabled_variants()[0]->descriptor.name,
            "big_cpu");
  ASSERT_EQ(report.size(), 1u);
  EXPECT_NE(report[0].find("requires"), std::string::npos);
}

}  // namespace
}  // namespace peppher
