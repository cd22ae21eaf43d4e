// Hot-path microbenchmarks (google-benchmark): the real data-plane
// structures Palladium's engines execute per message — DWRR scheduling
// decisions, pool allocate/release, RBR bookkeeping, routing lookups, HTTP
// parsing, histogram recording, and a full simulated two-sided echo per
// iteration.
#include <benchmark/benchmark.h>

#include "core/dwrr.hpp"
#include "core/message.hpp"
#include "core/rbr.hpp"
#include "core/routing.hpp"
#include "mem/buffer_pool.hpp"
#include "proto/http.hpp"
#include "sim/scheduler.hpp"
#include "sim/stats.hpp"

namespace {

using namespace pd;

void BM_DwrrEnqueueDequeue(benchmark::State& state) {
  const int tenants = static_cast<int>(state.range(0));
  core::DwrrScheduler<mem::BufferDescriptor> dwrr;
  for (int t = 1; t <= tenants; ++t) {
    dwrr.add_tenant(TenantId{static_cast<std::uint32_t>(t)},
                    static_cast<std::uint32_t>(t));
  }
  mem::BufferDescriptor d{PoolId{1}, 0, 64, TenantId{1}};
  int t = 1;
  for (auto _ : state) {
    d.tenant = TenantId{static_cast<std::uint32_t>(t)};
    dwrr.enqueue(d.tenant, d);
    benchmark::DoNotOptimize(dwrr.dequeue());
    t = t % tenants + 1;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DwrrEnqueueDequeue)->Arg(1)->Arg(3)->Arg(16)->Arg(64);

void BM_BufferPoolAllocRelease(benchmark::State& state) {
  mem::BufferPool pool(PoolId{1}, TenantId{1}, 1024, 4096);
  const auto actor = mem::actor_engine(NodeId{1});
  for (auto _ : state) {
    auto d = pool.allocate(actor);
    benchmark::DoNotOptimize(d);
    pool.release(*d, actor);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BufferPoolAllocRelease);

void BM_OwnershipTransferChain(benchmark::State& state) {
  mem::BufferPool pool(PoolId{1}, TenantId{1}, 16, 4096);
  const auto fn1 = mem::actor_function(FunctionId{1});
  const auto eng = mem::actor_engine(NodeId{1});
  const auto nic = mem::actor_rnic(NodeId{1});
  auto d = pool.allocate(fn1);
  for (auto _ : state) {
    pool.transfer(*d, fn1, eng);
    pool.transfer(*d, eng, nic);
    pool.transfer(*d, nic, fn1);
  }
  state.SetItemsProcessed(state.iterations() * 3);
}
BENCHMARK(BM_OwnershipTransferChain);

void BM_RbrPostConsume(benchmark::State& state) {
  core::ReceiveBufferRegistry rbr;
  const TenantId t{1};
  mem::BufferDescriptor d{PoolId{1}, 0, 64, t};
  rbr.add_tenant(t, d.pool, 1);
  for (auto _ : state) {
    rbr.on_posted(t, d);
    rbr.on_consumed(t, d);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RbrPostConsume);

void BM_RoutingLookup(benchmark::State& state) {
  core::InterNodeRoutingTable table;
  for (std::uint32_t f = 1; f <= 1024; ++f) {
    table.add_route(FunctionId{f}, NodeId{f % 16});
  }
  std::uint32_t f = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.lookup(FunctionId{f}));
    f = f % 1024 + 1;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RoutingLookup);

void BM_MessageHeaderRoundTrip(benchmark::State& state) {
  std::array<std::byte, 256> buf{};
  core::MessageHeader h;
  h.request_id = 1;
  h.payload_len = 64;
  for (auto _ : state) {
    core::write_header(buf, h);
    benchmark::DoNotOptimize(core::read_header(buf));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MessageHeaderRoundTrip);

void BM_HttpParseRequest(benchmark::State& state) {
  const std::string raw =
      "POST /cart/checkout HTTP/1.1\r\nHost: boutique\r\nX-Req: 123456\r\n"
      "Content-Type: application/json\r\nContent-Length: 64\r\n\r\n" +
      std::string(64, '{');
  for (auto _ : state) {
    proto::HttpRequestParser p;
    benchmark::DoNotOptimize(p.feed(raw));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(raw.size()));
}
BENCHMARK(BM_HttpParseRequest);

void BM_HttpSerializeResponse(benchmark::State& state) {
  proto::HttpResponse resp;
  resp.body = std::string(static_cast<std::size_t>(state.range(0)), 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(proto::serialize(resp));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_HttpSerializeResponse)->Arg(256)->Arg(4096);

void BM_HistogramRecord(benchmark::State& state) {
  sim::LatencyHistogram h;
  sim::Duration v = 1;
  for (auto _ : state) {
    h.record(v);
    v = (v * 997 + 13) & 0xFFFFF;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HistogramRecord);

void BM_SchedulerEventChurn(benchmark::State& state) {
  // Event throughput of the DES core itself (simulation speed governor).
  for (auto _ : state) {
    state.PauseTiming();
    sim::Scheduler sched;
    int remaining = 10'000;
    state.ResumeTiming();
    std::function<void()> tick = [&] {
      if (--remaining > 0) sched.schedule_after(10, tick);
    };
    sched.schedule_at(0, tick);
    benchmark::DoNotOptimize(sched.run());
  }
  state.SetItemsProcessed(state.iterations() * 10'000);
}
BENCHMARK(BM_SchedulerEventChurn)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
