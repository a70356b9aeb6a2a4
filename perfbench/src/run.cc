// The served part of a run: set-up, closed loop, open loop with concurrent
// reads, and every check on what the server settled.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>
#include <thread>

#include "bench.h"
#include "durability/checkpoint.h"
#include "durability/settlement_log.h"
#include "serving/read_replicas.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace ssa {
namespace perfbench {
namespace {

namespace fs = std::filesystem;

std::string Fmt(const char* format, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), format, value);
  return buf;
}

/// Completion hook target: the executor appends every settled auction, the
/// generator waits on the count.
class Recorder {
 public:
  explicit Recorder(size_t seq_capacity) : settle_ns_(seq_capacity) {}

  void OnComplete(const AuctionOutcome& outcome) {
    const int64_t now = NowNs();
    Settled s = FromOutcome(outcome, now);
    const int64_t seq = outcome.query.time;
    if (seq >= 0 && static_cast<size_t>(seq) < settle_ns_.size()) {
      settle_ns_[seq].store(now, std::memory_order_release);
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      settled_.push_back(std::move(s));
      ++done_;
    }
    cv_.notify_all();
  }

  int64_t done() const {
    std::lock_guard<std::mutex> lock(mu_);
    return done_;
  }

  /// Waits until at least `target` auctions settled or `deadline_ns`
  /// passes; returns the settled count.
  int64_t WaitFor(int64_t target, int64_t deadline_ns) {
    std::unique_lock<std::mutex> lock(mu_);
    const auto deadline = std::chrono::steady_clock::time_point(
        std::chrono::nanoseconds(deadline_ns));
    cv_.wait_until(lock, deadline, [&] { return done_ >= target; });
    return done_;
  }

  /// Settle time of auction `seq`, 0 when not (yet) recorded.
  int64_t SettleNs(uint64_t seq) const {
    return seq < settle_ns_.size()
               ? settle_ns_[seq].load(std::memory_order_acquire)
               : 0;
  }

  /// Call only once the server stopped.
  std::vector<Settled>& settled() { return settled_; }

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Settled> settled_;  // guarded by mu_
  int64_t done_ = 0;              // guarded by mu_
  std::vector<std::atomic<int64_t>> settle_ns_;
};

constexpr int64_t kForeverNs = int64_t{1} << 62;

/// One served system: pool, server, and (durable) the read follower.
/// Member order is destruction order reversed: the follower set stops
/// first, then the server, then the pool it plans on, then the recorder its
/// hook writes to.
struct Instance {
  std::unique_ptr<Recorder> recorder;
  std::unique_ptr<ThreadPool> pool;
  std::unique_ptr<AuctionServer> server;
  std::unique_ptr<ReadReplicaSet> replicas;
  std::string dir;
  /// State right after Start (recovery included), before any new query.
  std::vector<AdvertiserAccount> start_accounts;
  Money start_revenue = 0;
  uint64_t start_seq = 0;
  RecoveryReport recovery;
  int64_t bootstrap_records = 0;

  ~Instance() {
    if (replicas) replicas->Stop();
    if (server) server->Stop();
  }
};

/// Submits `query`; a refusal is counted, never retried.
void Submit(AuctionServer* server, Query query, OpCounts* ops) {
  ++ops->submits;
  if (server->Submit(std::move(query)) != QueuePushResult::kAccepted) {
    ++ops->submits_rejected;
  }
}

std::unique_ptr<ReadReplicaSet> MakeReplicas(const Spec& spec,
                                             const Seeds& seeds,
                                             const std::string& checkpoint,
                                             const std::string& log) {
  ReadReplicaSetConfig config;
  config.num_followers = 1;
  return std::make_unique<ReadReplicaSet>(
      config, [&spec, &seeds, checkpoint, log](int) {
        Population pop = MakePopulation(spec, seeds);
        return std::make_unique<FollowerEngine>(
            FollowerConfigFor(spec, seeds, checkpoint, log),
            std::move(pop.workload), std::move(pop.strategies));
      });
}

/// Durable fixture: a serial engine settles checkpoint_seq + log_suffix
/// auctions into a log, checkpointing at checkpoint_seq.
Status MakeFixture(const Spec& spec, const Seeds& seeds,
                   const std::string& dir, QueryGenerator* queries) {
  fs::create_directories(dir);
  Population pop = MakePopulation(spec, seeds);
  EngineConfig config;
  config.seed = seeds.engine;
  AuctionEngine engine(config, std::move(pop.workload),
                       std::move(pop.strategies));
  LogWriterOptions options;
  SSA_ASSIGN_OR_RETURN(std::unique_ptr<SettlementLogWriter> writer,
                       SettlementLogWriter::Open(dir + "/log", options));
  const int total = spec.checkpoint_seq + spec.log_suffix;
  for (int t = 1; t <= total; ++t) {
    const AuctionOutcome& outcome = engine.RunAuctionOn(queries->Next());
    SSA_RETURN_IF_ERROR(writer->Append(
        SettlementRecord::FromOutcome(static_cast<uint64_t>(t), outcome)));
    if (t == spec.checkpoint_seq) {
      SSA_RETURN_IF_ERROR(engine.WriteCheckpoint(dir + "/ckpt"));
    }
  }
  return writer->Flush();
}

/// One set-up: population, server start (recovery), follower bootstrap,
/// warm-up. Returns its wall time in seconds; *cpu_s gets the CPU time the
/// process spent in it.
double SetUp(const Spec& spec, const Seeds& seeds, const std::string& dir,
             QueryGenerator* queries, OpCounts* ops, Instance* inst,
             RunResult* result, double* cpu_s) {
  const int64_t t0 = NowNs();
  const int64_t cpu0 = ProcessCpuNs();
  inst->dir = dir;
  inst->recorder = std::make_unique<Recorder>(spec.durable ? (1u << 17) : 0);
  Population pop = MakePopulation(spec, seeds);
  if (spec.pool_threads > 0) {
    inst->pool = std::make_unique<ThreadPool>(spec.pool_threads);
  }
  ServerConfig config;
  config.engine = EngineConfigFor(spec, seeds, inst->pool.get());
  config.queue_capacity = 4096;
  config.backpressure = BackpressurePolicy::kBlock;
  config.max_batch_size = spec.max_batch;
  config.mode = spec.mode;
  config.num_plan_lanes = spec.lanes;
  if (spec.durable) {
    config.durability.log_path = dir + "/log";
    config.durability.checkpoint_path = dir + "/ckpt";
    config.durability.writer.sync = LogSyncMode::kBuffered;
    // A record reaches followers only when its group is written, so a
    // read-your-writes read would wait for the group to fill; one record
    // per write keeps reads bounded by apply, not by later writes.
    config.durability.writer.group_records = 1;
  }
  inst->server = std::make_unique<AuctionServer>(
      config, std::move(pop.workload), std::move(pop.strategies));
  Recorder* recorder = inst->recorder.get();
  inst->server->set_on_complete(
      [recorder](const AuctionOutcome& o) { recorder->OnComplete(o); });
  const Status started = inst->server->Start();
  if (!started.ok()) {
    result->Fail("server start: " + started.ToString());
    return 0;
  }
  inst->recovery = inst->server->recovery();
  // The executor is idle until the first Submit, so its engine is stable.
  inst->start_accounts = inst->server->engine().accounts();
  inst->start_revenue = inst->server->engine().total_revenue();
  inst->start_seq = inst->server->settled_seq();

  if (spec.durable) {
    inst->replicas = MakeReplicas(spec, seeds, dir + "/ckpt", dir + "/log");
  }
  if (inst->replicas) {
    const Status status = inst->replicas->Start();
    if (!status.ok()) {
      result->Fail("follower start: " + status.ToString());
      return 0;
    }
  }
  for (int i = 0; i < spec.warmup; ++i) {
    Submit(inst->server.get(), queries->Next(), ops);
  }
  inst->recorder->WaitFor(spec.warmup, kForeverNs);
  if (inst->replicas) {
    FollowerEngine* follower = inst->replicas->follower(0);
    if (!follower->WaitForSeq(inst->server->settled_seq(),
                              std::chrono::milliseconds(120000))) {
      result->Fail("follower never caught up at set-up");
    }
    inst->bootstrap_records = follower->records_applied();
  }
  *cpu_s = (ProcessCpuNs() - cpu0) / 1e9;
  return (NowNs() - t0) / 1e9;
}

struct ReadRecord {
  Query query;
  uint64_t token = 0;
  uint64_t applied_at = 0;
  std::vector<Money> prices;
  double latency_ms = 0;
  double cpu_ms = 0;     // CPU time of the reading thread
  double wait_ms = 0;    // traced: the routing (read-your-writes) wait
  double whatif_ms = 0;  // traced: the follower's what-if
  bool ok = false;
};

/// One read-your-writes price estimate. Untraced runs make the routed call;
/// traced runs time its two public halves, Route and the follower's
/// EstimatePrices.
void ReadOnce(ReadReplicaSet* replicas, uint64_t token, bool trace,
              ReadRecord* r) {
  ReadOptions options;
  options.consistency = ReadConsistency::kAtLeastSeq;
  options.min_seq = token;
  options.wait_timeout = std::chrono::milliseconds(60000);
  r->token = token;
  const int64_t cpu0 = ThreadCpuNs();
  const int64_t t0 = NowNs();
  if (!trace) {
    r->ok = replicas->EstimatePrices(options, r->query, &r->prices,
                                     &r->applied_at)
                .ok();
  } else {
    StatusOr<FollowerEngine*> follower = replicas->Route(options);
    const int64_t t1 = NowNs();
    r->ok = follower.ok() &&
            (*follower)->EstimatePrices(r->query, &r->prices, &r->applied_at)
                .ok();
    r->wait_ms = (t1 - t0) / 1e6;
    r->whatif_ms = (NowNs() - t1) / 1e6;
  }
  r->latency_ms = (NowNs() - t0) / 1e6;
  r->cpu_ms = (ThreadCpuNs() - cpu0) / 1e6;
}

Query ReadQuery(QueryGenerator* gen, uint64_t token) {
  Query q = gen->Next();
  q.time = static_cast<int64_t>(token) + 1;  // the next auction's time
  return q;
}

/// Exponential inter-arrival gaps at `rate` per second, as absolute due
/// times from `start_ns`.
std::vector<int64_t> PoissonSchedule(uint64_t seed, double rate, int count,
                                     int64_t start_ns) {
  Rng rng(seed);
  std::vector<int64_t> due(count);
  double t = 0;
  for (int i = 0; i < count; ++i) {
    t += -std::log(1.0 - rng.NextDouble()) / rate;
    due[i] = start_ns + static_cast<int64_t>(t * 1e9);
  }
  return due;
}

void SleepUntilNs(int64_t due_ns) {
  std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
      std::chrono::nanoseconds(due_ns)));
}

void SetMetric(std::map<std::string, Metric>* m, const std::string& name,
               double value, const std::string& unit) {
  (*m)[name] = Metric{value, unit};
}

std::string Percentiles(const std::vector<double>& v) {
  std::ostringstream out;
  out << "p50 " << Fmt("%.3f", Quantile(v, 0.5)) << "  p95 "
      << Fmt("%.3f", Quantile(v, 0.95)) << "  max "
      << Fmt("%.3f", Quantile(v, 1.0)) << "  (n=" << v.size() << ")";
  return out.str();
}

}  // namespace

void RunWorkload(const Spec& spec, const RunOptions& opts, RunResult* result) {
  const Seeds seeds(opts.seed);
  const double chase_before = ChaseNs(kChaseL2Entries);
  const double chase_l3_before = ChaseNs(kChaseL3Entries);
  OpCounts& ops = result->ops;
  result->Note("workload " + spec.name + "  seed " +
               std::to_string(opts.seed) + "  seconds " +
               Fmt("%.0f", opts.seconds) + "  cores " +
               std::to_string(std::thread::hardware_concurrency()));
  result->Note("threads: " + spec.ThreadPlan());

  // ---- Fixture (durable only; untimed preparation).
  QueryGenerator queries(10, seeds.queries);
  if (spec.durable) {
    const Status status =
        MakeFixture(spec, seeds, opts.work_dir + "/fixture", &queries);
    if (!status.ok()) {
      result->Fail("fixture: " + status.ToString());
      return;
    }
  }
  const QueryGenerator::State served_start = queries.SaveState();

  // ---- Set-up, repeated; the last instance is the one measured.
  std::vector<double> setups, setup_cpus;
  std::unique_ptr<Instance> inst;
  for (int rep = 0; rep < spec.setup_reps; ++rep) {
    inst.reset();
    const std::string dir = opts.work_dir + "/rep" + std::to_string(rep);
    fs::create_directories(dir);
    if (spec.durable) {
      fs::copy_file(opts.work_dir + "/fixture/log", dir + "/log");
      fs::copy_file(opts.work_dir + "/fixture/ckpt", dir + "/ckpt");
    }
    queries.RestoreState(served_start);
    inst = std::make_unique<Instance>();
    double cpu_s = 0;
    setups.push_back(SetUp(spec, seeds, dir, &queries, &ops, inst.get(),
                           result, &cpu_s));
    setup_cpus.push_back(cpu_s);
    if (!result->correct) return;
  }
  AuctionServer* server = inst->server.get();
  Recorder* recorder = inst->recorder.get();
  const double setup_s = Quantile(setup_cpus, 0.5);

  // ---- Closed loop: a fixed window of outstanding queries.
  const double closed_s = spec.closed_share * opts.seconds;
  const CpuTimes cpu_closed = CpuTimes::Now();
  const int64_t closed_from = recorder->done();
  const int64_t closed_cpu0 = ProcessCpuNs();
  const int64_t closed_t0 = NowNs();
  const int64_t closed_end = closed_t0 + static_cast<int64_t>(closed_s * 1e9);
  int64_t submitted = closed_from;
  while (NowNs() < closed_end) {
    if (submitted - recorder->done() < spec.closed_window) {
      Submit(server, queries.Next(), &ops);
      ++submitted;
      continue;
    }
    recorder->WaitFor(submitted - spec.closed_window + 1, closed_end);
  }
  recorder->WaitFor(submitted, kForeverNs);
  // The closed loop's CPU covers exactly its auctions: the window drained,
  // and on the durable workload the follower applied them too.
  if (inst->replicas) {
    inst->replicas->follower(0)->WaitForSeq(server->settled_seq(),
                                            std::chrono::milliseconds(120000));
  }
  const double auction_cpu_ms = (ProcessCpuNs() - closed_cpu0) / 1e6 /
                                std::max<int64_t>(1, submitted - closed_from);

  // ---- Open loop: a fixed Poisson rate, timed from each due time, with
  // the durable workload's reader issuing read-your-writes estimates.
  const double open_s = spec.open_share * opts.seconds;
  const int arrivals =
      std::max(220, static_cast<int>(std::lround(spec.open_rate_qps * open_s)));
  const CpuTimes cpu_open = CpuTimes::Now();
  const int64_t open_from = recorder->done();
  // Nothing is in flight: the stage histograms restart for the open loop.
  server->ResetTelemetry();
  const int64_t open_first_time = queries.time() + 1;
  const int64_t open_t0 = NowNs() + 20'000'000;
  const std::vector<int64_t> due =
      PoissonSchedule(seeds.arrivals, spec.open_rate_qps, arrivals, open_t0);

  std::vector<ReadRecord> reads;
  std::vector<double> visible_ms;
  std::thread reader;
  if (spec.durable) {
    const int num_reads = std::max(
        220, static_cast<int>(std::lround(spec.read_rate_qps * open_s)));
    reads.resize(num_reads);
    reader = std::thread([&, num_reads] {
      QueryGenerator read_queries(10, seeds.reads);
      const std::vector<int64_t> read_due = PoissonSchedule(
          seeds.reads ^ 0x5eadULL, spec.read_rate_qps, num_reads, open_t0);
      FollowerEngine* follower = inst->replicas->follower(0);
      for (int i = 0; i < num_reads; ++i) {
        if (opts.trace) {
          // Visibility probe in the gap before the next read: wait for the
          // next settlement to become visible on the follower.
          const uint64_t next = server->settled_seq() + 1;
          const int64_t budget = read_due[i] - NowNs();
          if (budget > 1'000'000 &&
              follower->WaitForSeq(
                  next, std::chrono::milliseconds(budget / 1'000'000))) {
            const int64_t seen = NowNs();
            const int64_t settled_at = recorder->SettleNs(next);
            if (settled_at > 0) visible_ms.push_back((seen - settled_at) / 1e6);
          }
        }
        SleepUntilNs(read_due[i]);
        const uint64_t token = server->settled_seq();
        reads[i].query = ReadQuery(&read_queries, token);
        ReadOnce(inst->replicas.get(), token, opts.trace, &reads[i]);
      }
    });
  }

  std::vector<double> late_ms(arrivals);
  std::vector<double> submit_us(arrivals);
  for (int i = 0; i < arrivals; ++i) {
    SleepUntilNs(due[i]);
    const int64_t t0 = NowNs();
    Submit(server, queries.Next(), &ops);
    const int64_t t1 = NowNs();
    late_ms[i] = (t0 - due[i]) / 1e6;
    submit_us[i] = (t1 - t0) / 1e3;
  }
  recorder->WaitFor(open_from + arrivals, kForeverNs);
  if (reader.joinable()) reader.join();
  const double peak_rss_mb = PeakRssMb();
  const CpuTimes cpu_end = CpuTimes::Now();

  // Per-stage histograms and the batch-size histogram, read before Stop.
  const double queue_wait_ms = server->queue_wait_us().mean() / 1e3;
  double batch_mean = 0, barrier_wait_ms = 0;
  {
    const MetricsSnapshot snap = server->metrics().Snapshot();
    uint64_t barrier_count = 0, barrier_sum = 0;
    for (const HistogramSample& h : snap.histograms) {
      if (h.name == "serving_batch_queries" && h.count > 0) {
        batch_mean = static_cast<double>(h.sum) / h.count;
      }
      if (h.name == "serving_barrier_wait_us") {
        barrier_count += h.count;
        barrier_sum += h.sum;
      }
    }
    if (barrier_count > 0) barrier_wait_ms = barrier_sum / 1e3 / barrier_count;
  }
  server->Stop();

  // ---- Settled stream: counts and the open-loop latencies.
  std::vector<Settled>& settled = recorder->settled();
  const int64_t settled_total = static_cast<int64_t>(settled.size());
  std::vector<double> latency_ms;
  std::vector<double> capacity_done;
  for (int64_t i = closed_from; i < open_from && i < settled_total; ++i) {
    // The window's drain after the deadline is not closed-loop load.
    if (settled[i].done_ns > closed_end) break;
    capacity_done.push_back(static_cast<double>(settled[i].done_ns));
  }
  for (int64_t i = open_from; i < settled_total; ++i) {
    const int64_t idx = settled[i].query.time - open_first_time;
    if (idx >= 0 && idx < arrivals) {
      latency_ms.push_back((settled[i].done_ns - due[idx]) / 1e6);
    }
  }
  // Median over equal time blocks of the closed loop: a scheduler stall in
  // one block moves one block's rate, not the reported figure.
  constexpr int kCapacityBlocks = 4;
  std::vector<double> block_qps;
  if (capacity_done.size() >= 2) {
    const double t0 = capacity_done.front();
    const double block_ns = (capacity_done.back() - t0) / kCapacityBlocks;
    std::vector<int> in_block(kCapacityBlocks, 0);
    for (size_t i = 1; i < capacity_done.size(); ++i) {
      const int b = std::min(kCapacityBlocks - 1,
                             static_cast<int>((capacity_done[i] - t0) / block_ns));
      ++in_block[b];
    }
    for (int b = 0; b < kCapacityBlocks; ++b) {
      block_qps.push_back(in_block[b] / (block_ns / 1e9));
    }
  }
  const double capacity_qps = Quantile(block_qps, 0.5);

  // ---- Reads on the ROI workloads: a caught-up replica of the final
  // state, bootstrapped from a checkpoint (their log is off).
  EngineCheckpoint final_state;
  server->engine().CaptureCheckpoint(&final_state);
  const uint64_t final_seq = final_state.seq;
  if (!spec.durable) {
    const std::string ckpt = inst->dir + "/final.ckpt";
    const std::string log = inst->dir + "/empty.log";
    std::ofstream(log).close();
    Status status = WriteCheckpointFile(ckpt, final_state);
    std::unique_ptr<ReadReplicaSet> replicas =
        MakeReplicas(spec, seeds, ckpt, log);
    if (status.ok()) status = replicas->Start();
    if (!status.ok()) {
      result->Fail("read replica: " + status.ToString());
      return;
    }
    // Paced rather than back to back, so the reads sample several seconds
    // of the host's cache pressure instead of one burst.
    const double read_s =
        (1.0 - spec.closed_share - spec.open_share) * opts.seconds;
    const int num_reads = std::max(
        220, static_cast<int>(std::lround(spec.read_rate_qps * read_s)));
    reads.resize(num_reads);
    QueryGenerator read_queries(10, seeds.reads);
    const std::vector<int64_t> read_due = PoissonSchedule(
        seeds.reads ^ 0x5eadULL, spec.read_rate_qps, num_reads, NowNs());
    for (int i = 0; i < num_reads; ++i) {
      SleepUntilNs(read_due[i]);
      reads[i].query = ReadQuery(&read_queries, final_seq);
      ReadOnce(replicas.get(), final_seq, opts.trace, &reads[i]);
    }
    replicas->Stop();
  }

  // ---- Operation accounting.
  OpCounts& counted = result->ops;
  counted.settled = settled_total;
  std::vector<double> read_ms, read_cpu_ms, read_wait_ms, whatif_ms;
  for (const ReadRecord& r : reads) {
    ++counted.reads;
    if (!r.ok) {
      ++counted.reads_unavailable;
      continue;
    }
    read_ms.push_back(r.latency_ms);
    read_cpu_ms.push_back(r.cpu_ms);
    read_wait_ms.push_back(r.wait_ms);
    whatif_ms.push_back(r.whatif_ms);
  }
  // Set-ups of discarded instances submitted (and settled) their warm-up too.
  counted.settled += static_cast<int64_t>(spec.setup_reps - 1) * spec.warmup;
  counted.unsettled = counted.submits - counted.submits_rejected -
                      counted.settled;

  // ---- Check (c): properties of every settled auction.
  const std::vector<AdvertiserAccount>& accounts = server->engine().accounts();
  const PricingRule pricing = PricingRule::kGeneralizedSecondPrice;
  Money charges = 0;
  Money revenue = inst->start_revenue;
  int64_t expect_time = static_cast<int64_t>(inst->start_seq) + 1;
  for (const Settled& s : settled) {
    if (s.query.time != expect_time) {
      result->Fail("settlement order: expected time " +
                   std::to_string(expect_time) + ", got " +
                   std::to_string(s.query.time));
      break;
    }
    ++expect_time;
    const std::string bad = CheckAuctionProperties(s, accounts, pricing);
    if (!bad.empty()) {
      result->Fail("auction property: " + bad);
      break;
    }
    for (const UserEvent& e : s.events) charges += e.charged;
    revenue += s.revenue_charged;
  }
  if (static_cast<uint64_t>(expect_time - 1) != final_seq) {
    result->Fail("settled stream does not end at the engine's position");
  }
  if (revenue != server->engine().total_revenue()) {
    result->Fail("sum of per-auction charges != total_revenue()");
  }
  Money spend_delta = 0;
  for (size_t i = 0; i < accounts.size(); ++i) {
    spend_delta += accounts[i].amount_spent - inst->start_accounts[i].amount_spent;
  }
  if (std::fabs(spend_delta - charges) >
      1e-9 * std::max(1.0, std::fabs(charges))) {
    result->Fail("sum of event charges != sum of account spend deltas");
  }
  if (std::fabs((revenue - inst->start_revenue) - charges) >
      1e-9 * std::max(1.0, std::fabs(charges))) {
    result->Fail("sum of event charges != total_revenue() delta");
  }

  // ---- Durable: the follower equals the leader at the same sequence.
  if (spec.durable) {
    FollowerEngine* follower = inst->replicas->follower(0);
    std::vector<AdvertiserAccount> replica;
    uint64_t at = 0;
    if (!follower->WaitForSeq(final_seq, std::chrono::milliseconds(120000)) ||
        !follower->AccountsSnapshot(&replica, &at).ok() || at != final_seq) {
      result->Fail("follower did not reach the leader's final sequence");
    } else if (!DiffAccounts(replica, accounts).empty()) {
      result->Fail("follower accounts differ from the leader's");
    }
    inst->replicas->Stop();
  }

  // ---- Check (a)/(d): the serial oracle fed the same queries in arrival
  // order. Batched settlement is not replay-equivalent by design; its reads
  // are checked against a serial engine restored from the served state.
  std::sort(reads.begin(), reads.end(),
            [](const ReadRecord& a, const ReadRecord& b) {
              return a.applied_at < b.applied_at;
            });
  for (const ReadRecord& r : reads) {
    if (r.ok && r.applied_at < r.token) {
      result->Fail("read answered below its read-your-writes token");
      break;
    }
  }
  const int64_t oracle_t0 = NowNs();
  size_t next_read = 0;
  auto check_reads_at = [&](const AuctionEngine& engine, uint64_t seq) {
    AuctionOutcome what_if;
    while (next_read < reads.size() && reads[next_read].applied_at <= seq) {
      const ReadRecord& r = reads[next_read++];
      if (!r.ok) continue;
      if (r.applied_at != seq) {
        result->Fail("read applied_at outside the settled range");
        continue;
      }
      engine.WhatIfAuction(r.query, &what_if);
      if (what_if.prices != r.prices) {
        result->Fail("read prices differ from the oracle's what-if at seq " +
                     std::to_string(seq));
      }
    }
  };
  if (spec.mode == ServingMode::kDeterministicReplay) {
    std::vector<SettlementRecord> log_records;
    if (spec.durable) {
      LogReadStats stats;
      const Status status =
          ReadSettlementLog(inst->dir + "/log", &log_records, &stats);
      if (!status.ok() || stats.tail_truncated() ||
          log_records.size() != final_seq) {
        result->Fail("settlement log does not hold sequences 1.." +
                     std::to_string(final_seq));
      }
    }
    Population pop = MakePopulation(spec, seeds);
    EngineConfig config;
    config.seed = seeds.engine;
    AuctionEngine oracle(config, std::move(pop.workload),
                         std::move(pop.strategies));
    QueryGenerator oracle_queries(10, seeds.queries);
    size_t next = 0;
    for (uint64_t seq = 1; seq <= final_seq && result->correct; ++seq) {
      const AuctionOutcome& o = oracle.RunAuctionOn(oracle_queries.Next());
      if (seq - 1 < log_records.size()) {
        const SettlementRecord& rec = log_records[seq - 1];
        if (rec.seq != seq || rec.query.time != o.query.time ||
            rec.query.keyword != o.query.keyword || !rec.MatchesOutcome(o)) {
          result->Fail("log record " + std::to_string(seq) +
                       " differs from the oracle");
        }
      }
      if (seq == inst->start_seq) {
        if (!DiffAccounts(oracle.accounts(), inst->start_accounts).empty() ||
            oracle.total_revenue() != inst->start_revenue) {
          result->Fail("recovered state differs from the oracle's at seq " +
                       std::to_string(seq));
        }
      }
      if (seq > inst->start_seq && next < settled.size()) {
        const std::string diff =
            DiffSettled(settled[next++], FromOutcome(o, 0));
        if (!diff.empty()) result->Fail("served vs oracle: " + diff);
      }
      check_reads_at(oracle, seq);
    }
    if (!DiffAccounts(oracle.accounts(), accounts).empty() ||
        oracle.total_revenue() != server->engine().total_revenue()) {
      result->Fail("final accounts differ from the oracle's");
    }
  } else {
    Population pop = MakePopulation(spec, seeds);
    EngineConfig config;
    config.seed = seeds.engine;
    AuctionEngine restored(config, std::move(pop.workload),
                           std::move(pop.strategies));
    const Status status = restored.RestoreCheckpoint(final_state);
    if (!status.ok()) result->Fail("restore for read checks: " + status.ToString());
    check_reads_at(restored, final_seq);
  }
  if (next_read != reads.size()) result->Fail("reads left unchecked");
  const double oracle_s = (NowNs() - oracle_t0) / 1e9;

  // ---- Report.
  // The bounded metrics are CPU times: the wall-clock figures below swing
  // with the host's steal time (README, "Noise") and are reported only.
  SetMetric(&result->end_to_end, "setup_s", setup_s, "s");
  SetMetric(&result->end_to_end, "auction_cpu_ms", auction_cpu_ms, "ms");
  SetMetric(&result->end_to_end, "read_cpu_ms", Quantile(read_cpu_ms, 0.5),
            "ms");
  SetMetric(&result->end_to_end, "peak_rss_mb", peak_rss_mb, "MiB");

  std::ostringstream setup_line;
  setup_line << "setup_s (CPU) median of " << setup_cpus.size() << ":";
  for (double s : setup_cpus) setup_line << " " << Fmt("%.3f", s);
  setup_line << "   wall s:";
  for (double s : setups) setup_line << " " << Fmt("%.3f", s);
  result->Note(setup_line.str());
  std::ostringstream capacity_line;
  capacity_line << "capacity_qps " << Fmt("%.1f", capacity_qps)
                << " (wall, median of " << block_qps.size() << " blocks): "
                << capacity_done.size()
                << " auctions settled in the closed loop (window "
                << spec.closed_window << "); block rates /s:";
  for (double q : block_qps) capacity_line << " " << Fmt("%.1f", q);
  result->Note(capacity_line.str());
  result->Note("auction_cpu_ms " + Fmt("%.3f", auction_cpu_ms) +
               " (process CPU per closed-loop auction)  read_cpu_ms " +
               Fmt("%.3f", Quantile(read_cpu_ms, 0.5)) + " (reader CPU, p50 of " +
               std::to_string(read_cpu_ms.size()) + ")");
  result->Note("open loop " + Fmt("%.0f", spec.open_rate_qps) +
               "/s latency ms: " + Percentiles(latency_ms));
  result->Note("open loop generator lateness ms: " + Percentiles(late_ms));
  result->Note("host steal %: closed loop " +
               Fmt("%.1f", cpu_open.StealPctSince(cpu_closed)) +
               "  open loop " + Fmt("%.1f", cpu_end.StealPctSince(cpu_open)));
  result->Note("reads ms: " + Percentiles(read_ms) +
               (spec.durable ? "  (read-your-writes, concurrent with writes)"
                             : "  (caught-up replica after the writes)"));
  if (spec.durable) {
    result->Note("recovery at start: checkpoint seq " +
                 std::to_string(inst->recovery.checkpoint_seq) + ", " +
                 std::to_string(inst->recovery.records_replayed) +
                 " records replayed; follower bootstrap " +
                 std::to_string(inst->bootstrap_records) + " records");
  }
  result->Note("ops: submits " + std::to_string(counted.submits) +
               " (rejected " + std::to_string(counted.submits_rejected) +
               "), settled " + std::to_string(counted.settled) +
               " (unsettled " + std::to_string(counted.unsettled) +
               "), reads " + std::to_string(counted.reads) +
               " (unavailable " + std::to_string(counted.reads_unavailable) +
               ")");
  result->Note("checks: " + std::string(result->correct ? "pass" : "FAIL") +
               " (oracle and read checks " + Fmt("%.1f", oracle_s) + " s)");

  if (opts.trace) {
    SetMetric(&result->per_layer, "serving.submit_us", Mean(submit_us), "us");
    SetMetric(&result->per_layer, "serving.queue_wait_ms", queue_wait_ms, "ms");
    SetMetric(&result->per_layer, "serving.batch_size", batch_mean, "count");
    SetMetric(&result->per_layer, "load.late_ms", Quantile(late_ms, 0.95), "ms");
    SetMetric(&result->per_layer, "replication.read_wait_ms",
              Mean(read_wait_ms), "ms");
    SetMetric(&result->per_layer, "replication.whatif_ms", Mean(whatif_ms),
              "ms");
    if (spec.lanes > 0) {
      result->Note("serving.barrier_wait_ms " + Fmt("%.4f", barrier_wait_ms));
    }
    if (spec.durable) {
      result->Note("replication.visible_ms (live) " + Percentiles(visible_ms));
    }
    TraceInputs in{&spec, &seeds, &final_state, queries.SaveState()};
    SpanLog spans;
    RunTracedLayers(in, opts, &spans, result);
    if (!opts.span_path.empty() && !spans.WriteChromeTrace(opts.span_path)) {
      result->Fail("could not write " + opts.span_path);
    }
  }
  const double chase_after = ChaseNs(kChaseL2Entries);
  const double chase_l3_after = ChaseNs(kChaseL3Entries);
  result->Note("host.chase_l3_ns before " + Fmt("%.3f", chase_l3_before) +
               "  after " + Fmt("%.3f", chase_l3_after));
  result->Note("host.chase_ns before " + Fmt("%.3f", chase_before) +
               "  after " + Fmt("%.3f", chase_after));
  if (opts.trace) {
    SetMetric(&result->per_layer, "host.chase_ns",
              (chase_before + chase_after) / 2, "ns");
    SetMetric(&result->per_layer, "host.chase_l3_ns",
              (chase_l3_before + chase_l3_after) / 2, "ns");
  }
}

}  // namespace perfbench
}  // namespace ssa
