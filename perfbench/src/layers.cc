// The traced run: per-layer self times from spans the benchmark records
// around calls into each layer's public functions.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <thread>

#include "bench.h"
#include "core/compiled_bids.h"
#include "core/expected_revenue.h"
#include "core/winner_determination.h"
#include "durability/recovery.h"
#include "durability/settlement_log.h"
#include "util/thread_pool.h"

namespace ssa {
namespace perfbench {

// ---------------------------------------------------------------------------
// SpanLog.
// ---------------------------------------------------------------------------

int SpanLog::Begin(const char* name, int parent) {
  spans_.push_back(Span{name, parent, 0, NowNs(), 0});
  return static_cast<int>(spans_.size()) - 1;
}

void SpanLog::End(int id) { spans_[id].end_ns = NowNs(); }

int SpanLog::Add(const char* name, int parent, int track, int64_t begin_ns,
                 int64_t end_ns) {
  spans_.push_back(Span{name, parent, track, begin_ns, end_ns});
  return static_cast<int>(spans_.size()) - 1;
}

std::map<std::string, int64_t> SpanLog::SelfNs() const {
  // Self time = duration minus the union of the direct children's
  // intervals (children of a lane-parallel parent may overlap).
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0) children[s.parent].push_back({s.begin_ns, s.end_ns});
  }
  std::map<std::string, int64_t> self;
  for (size_t i = 0; i < spans_.size(); ++i) {
    std::vector<std::pair<int64_t, int64_t>>& c = children[i];
    std::sort(c.begin(), c.end());
    int64_t covered = 0, run_begin = 0, run_end = -1;
    for (const auto& [b, e] : c) {
      if (b > run_end) {
        if (run_end >= run_begin) covered += run_end - run_begin;
        run_begin = b;
        run_end = e;
      } else {
        run_end = std::max(run_end, e);
      }
    }
    if (run_end >= run_begin) covered += run_end - run_begin;
    self[spans_[i].name] += (spans_[i].end_ns - spans_[i].begin_ns) - covered;
  }
  return self;
}

std::map<std::string, int64_t> SpanLog::Counts() const {
  std::map<std::string, int64_t> counts;
  for (const Span& s : spans_) ++counts[s.name];
  return counts;
}

bool SpanLog::WriteChromeTrace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const int64_t base = spans_.empty() ? 0 : spans_.front().begin_ns;
  out << "{\"traceEvents\":[";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                  "\"parent\":%d}}",
                  i == 0 ? "" : ",\n", s.name, s.track,
                  (s.begin_ns - base) / 1e3, (s.end_ns - s.begin_ns) / 1e3, i,
                  s.parent);
    out << buf;
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

namespace {

namespace fs = std::filesystem;

std::string Fmt(const char* format, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), format, value);
  return buf;
}

/// Spans are recorded only for the measured part of the traced stream (the
/// first auctions after a restore warm the compiled-bids cache).
class Scope {
 public:
  Scope(SpanLog* log, const char* name, int parent)
      : log_(log), id_(log != nullptr ? log->Begin(name, parent) : -1) {}
  ~Scope() {
    if (log_ != nullptr) log_->End(id_);
  }
  int id() const { return id_; }

 private:
  SpanLog* log_;
  int id_;
};

bool NearlyEqual(double a, double b) {
  return std::fabs(a - b) <= 1e-9 * std::max(1.0, std::fabs(a));
}

Population RestoredPopulation(const Spec& spec, const Seeds& seeds,
                              const EngineCheckpoint& ckpt, Rng* user_rng,
                              RunResult* result) {
  Population pop = MakePopulation(spec, seeds);
  for (size_t i = 0; i < pop.strategies.size(); ++i) {
    const Status status = pop.strategies[i]->RestoreState(ckpt.strategy_state[i]);
    if (!status.ok()) result->Fail("strategy restore: " + status.ToString());
  }
  pop.workload.accounts = ckpt.accounts;
  user_rng->RestoreState(ckpt.user_rng);
  return pop;
}

}  // namespace

void RunTracedLayers(const TraceInputs& in, const RunOptions& opts,
                     SpanLog* spans, RunResult* result) {
  const Spec& spec = *in.spec;
  const Seeds& seeds = *in.seeds;
  const EngineCheckpoint& ckpt = *in.final_state;
  const int total = spec.traced_auctions;
  const int warm = std::max(4, total / 10);
  const int measured = total - warm;
  const int k = ckpt.num_slots;
  const PricingRule pricing = PricingRule::kGeneralizedSecondPrice;
  auto metric = [&](const std::string& name, double value,
                    const std::string& unit) {
    result->per_layer[name] = Metric{value, unit};
  };

  std::vector<Query> queries;
  QueryGenerator gen(ckpt.num_keywords, seeds.queries);
  gen.RestoreState(in.next_queries);
  for (int i = 0; i < total; ++i) queries.push_back(gen.Next());

  // ---- Untraced reference: a serial AuctionEngine restored from the served
  // state runs the same continuation. It runs auction by auction in
  // lockstep with the traced lifecycle below, so both see the same host
  // conditions and their ratio is the tracing overhead.
  EngineConfig engine_config;
  engine_config.seed = seeds.engine;
  std::vector<Settled> reference;
  double reference_measured_ms = 0;
  std::vector<AdvertiserAccount> reference_accounts;
  Population reference_pop = MakePopulation(spec, seeds);
  AuctionEngine reference_engine(engine_config,
                                 std::move(reference_pop.workload),
                                 std::move(reference_pop.strategies));
  {
    const Status status = reference_engine.RestoreCheckpoint(ckpt);
    if (!status.ok()) {
      result->Fail("reference restore: " + status.ToString());
      return;
    }
  }

  // ---- Serial lifecycle, step by step, in AuctionEngine::RunAuctionOn's
  // order; every outcome must equal the reference bitwise.
  std::vector<AuctionOutcome> traced_outcomes;
  int64_t rows = 0, hits = 0, lookups = 0;
  {
    Rng user_rng;
    Population pop = RestoredPopulation(spec, seeds, ckpt, &user_rng, result);
    std::vector<AdvertiserAccount>& accounts = pop.workload.accounts;
    const ClickModel& model = *pop.workload.click_model;
    const int n = static_cast<int>(pop.strategies.size());
    std::vector<BidsTable> bids(n), peek(n);
    CompiledBidsCache cache;
    cache.Reserve(static_cast<size_t>(n));
    std::vector<const CompiledBids*> view;
    int hungarian_left = spec.hungarian_samples;
    const int hungarian_every = std::max(1, measured / std::max(1, spec.hungarian_samples));
    for (int t = 0; t < total && result->correct; ++t) {
      const Query& q = queries[t];
      const bool record = t >= warm;
      SpanLog* log = record ? spans : nullptr;
      {
        const int64_t t0 = NowNs();
        const AuctionOutcome& o = reference_engine.RunAuctionOn(q);
        if (record) reference_measured_ms += (NowNs() - t0) / 1e6;
        reference.push_back(FromOutcome(o, 0));
      }
      if (record && (t - warm) % 5 == 0) {
        Scope s(spans, "strategy.peek", -1);
        for (AdvertiserId i = 0; i < n; ++i) {
          peek[i].Clear();
          pop.strategies[i]->PeekBids(q, accounts[i], &peek[i]);
        }
      }
      const int64_t hits0 = cache.hits(), misses0 = cache.misses();
      AuctionOutcome out;
      out.query = q;
      RevenueMatrix revenue(0, 0);
      {
        Scope root(log, "auction", -1);
        {
          Scope s(log, "strategy.capture", root.id());
          for (AdvertiserId i = 0; i < n; ++i) {
            bids[i].Clear();
            pop.strategies[i]->MakeBids(q, accounts[i], &bids[i]);
          }
        }
        {
          Scope s(log, "core.compile", root.id());
          view.clear();
          for (AdvertiserId i = 0; i < n; ++i) {
            view.push_back(&cache.Get(i, bids[i], k));
          }
        }
        {
          Scope s(log, "core.fill", root.id());
          revenue = BuildRevenueMatrixCompiled(view, model, nullptr);
        }
        std::vector<AdvertiserId> candidates;
        {
          Scope s(log, "core.topk", root.id());
          candidates = SelectTopPerSlotCandidates(revenue, k);
        }
        {
          Scope s(log, "matching.assign", root.id());
          out.wd = SolveOnCandidates(revenue, candidates);
        }
        {
          Scope s(log, "auction.pricing", root.id());
          out.prices = ComputePrices(pricing, revenue, model, out.wd.allocation);
        }
        {
          Scope s(log, "auction.settle", root.id());
          SettleAuction(pricing, model, out.prices, &accounts, pop.strategies,
                        &user_rng, &out);
        }
      }
      if (record) {
        for (AdvertiserId i = 0; i < n; ++i) rows += bids[i].size();
        hits += cache.hits() - hits0;
        lookups += (cache.hits() - hits0) + (cache.misses() - misses0);
        if ((t - warm) % 5 == 0) {
          for (AdvertiserId i = 0; i < n; ++i) {
            if (FingerprintBids(peek[i]) != FingerprintBids(bids[i])) {
              result->Fail("PeekBids differs from MakeBids for advertiser " +
                           std::to_string(i));
              break;
            }
          }
        }
        // Check (b): the reduced Hungarian's optimum equals the full
        // Hungarian's on the tree-walk matrix (outside the spans).
        if (hungarian_left > 0 && (t - warm) % hungarian_every == 0) {
          --hungarian_left;
          const RevenueMatrix baseline = BuildRevenueMatrixBaseline(bids, model);
          const WdResult full = DetermineWinners(baseline, WdMethod::kHungarian);
          if (!NearlyEqual(full.expected_revenue, out.wd.expected_revenue)) {
            result->Fail("reduced Hungarian " +
                         Fmt("%.9g", out.wd.expected_revenue) +
                         " != full Hungarian " +
                         Fmt("%.9g", full.expected_revenue));
          }
        }
      }
      const std::string diff = DiffSettled(FromOutcome(out, 0), reference[t]);
      if (!diff.empty()) result->Fail("traced lifecycle vs reference: " + diff);
      traced_outcomes.push_back(std::move(out));
    }
    if (spec.hungarian_samples > 0 && hungarian_left == spec.hungarian_samples) {
      result->Fail("no full-Hungarian cross-check ran");
    }
    reference_accounts = reference_engine.accounts();
    if (!DiffAccounts(accounts, reference_accounts).empty()) {
      result->Fail("traced lifecycle accounts differ from the reference");
    }
  }
  if (!result->correct) return;

  // ---- Sharded calls on the workload's own shard, pool and lane layout.
  double shard_capture_plan_ms = 0;
  {
    std::unique_ptr<ThreadPool> pool;
    if (spec.pool_threads > 0) pool = std::make_unique<ThreadPool>(spec.pool_threads);
    Population pop = MakePopulation(spec, seeds);
    ShardedAuctionEngine engine(EngineConfigFor(spec, seeds, pool.get()),
                                std::move(pop.workload),
                                std::move(pop.strategies));
    const Status status = engine.RestoreCheckpoint(ckpt);
    if (!status.ok()) {
      result->Fail("sharded restore: " + status.ToString());
      return;
    }
    const int lanes = std::max(1, spec.lanes);
    std::vector<std::unique_ptr<ShardedAuctionEngine::PlanLane>> plan_lanes;
    for (int e = 0; e < lanes; ++e) plan_lanes.push_back(engine.NewPlanLane());
    const bool batched = spec.mode == ServingMode::kBatchedSettlement;
    const int batch = batched ? spec.max_batch : 1;
    std::vector<ShardedAuctionEngine::CapturedBids> captured(batch);
    std::vector<ShardedAuctionEngine::PlannedAuction> plans(batch);
    std::vector<int64_t> plan_begin(batch), plan_end(batch);
    std::vector<int> plan_track(batch);
    for (int t0 = 0; t0 < total && result->correct; t0 += batch) {
      const int count = std::min(batch, total - t0);
      const bool record = t0 >= warm;
      SpanLog* log = record ? spans : nullptr;
      Scope root(log, "sharded.auctions", -1);
      for (int b = 0; b < count; ++b) {
        Scope s(log, "auction.shard_capture", root.id());
        engine.CaptureBids(queries[t0 + b], &captured[b]);
      }
      auto plan_slot = [&](int lane, int b) {
        plan_begin[b] = NowNs();
        engine.PlanCaptured(queries[t0 + b], captured[b],
                            plan_lanes[lane].get(), &plans[b]);
        plan_end[b] = NowNs();
        plan_track[b] = 2 + lane;
      };
      if (!batched) {
        plan_slot(0, 0);
      } else {
        // Lanes take slots in arrival order from a shared cursor, as the
        // server's lane pool does.
        std::atomic<int> cursor{0};
        std::vector<std::thread> workers;
        for (int e = 0; e < lanes; ++e) {
          workers.emplace_back([&, e] {
            for (int b = cursor++; b < count; b = cursor++) plan_slot(e, b);
          });
        }
        for (std::thread& w : workers) w.join();
      }
      for (int b = 0; b < count; ++b) {
        if (log != nullptr) {
          log->Add("auction.shard_plan", root.id(), plan_track[b],
                   plan_begin[b], plan_end[b]);
        }
        const AuctionOutcome* o = nullptr;
        {
          Scope s(log, "auction.shard_settle", root.id());
          o = &engine.SettlePlanned(&plans[b]);
        }
        const Settled settled = FromOutcome(*o, 0);
        if (!batched) {
          const std::string diff = DiffSettled(settled, reference[t0 + b]);
          if (!diff.empty()) result->Fail("sharded vs reference: " + diff);
        }
        const std::string bad =
            CheckAuctionProperties(settled, engine.accounts(), pricing);
        if (!bad.empty()) result->Fail("sharded auction property: " + bad);
      }
    }
    if (!batched && !DiffAccounts(engine.accounts(), reference_accounts).empty()) {
      result->Fail("sharded accounts differ from the reference");
    }
  }
  if (!result->correct) return;
  const std::map<std::string, int64_t> self = spans->SelfNs();
  const std::map<std::string, int64_t> counts = spans->Counts();
  auto self_ms = [&](const std::string& name) {
    auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second / 1e6;
  };
  auto count_of = [&](const std::string& name) {
    auto it = counts.find(name);
    return it == counts.end() ? int64_t{0} : it->second;
  };
  shard_capture_plan_ms =
      self_ms("auction.shard_capture") + self_ms("auction.shard_plan");

  // ---- Durability and replication layers fed the traced outcomes: append
  // them after the served state's checkpoint, let a follower catch up on
  // the first half and watch the second half become visible one record at
  // a time, then recover a fresh engine from checkpoint + log.
  std::vector<double> append_us, visible_ms;
  double apply_rps = 0, recovery_rps = 0, bytes_per_record = 0;
  {
    const std::string dir = opts.work_dir + "/probe";
    fs::create_directories(dir);
    const std::string ckpt_path = dir + "/ckpt", log_path = dir + "/log";
    Status status = WriteCheckpointFile(ckpt_path, ckpt);
    LogWriterOptions writer_options;
    writer_options.group_records = 1;
    std::unique_ptr<SettlementLogWriter> writer;
    if (status.ok()) {
      StatusOr<std::unique_ptr<SettlementLogWriter>> opened =
          SettlementLogWriter::Open(log_path, writer_options, ckpt.seq + 1);
      status = opened.status();
      if (opened.ok()) writer = *std::move(opened);
    }
    if (!status.ok()) {
      result->Fail("probe log: " + status.ToString());
      return;
    }
    auto append = [&](int t) {
      Scope s(spans, "durability.append", -1);
      const int64_t a0 = NowNs();
      const Status st = writer->Append(SettlementRecord::FromOutcome(
          ckpt.seq + 1 + static_cast<uint64_t>(t), traced_outcomes[t]));
      append_us.push_back((NowNs() - a0) / 1e3);
      if (!st.ok()) result->Fail("log append: " + st.ToString());
    };
    const int half = total / 2;
    for (int t = 0; t < half; ++t) append(t);
    status = writer->Flush();

    Population pop = MakePopulation(spec, seeds);
    FollowerEngine follower(FollowerConfigFor(spec, seeds, ckpt_path, log_path),
                            std::move(pop.workload), std::move(pop.strategies));
    {
      Scope s(spans, "replication.catch_up", -1);
      const int64_t f0 = NowNs();
      if (status.ok()) status = follower.Start();
      if (!status.ok() ||
          !follower.WaitForSeq(ckpt.seq + half, std::chrono::milliseconds(120000))) {
        result->Fail("probe follower did not catch up: " +
                     follower.status().ToString());
        return;
      }
      apply_rps = follower.records_applied() / ((NowNs() - f0) / 1e9);
    }
    for (int t = half; t < total; ++t) {
      append(t);  // one record per group: written before Append returns
      Scope s(spans, "replication.visible", -1);
      const int64_t v0 = NowNs();
      if (!follower.WaitForSeq(ckpt.seq + 1 + t, std::chrono::milliseconds(60000))) {
        result->Fail("probe record never became visible");
        return;
      }
      visible_ms.push_back((NowNs() - v0) / 1e6);
    }
    status = writer->Flush();
    bytes_per_record = static_cast<double>(writer->bytes_written()) /
                       std::max<int64_t>(1, writer->records_appended());
    writer.reset();
    std::vector<AdvertiserAccount> replica;
    if (!status.ok() || !follower.AccountsSnapshot(&replica).ok() ||
        !DiffAccounts(replica, reference_accounts).empty()) {
      result->Fail("probe follower differs from the reference");
    }
    follower.Stop();

    Population rec_pop = MakePopulation(spec, seeds);
    AuctionEngine recovered(engine_config, std::move(rec_pop.workload),
                            std::move(rec_pop.strategies));
    RecoveryOptions options;
    options.checkpoint_path = ckpt_path;
    options.log_path = log_path;
    options.stream = QueryStream::kExternal;
    RecoveryReport report;
    {
      Scope s(spans, "durability.recovery", -1);
      const int64_t r0 = NowNs();
      status = RecoverEngine(&recovered, options, &report);
      recovery_rps = report.records_replayed / ((NowNs() - r0) / 1e9);
    }
    if (!status.ok() || report.recovered_seq != ckpt.seq + total ||
        !DiffAccounts(recovered.accounts(), reference_accounts).empty()) {
      result->Fail("probe recovery differs from the reference: " +
                   status.ToString());
    }
  }

  // ---- Layer table.
  const int64_t auctions = count_of("auction");
  const double per = auctions > 0 ? 1.0 / auctions : 0;
  double traced_wall_ms = 0;
  const char* const kLayers[] = {"strategy.capture", "core.compile",
                                 "core.fill",        "core.topk",
                                 "matching.assign",  "auction.pricing",
                                 "auction.settle"};
  double layer_sum_ms = 0;
  for (const char* layer : kLayers) layer_sum_ms += self_ms(layer);
  const double unattributed_ms = self_ms("auction");
  traced_wall_ms = layer_sum_ms + unattributed_ms;
  const int64_t shard_rounds = count_of("auction.shard_capture");

  metric("strategy.capture_ms", self_ms("strategy.capture") * per, "ms");
  metric("strategy.peek_ms",
         self_ms("strategy.peek") / std::max<int64_t>(1, count_of("strategy.peek")),
         "ms");
  metric("strategy.bid_rows", static_cast<double>(rows) * per, "count");
  metric("core.compile_ms", self_ms("core.compile") * per, "ms");
  metric("core.compile_hit_ratio",
         lookups > 0 ? static_cast<double>(hits) / lookups : 0, "ratio");
  metric("core.fill_ms", self_ms("core.fill") * per, "ms");
  metric("core.topk_ms", self_ms("core.topk") * per, "ms");
  metric("matching.assign_ms", self_ms("matching.assign") * per, "ms");
  metric("auction.pricing_ms", self_ms("auction.pricing") * per, "ms");
  metric("auction.settle_ms", self_ms("auction.settle") * per, "ms");
  metric("auction.unattributed_ms", unattributed_ms * per, "ms");
  metric("auction.shard_capture_ms",
         self_ms("auction.shard_capture") / std::max<int64_t>(1, shard_rounds),
         "ms");
  metric("auction.shard_plan_ms",
         self_ms("auction.shard_plan") /
             std::max<int64_t>(1, count_of("auction.shard_plan")),
         "ms");
  metric("auction.shard_settle_ms",
         self_ms("auction.shard_settle") /
             std::max<int64_t>(1, count_of("auction.shard_settle")),
         "ms");
  metric("auction.pool_speedup",
         shard_capture_plan_ms > 0 ? reference_measured_ms / shard_capture_plan_ms
                                   : 0,
         "ratio");
  metric("trace.overhead_pct",
         reference_measured_ms > 0
             ? (traced_wall_ms / reference_measured_ms - 1.0) * 100.0
             : 0,
         "%");
  metric("durability.append_us", Mean(append_us), "us");
  metric("durability.bytes_per_record", bytes_per_record, "B");
  metric("durability.recovery_rps", recovery_rps, "1/s");
  metric("replication.apply_rps", apply_rps, "1/s");
  metric("replication.visible_ms", Quantile(visible_ms, 0.5), "ms");

  // Layer self times add up to the traced auction wall time by
  // construction; what is left outside every layer span must stay small.
  constexpr double kUnattributedTolerance = 0.02;
  if (traced_wall_ms <= 0 ||
      std::fabs(unattributed_ms) > kUnattributedTolerance * traced_wall_ms) {
    result->Fail("unattributed auction time " + Fmt("%.3f", unattributed_ms) +
                 " ms exceeds 2% of the traced wall " +
                 Fmt("%.3f", traced_wall_ms) + " ms");
  }

  result->Note("traced layers over " + std::to_string(auctions) +
               " auctions (self ms/auction, share of traced wall):");
  for (const char* layer : kLayers) {
    result->Note(std::string("  ") + layer + " " +
                 Fmt("%.4f", self_ms(layer) * per) + "  " +
                 Fmt("%.1f%%", 100.0 * self_ms(layer) /
                                   std::max(1e-9, traced_wall_ms)));
  }
  result->Note("  unattributed " + Fmt("%.4f", unattributed_ms * per) +
               "  (tolerance 2% of the traced wall)");
  result->Note("traced wall " + Fmt("%.3f", traced_wall_ms * per) +
               " ms/auction vs untraced AuctionEngine " +
               Fmt("%.3f", reference_measured_ms * per) +
               " ms/auction: tracing overhead " +
               Fmt("%.2f%%", reference_measured_ms > 0
                                 ? (traced_wall_ms / reference_measured_ms - 1) * 100
                                 : 0));
}

}  // namespace perfbench
}  // namespace ssa
