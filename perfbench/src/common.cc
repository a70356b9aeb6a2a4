#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <sstream>

#include "bench.h"
#include "core/formula.h"
#include "strategy/program_strategy.h"
#include "strategy/roi_strategy.h"
#include "util/rng.h"

namespace ssa {
namespace perfbench {
namespace {

std::vector<Spec> MakeSpecs() {
  std::vector<Spec> specs;

  Spec replay;
  replay.name = "roi_replay";
  replay.num_advertisers = 10000;
  replay.mode = ServingMode::kDeterministicReplay;
  replay.shards = 4;
  // 4 shards on 3 workers finish in two rounds, as on 2 workers: the third
  // worker would add a barrier participant and no speed.
  replay.pool_threads = 2;
  replay.closed_window = 4;
  replay.closed_share = 0.35;
  replay.open_share = 0.45;
  replay.open_rate_qps = 25;
  replay.read_rate_qps = 50;
  replay.setup_reps = 5;
  replay.warmup = 30;
  replay.traced_auctions = 100;
  replay.hungarian_samples = 1;
  specs.push_back(replay);

  Spec batched = replay;
  batched.name = "roi_batched";
  batched.mode = ServingMode::kBatchedSettlement;
  batched.pool_threads = 0;
  batched.lanes = 2;
  batched.closed_window = 32;
  batched.warmup = 32;
  batched.traced_auctions = 96;
  specs.push_back(batched);

  Spec durable;
  durable.name = "program_durable";
  durable.programs = true;
  durable.num_advertisers = 1000;
  durable.mode = ServingMode::kDeterministicReplay;
  durable.shards = 1;
  durable.durable = true;
  durable.closed_window = 4;
  durable.closed_share = 0.2;
  durable.open_share = 0.8;
  durable.open_rate_qps = 14;
  durable.read_rate_qps = 14;
  durable.setup_reps = 3;
  durable.warmup = 10;
  durable.checkpoint_seq = 40;
  durable.log_suffix = 20;
  durable.traced_auctions = 50;
  durable.hungarian_samples = 3;
  specs.push_back(durable);
  return specs;
}

const std::vector<Spec>& Specs() {
  static const std::vector<Spec>* specs = new std::vector<Spec>(MakeSpecs());
  return *specs;
}

uint64_t Mix(uint64_t seed, uint64_t stream) {
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + stream);
  return rng.NextU64();
}

}  // namespace

int Spec::RunnableThreads() const {
  return 1 + std::max(1, pool_threads) + lanes + (durable ? 2 : 0);
}

std::string Spec::ThreadPlan() const {
  std::ostringstream out;
  out << "generator 1 + " << (pool_threads > 0 ? "shard pool " : "executor ")
      << std::max(1, pool_threads);
  if (lanes > 0) out << " + lanes " << lanes;
  if (durable) out << " + follower 1 + reader 1";
  out << " = " << RunnableThreads();
  return out.str();
}

const Spec* FindSpec(const std::string& name) {
  for (const Spec& spec : Specs()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

std::vector<std::string> SpecNames() {
  std::vector<std::string> names;
  for (const Spec& spec : Specs()) names.push_back(spec.name);
  return names;
}

Seeds::Seeds(uint64_t seed)
    : population(Mix(seed, 1)),
      engine(Mix(seed, 2)),
      queries(Mix(seed, 3)),
      arrivals(Mix(seed, 4)),
      reads(Mix(seed, 5)) {}

// The verbatim Figure 5 program with the two fidelity fixes the repository's
// language tests document: the spend tests in multiplied form and the
// overspending branch's comparison corrected to '>'.
const char kEqualizeRoiProgram[] = R"sql(
CREATE TRIGGER bid AFTER INSERT ON Query
{
  IF amtSpent < targetSpendRate * time THEN
    UPDATE Keywords
    SET bid = bid + 1
    WHERE roi = ( SELECT MAX( K.roi ) FROM Keywords K )
      AND relevance > 0
      AND bid < maxbid;
  ELSEIF amtSpent > targetSpendRate * time
  THEN
    UPDATE Keywords
    SET bid = bid - 1
    WHERE roi = ( SELECT MIN( K.roi ) FROM Keywords K )
      AND relevance > 0
      AND bid > 0;
  ENDIF;

  UPDATE Bids
  SET value =
    ( SELECT SUM( K.bid ) FROM Keywords K
      WHERE K.relevance > 0.7
      AND K.formula = Bids.formula );
}
)sql";

bool UsesTopSlotFormula(int advertiser, int keyword) {
  return (advertiser + keyword) % 4 == 0;
}

Population MakePopulation(const Spec& spec, const Seeds& seeds) {
  WorkloadConfig config;
  config.num_advertisers = spec.num_advertisers;
  config.seed = seeds.population;
  Population pop;
  pop.workload = MakePaperWorkload(config);
  const int n = config.num_advertisers;
  pop.strategies.reserve(n);
  if (!spec.programs) {
    for (int i = 0; i < n; ++i) {
      pop.strategies.push_back(
          std::make_unique<RoiStrategy>(pop.workload.keyword_formulas));
    }
    return pop;
  }
  for (int i = 0; i < n; ++i) {
    std::vector<ProgramStrategy::KeywordSpec> keywords;
    for (int kw = 0; kw < config.num_keywords; ++kw) {
      Formula formula = UsesTopSlotFormula(i, kw)
                            ? Formula::Click() && Formula::Slot(0)
                            : Formula::Click();
      keywords.push_back({"kw" + std::to_string(kw), std::move(formula)});
    }
    auto program = ProgramStrategy::Create(kEqualizeRoiProgram, keywords);
    SSA_CHECK_MSG(program.ok(), program.status().ToString().c_str());
    pop.strategies.push_back(*std::move(program));
  }
  return pop;
}

ShardedEngineConfig EngineConfigFor(const Spec& spec, const Seeds& seeds,
                                    ThreadPool* pool) {
  ShardedEngineConfig config;
  config.engine.seed = seeds.engine;
  config.num_shards = spec.shards;
  config.pool = pool;
  return config;
}

FollowerConfig FollowerConfigFor(const Spec& spec, const Seeds& seeds,
                                 const std::string& checkpoint,
                                 const std::string& log) {
  FollowerConfig config;
  config.engine = EngineConfigFor(spec, seeds, /*pool=*/nullptr);
  config.checkpoint_path = checkpoint;
  config.log_path = log;
  return config;
}

namespace {
int64_t ClockNs(clockid_t clock) {
  timespec ts;
  clock_gettime(clock, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}
}  // namespace

int64_t ProcessCpuNs() { return ClockNs(CLOCK_PROCESS_CPUTIME_ID); }
int64_t ThreadCpuNs() { return ClockNs(CLOCK_THREAD_CPUTIME_ID); }

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

double ChaseNs(uint32_t entries) {
  constexpr int kHops = 1 << 22;
  std::vector<uint32_t> order(entries);
  std::iota(order.begin(), order.end(), 0u);
  Rng rng(12345);
  for (uint32_t i = entries - 1; i > 0; --i) {
    std::swap(order[i], order[rng.NextBounded(i + 1)]);
  }
  std::vector<uint32_t> next(entries);
  for (uint32_t i = 0; i < entries; ++i) {
    next[order[i]] = order[(i + 1) % entries];
  }
  uint32_t at = 0;
  for (uint32_t i = 0; i < entries; ++i) at = next[at];  // warm
  const int64_t t0 = NowNs();
  for (int i = 0; i < kHops; ++i) at = next[at];
  const int64_t t1 = NowNs();
  volatile uint32_t sink = at;
  (void)sink;
  return static_cast<double>(t1 - t0) / kHops;
}

CpuTimes CpuTimes::Now() {
  CpuTimes t;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return t;
  long long v[10] = {0};
  const int got = std::fscanf(f, "cpu %lld %lld %lld %lld %lld %lld %lld %lld",
                              &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                              &v[7]);
  std::fclose(f);
  for (int i = 0; i < got; ++i) t.total += v[i];
  if (got == 8) t.steal = v[7];
  return t;
}

double CpuTimes::StealPctSince(const CpuTimes& earlier) const {
  const int64_t total_delta = total - earlier.total;
  return total_delta > 0 ? 100.0 * (steal - earlier.steal) / total_delta : 0;
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

Settled FromOutcome(const AuctionOutcome& outcome, int64_t done_ns) {
  Settled s;
  s.query = outcome.query;
  s.slot_to_advertiser = outcome.wd.allocation.slot_to_advertiser;
  // O(k) only: copying the O(n) inverse map per auction would dominate the
  // benchmark's own memory at n = 10 000.
  const Allocation& a = outcome.wd.allocation;
  for (SlotIndex j = 0; j < static_cast<SlotIndex>(a.slot_to_advertiser.size());
       ++j) {
    const AdvertiserId i = a.slot_to_advertiser[j];
    if (i >= 0 && (i >= static_cast<AdvertiserId>(a.advertiser_to_slot.size()) ||
                   a.advertiser_to_slot[i] != j)) {
      s.maps_agree = false;
    }
  }
  s.prices = outcome.prices;
  s.events = outcome.events;
  s.revenue_charged = outcome.revenue_charged;
  s.done_ns = done_ns;
  return s;
}

std::string DiffSettled(const Settled& a, const Settled& b) {
  std::ostringstream out;
  if (a.query.keyword != b.query.keyword || a.query.time != b.query.time) {
    out << "query differs (time " << a.query.time << " vs " << b.query.time
        << ")";
  } else if (a.slot_to_advertiser != b.slot_to_advertiser) {
    out << "allocation differs at time " << a.query.time;
  } else if (a.prices != b.prices) {
    out << "prices differ at time " << a.query.time;
  } else if (a.revenue_charged != b.revenue_charged) {
    out << "revenue differs at time " << a.query.time;
  } else if (a.events.size() != b.events.size()) {
    out << "event count differs at time " << a.query.time;
  } else {
    for (size_t e = 0; e < a.events.size(); ++e) {
      const UserEvent& x = a.events[e];
      const UserEvent& y = b.events[e];
      if (x.advertiser != y.advertiser || x.slot != y.slot ||
          x.clicked != y.clicked || x.purchased != y.purchased ||
          x.charged != y.charged) {
        out << "event " << e << " differs at time " << a.query.time;
        break;
      }
    }
  }
  return out.str();
}

std::string DiffAccounts(const std::vector<AdvertiserAccount>& a,
                         const std::vector<AdvertiserAccount>& b) {
  if (a.size() != b.size()) return "account count differs";
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].amount_spent != b[i].amount_spent ||
        a[i].value_gained != b[i].value_gained ||
        a[i].spent_per_keyword != b[i].spent_per_keyword) {
      return "account " + std::to_string(i) + " differs";
    }
  }
  return "";
}

std::string CheckAuctionProperties(
    const Settled& s, const std::vector<AdvertiserAccount>& accounts,
    PricingRule pricing) {
  const int k = static_cast<int>(s.slot_to_advertiser.size());
  const int n = static_cast<int>(accounts.size());
  std::ostringstream out;
  out << "time " << s.query.time << ": ";
  if (static_cast<int>(s.prices.size()) != k) return out.str() + "price count";
  std::vector<char> seated(n, 0);
  int filled = 0;
  for (SlotIndex j = 0; j < k; ++j) {
    const AdvertiserId i = s.slot_to_advertiser[j];
    if (i < 0) continue;
    if (i >= n || seated[i]) {
      return out.str() + "advertiser in two slots";
    }
    seated[i] = 1;
    ++filled;
    if (!(s.prices[j] >= 0)) return out.str() + "negative price";
    if (pricing == PricingRule::kGeneralizedSecondPrice &&
        s.prices[j] > accounts[i].max_bid[s.query.keyword]) {
      return out.str() + "GSP price above the winner's max bid";
    }
  }
  if (!s.maps_agree) return out.str() + "slot maps disagree";
  if (static_cast<int>(s.events.size()) != filled) {
    return out.str() + "one event per filled slot";
  }
  Money revenue = 0;
  for (const UserEvent& e : s.events) {
    if (e.slot < 0 || e.slot >= k || s.slot_to_advertiser[e.slot] != e.advertiser) {
      return out.str() + "event for an unallocated slot";
    }
    const Money expected = (pricing == PricingRule::kVcg || e.clicked)
                               ? s.prices[e.slot]
                               : 0;
    if (e.charged != expected) return out.str() + "charge is not the price";
    revenue += e.charged;
  }
  if (revenue != s.revenue_charged) return out.str() + "revenue != charges";
  return "";
}

void RunResult::Fail(const std::string& why) {
  correct = false;
  failures.push_back(why);
}

}  // namespace perfbench
}  // namespace ssa
