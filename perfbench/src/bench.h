// Shared declarations of the end-to-end benchmark program (see
// perfbench/README.md for what each workload measures and why).
#ifndef SSA_PERFBENCH_BENCH_H_
#define SSA_PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "auction/auction_engine.h"
#include "auction/query_gen.h"
#include "auction/workload.h"
#include "durability/checkpoint.h"
#include "replication/follower.h"
#include "serving/auction_server.h"
#include "strategy/strategy.h"

namespace ssa {
namespace perfbench {

// ---------------------------------------------------------------------------
// Workload specification.
// ---------------------------------------------------------------------------

struct Spec {
  std::string name;
  /// true: every advertiser runs the Figure 5 program in the bidding
  /// language; false: the native RoiStrategy (the Section V population).
  bool programs = false;
  int num_advertisers = 10000;
  ServingMode mode = ServingMode::kDeterministicReplay;
  int shards = 4;
  int pool_threads = 0;  // shard pool workers (0 = no pool)
  int lanes = 0;         // planning lanes E
  int max_batch = 16;
  /// Durable: settlement log + checkpoint recovery + one read follower.
  bool durable = false;
  int closed_window = 4;       // outstanding queries in the closed loop
  double closed_share = 0.3;   // share of --seconds in the closed loop
  double open_share = 0.55;    // share of --seconds in the open loop
  double open_rate_qps = 40;   // fixed open-loop Poisson rate
  double read_rate_qps = 0;    // concurrent read rate (durable only)
  int setup_reps = 5;          // set-ups per run; setup_s is their median
  int warmup = 30;             // warm-up auctions inside each set-up
  int checkpoint_seq = 0;      // durable fixture: checkpoint position
  int log_suffix = 0;          // durable fixture: records after it
  int traced_auctions = 100;   // traced-run continuation length
  int hungarian_samples = 1;   // (b) full-Hungarian cross-checks per run

  /// Peak number of threads that can be runnable at once while writes run:
  /// the generator, plus the executor or the shard pool (the executor
  /// blocks while the pool works), plus lanes, follower and reader.
  int RunnableThreads() const;
  std::string ThreadPlan() const;
};

/// The three workloads; nullptr for an unknown name.
const Spec* FindSpec(const std::string& name);
std::vector<std::string> SpecNames();

/// Every input of a run derives from --seed through these streams.
struct Seeds {
  uint64_t population;  // MakePaperWorkload
  uint64_t engine;      // user-behaviour RNG of every engine
  uint64_t queries;     // the write query stream
  uint64_t arrivals;    // open-loop schedule
  uint64_t reads;       // read queries and read schedule
  explicit Seeds(uint64_t seed);
};

// ---------------------------------------------------------------------------
// Populations.
// ---------------------------------------------------------------------------

struct Population {
  Workload workload;
  std::vector<std::unique_ptr<BiddingStrategy>> strategies;
};

/// Builds the workload's population (for programs this parses one program
/// per advertiser). Deterministic in seeds.population.
Population MakePopulation(const Spec& spec, const Seeds& seeds);

/// The Figure 5 Equalize-ROI program text every program advertiser runs.
extern const char kEqualizeRoiProgram[];

/// Formula of keyword `kw` for program advertiser `i`: Click AND Slot 1 on
/// one keyword in four, Click elsewhere.
bool UsesTopSlotFormula(int advertiser, int keyword);

ShardedEngineConfig EngineConfigFor(const Spec& spec, const Seeds& seeds,
                                    ThreadPool* pool);
/// A read follower of the workload's engine shape (no pool).
FollowerConfig FollowerConfigFor(const Spec& spec, const Seeds& seeds,
                                 const std::string& checkpoint,
                                 const std::string& log);

// ---------------------------------------------------------------------------
// Clocks and statistics.
// ---------------------------------------------------------------------------

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU time consumed so far by this whole process (all threads), and by the
/// calling thread, in ns. With paravirtual steal accounting (a KVM guest)
/// neither counts time the hypervisor gave to other guests, which wall
/// clocks do; see perfbench/README.md, "Noise".
int64_t ProcessCpuNs();
int64_t ThreadCpuNs();

/// Linear-interpolated quantile (q in [0, 1]) of `values`; 0 when empty.
double Quantile(std::vector<double> values, double q);
double Mean(const std::vector<double>& values);

/// Pointer chase over a fixed random ring of `entries` 4-byte entries; ns
/// per hop. 32 Ki entries (128 KiB) stay in a core's L2 and track core speed
/// and stolen CPU time; 512 Ki entries (2 MiB) spill out of L2 into the
/// shared cache and also track cache pressure from other tenants.
double ChaseNs(uint32_t entries);
constexpr uint32_t kChaseL2Entries = 1u << 15;
constexpr uint32_t kChaseL3Entries = 1u << 19;

/// Machine-wide CPU time counters (jiffies) from /proc/stat: total and
/// steal, the time a hypervisor ran something else on our virtual CPUs.
struct CpuTimes {
  int64_t total = 0;
  int64_t steal = 0;
  static CpuTimes Now();
  /// Steal as a percentage of all CPU time since `earlier`.
  double StealPctSince(const CpuTimes& earlier) const;
};

/// Peak resident set of this process, MiB.
double PeakRssMb();

// ---------------------------------------------------------------------------
// What the served path settled, captured by the completion hook.
// ---------------------------------------------------------------------------

struct Settled {
  Query query;
  std::vector<AdvertiserId> slot_to_advertiser;
  /// advertiser_to_slot agrees with slot_to_advertiser for every winner.
  bool maps_agree = true;
  std::vector<Money> prices;
  std::vector<UserEvent> events;
  Money revenue_charged = 0;
  int64_t done_ns = 0;
};

Settled FromOutcome(const AuctionOutcome& outcome, int64_t done_ns);

/// Bitwise comparison of two settled auctions; empty when equal, else the
/// first difference.
std::string DiffSettled(const Settled& a, const Settled& b);
std::string DiffAccounts(const std::vector<AdvertiserAccount>& a,
                         const std::vector<AdvertiserAccount>& b);

/// Check (c): allocation is a matching, prices respect max bids, charges
/// are the prices. Empty when the auction passes.
std::string CheckAuctionProperties(const Settled& s,
                                   const std::vector<AdvertiserAccount>& accounts,
                                   PricingRule pricing);

// ---------------------------------------------------------------------------
// Run results.
// ---------------------------------------------------------------------------

struct OpCounts {
  int64_t submits = 0, submits_rejected = 0;
  int64_t settled = 0, unsettled = 0;
  int64_t reads = 0, reads_unavailable = 0;
  int64_t attempted() const { return submits + settled + reads; }
  int64_t failed() const {
    return submits_rejected + unsettled + reads_unavailable;
  }
};

struct Metric {
  double value = 0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  std::vector<std::string> failures;
  OpCounts ops;
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;
  /// Human-readable report lines, printed before the JSON line.
  std::vector<std::string> report;

  void Fail(const std::string& why);
  void Note(const std::string& line) { report.push_back(line); }
};

struct RunOptions {
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;   // working files (logs, checkpoints)
  std::string span_path;  // trace run: span file written at exit
};

/// Runs one workload end to end: set-up, closed loop, open loop (plus
/// reads), every output check, and with opts.trace the traced layer run.
void RunWorkload(const Spec& spec, const RunOptions& opts, RunResult* result);

// ---------------------------------------------------------------------------
// Traced layer run (layers.cc).
// ---------------------------------------------------------------------------

/// In-memory span recorder: spans carry a parent and are written once, as a
/// Chrome/Perfetto trace, when the run ends.
class SpanLog {
 public:
  int Begin(const char* name, int parent);
  void End(int id);
  /// A span timed elsewhere (e.g. on a lane thread), on trace track `track`.
  int Add(const char* name, int parent, int track, int64_t begin_ns,
          int64_t end_ns);
  /// Self time (ns) per span name: duration minus the part covered by
  /// direct children.
  std::map<std::string, int64_t> SelfNs() const;
  std::map<std::string, int64_t> Counts() const;
  bool WriteChromeTrace(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    int parent;
    int track;
    int64_t begin_ns;
    int64_t end_ns;
  };
  std::vector<Span> spans_;
};

/// Everything the traced run needs from the served part of the run.
struct TraceInputs {
  const Spec* spec;
  const Seeds* seeds;
  /// Engine state right after the served stream ended.
  const EngineCheckpoint* final_state;
  /// The query stream's position after the served stream.
  QueryGenerator::State next_queries;
};

/// Replays `spec.traced_auctions` continuation queries from the final state
/// through the serial lifecycle's public steps (spans), the sharded calls on
/// the workload's layout, and the durability/replication layers; checks
/// them against an untraced AuctionEngine and fills result->per_layer.
void RunTracedLayers(const TraceInputs& in, const RunOptions& opts,
                     SpanLog* spans, RunResult* result);

}  // namespace perfbench
}  // namespace ssa

#endif  // SSA_PERFBENCH_BENCH_H_
