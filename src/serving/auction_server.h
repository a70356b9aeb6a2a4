#ifndef SSA_SERVING_AUCTION_SERVER_H_
#define SSA_SERVING_AUCTION_SERVER_H_

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "auction/sharded_engine.h"
#include "durability/recovery.h"
#include "durability/settlement_log.h"
#include "obs/metrics.h"
#include "obs/reporter.h"
#include "obs/trace.h"
#include "util/bounded_queue.h"
#include "util/epoch.h"
#include "util/histogram.h"

namespace ssa {

/// How the executor orders planning vs settlement inside a micro-batch.
enum class ServingMode {
  /// Plan and settle each query before planning the next. Given a fixed
  /// arrival order this reproduces the serial engine loop *bitwise* — for
  /// any batch size, batch deadline, shard count, or pool — because batch
  /// boundaries only group work, never reorder it (serving_test pins this
  /// against AuctionEngine::RunAuctionOn).
  kDeterministicReplay,
  /// Plan the whole batch against batch-start account state, then settle in
  /// arrival order in one pass. Settlement (user simulation, charging,
  /// accounting, outcome notifications, revenue accumulation) amortizes
  /// across the batch, and planning stops waiting on per-query settlement.
  /// Still deterministic given the arrival order, but bids inside a batch
  /// no longer see intra-batch settlements — the documented freshness trade
  /// (equal to replay when the batch size is 1).
  kBatchedSettlement,
};

/// One admitted query: what travels through the ingestion queue.
struct ServingRequest {
  Query query;
  /// Admission timestamp — queue-wait and end-to-end latency anchor.
  std::chrono::steady_clock::time_point admitted_at{};
  /// Sampled trace sequence (0 = this query records no spans). Assigned at
  /// Submit from the admission counter, deterministically 1-in-N.
  uint64_t trace_seq = 0;
};

/// Observability knobs. Metrics default on (wait-free instruments; the
/// executor additionally publishes engine/log gauges once per batch);
/// tracing defaults off. Neither path touches auction values —
/// instrumentation only reads clocks and writes side state — so
/// kDeterministicReplay stays bitwise-identical at any sampling rate
/// (serving_test pins this at full sampling).
struct ObsConfig {
  /// Register instruments and publish per-batch gauges. false = the
  /// registry stays empty and the serving path records only the four
  /// pre-existing stage histograms.
  bool metrics = true;
  /// sample_every = 0 disables tracing; the hot path then pays one null
  /// check per stage.
  TraceConfig trace;
  /// > 0 runs a background MetricsReporter at this interval (plus one
  /// terminal snapshot at Stop()).
  std::chrono::milliseconds report_interval{0};
  /// Reporter target (Prometheus text, atomically replaced per snapshot).
  /// Empty = reporter publishes through `report_callback` only.
  std::string report_path;
  /// Optional per-snapshot callback (reporter thread).
  std::function<void(const MetricsSnapshot&)> report_callback;
};

/// Durability knobs for the serving path. All off by default — the server
/// behaves exactly as before unless a log path is configured.
struct DurabilityConfig {
  /// Settlement-log sink: every settled auction is appended as a sequenced,
  /// checksummed record. Empty = durability off.
  std::string log_path;
  /// Group commit fills up to `writer.group_records` under load; whenever
  /// the executor finds the queue empty after a batch it commits the
  /// partial group, so followers never wait on a group that may not fill.
  LogWriterOptions writer;
  /// Checkpoint file recovery rewinds to (and WriteCheckpoint() targets).
  /// Empty or missing = recover by replaying the whole log. Start() always
  /// runs restore-then-replay when a log path is set.
  std::string checkpoint_path;
  /// Test hook threaded into the log writer (crash/corruption injection).
  /// Not owned; null in production.
  FaultInjector* injector = nullptr;
};

/// Serving-layer knobs on top of the sharded engine configuration.
struct ServerConfig {
  /// Engine knobs (winner determination, pricing, seed, shard count, pool).
  /// `engine.pool` is the same pool the shard phase of every planned
  /// auction runs on — the server adds no pool of its own.
  ShardedEngineConfig engine;
  /// Ingestion bound (exact).
  size_t queue_capacity = 1024;
  BackpressurePolicy backpressure = BackpressurePolicy::kBlock;
  /// Micro-batch triggers: a batch closes when it holds `max_batch_size`
  /// requests or `batch_deadline` has elapsed since its first request was
  /// popped, whichever comes first.
  int max_batch_size = 16;
  std::chrono::microseconds batch_deadline{200};
  ServingMode mode = ServingMode::kDeterministicReplay;
  /// Planning lanes E. 0 = the executor plans in-thread on the engine's
  /// internal lane (capture + plan in one PlanAuction call). E >= 1
  /// replicates the *pure* half of planning across E worker threads, each
  /// owning a private PlanLane scratch arena (compiled-bids caches, revenue
  /// matrix, top-k heaps): the executor
  /// captures bids strictly in arrival order (bidding programs may mutate
  /// their private state, so capture cannot parallelize), hands each
  /// captured slot to any idle lane, and settles through an ordered commit
  /// barrier strictly in arrival order. Values and the settlement trajectory
  /// are identical for every E in both modes — under kDeterministicReplay
  /// bitwise-equal to the serial engine loop (serving_test pins E in
  /// {1,2,4,8}); under kBatchedSettlement lanes plan slots while the
  /// executor settles earlier slots of the same batch, which is where the
  /// throughput shows up on multi-core hosts.
  int num_plan_lanes = 0;
  /// Cost-model-driven shard rebalancing, honored only at epoch boundaries:
  /// after a micro-batch fully settles and before the next batch's first
  /// capture — the only points where no plan is in flight on any lane, which
  /// is Repartition's concurrency precondition. Off by default (`every` is
  /// overridden to 0 here); set `every` > 0 to rebalance when due and the
  /// predicted imbalance is at least `min_imbalance`. Rebalancing moves
  /// shard boundaries only — under kDeterministicReplay the trajectory stays
  /// bitwise-equal to the serial engine (serving_test pins this).
  ShardRebalancerOptions rebalance{/*every=*/0};
  DurabilityConfig durability;
  ObsConfig obs;
};

/// Asynchronous serving front-end for the sharded auction engine: producers
/// Submit() queries into a bounded ingestion queue (block / reject /
/// drop-oldest backpressure); a single executor thread pulls size- or
/// deadline-triggered micro-batches and drives them through the
/// ShardedAuctionEngine (whose shard phase fans out on the configured
/// ThreadPool). Per-stage latencies — queue wait, auction (plan),
/// settlement, end-to-end — are recorded into log-bucketed histograms, and
/// admission verdicts are counted, so tail latency under load is a measured
/// quantity rather than an offline extrapolation.
///
/// Threading contract: Submit() is safe from any number of producer
/// threads; the engine's mutable state (accounts, strategies, user RNG) is
/// touched only by the executor; telemetry accessors are safe any time
/// (relaxed atomics) but meaningfully consistent after Stop(). The
/// completion hook runs on the executor thread, in settlement (arrival)
/// order. With num_plan_lanes >= 1 the lane workers run only the const,
/// side-effect-free PlanCaptured half on private scratch — capture and
/// settlement stay on the executor, so the single-writer contract above is
/// unchanged (serving_stress_test runs this under TSan).
class AuctionServer {
 public:
  using CompletionFn = std::function<void(const AuctionOutcome&)>;

  AuctionServer(const ServerConfig& config, Workload workload,
                std::vector<std::unique_ptr<BiddingStrategy>> strategies);
  ~AuctionServer();

  AuctionServer(const AuctionServer&) = delete;
  AuctionServer& operator=(const AuctionServer&) = delete;

  /// Installs the per-auction completion hook. Must precede Start().
  void set_on_complete(CompletionFn fn);

  /// Launches the executor thread. Must be called at most once. With
  /// durability configured, first runs restore-then-replay recovery
  /// (checkpoint, then the settlement log's intact suffix; a torn tail is
  /// truncated) and opens the log sink at the recovered sequence — a
  /// recovery error leaves the server unstarted. Without durability, never
  /// fails.
  Status Start();

  /// Closes the ingestion queue, lets the executor drain every admitted
  /// request, joins it, and then flushes the settlement log — every settled
  /// auction is in the OS (and on disk under kGroupFsync/kFsyncEach) when
  /// Stop() returns. Idempotent; also invoked by the destructor.
  void Stop();

  /// Checkpoints the engine to `durability.checkpoint_path`. Call while the
  /// executor is quiescent (before Start() or after Stop()): checkpoints
  /// must snapshot a settlement boundary.
  Status WriteCheckpoint() const;

  /// Admits one query per the backpressure policy. Thread-safe.
  QueuePushResult Submit(Query query);

  // --- Telemetry -----------------------------------------------------------
  /// Stage latencies in microseconds.
  const LatencyHistogram& queue_wait_us() const { return queue_wait_us_; }
  const LatencyHistogram& auction_us() const { return auction_us_; }
  const LatencyHistogram& settlement_us() const { return settlement_us_; }
  const LatencyHistogram& end_to_end_us() const { return end_to_end_us_; }

  /// Clears the four stage histograms (admission counters are untouched) —
  /// the warmup/measured boundary of the load harnesses. Call only while no
  /// request is in flight (e.g. after completed() has caught up with every
  /// submission), otherwise concurrent Record()s may straddle the reset.
  void ResetTelemetry() {
    queue_wait_us_.Reset();
    auction_us_.Reset();
    settlement_us_.Reset();
    end_to_end_us_.Reset();
  }

  /// Admission / completion counters.
  int64_t accepted() const { return queue_.accepted(); }
  int64_t rejected() const { return queue_.rejected(); }
  int64_t dropped_oldest() const { return queue_.dropped_oldest(); }
  int64_t completed() const {
    return completed_.load(std::memory_order_relaxed);
  }
  int64_t batches() const { return batches_.load(std::memory_order_relaxed); }
  /// Epoch-boundary rebalances that actually moved a shard boundary.
  int64_t rebalances() const {
    return rebalances_.load(std::memory_order_relaxed);
  }

  /// The served engine (read after Stop() for settled accounts/revenue).
  const ShardedAuctionEngine& engine() const { return engine_; }
  const ServerConfig& config() const { return config_; }

  // --- Durability telemetry -----------------------------------------------
  /// What Start()'s recovery did (zeroes when durability is off).
  const RecoveryReport& recovery() const { return recovery_; }
  /// Auctions settled since the checkpoint recovery restored (== the replay
  /// cost of a crash right now, in auctions).
  int64_t checkpoint_age() const {
    return engine_.auctions_run() -
           static_cast<int64_t>(recovery_.checkpoint_seq);
  }
  /// Sequence of the last settled auction, readable from any thread — the
  /// read-your-writes token for replicated reads: a client that saw its
  /// write complete passes this as ReadOptions::min_seq (kAtLeastSeq) and
  /// any follower at or past it reflects the write. Monotone; equals
  /// engine().auctions_run() but, unlike it, is safe to read while the
  /// executor settles.
  uint64_t settled_seq() const {
    return settled_seq_.load(std::memory_order_acquire);
  }
  /// First settlement-log append/flush error, if any (OK otherwise). The
  /// executor keeps serving on log errors; callers decide whether a lame
  /// log sink is fatal.
  Status log_status() const;
  /// The log sink, if configured (counters: records appended, commits,
  /// syncs, bytes). Null when durability is off.
  const SettlementLogWriter* log_writer() const { return log_writer_.get(); }

  // --- Observability --------------------------------------------------------
  /// The unified metrics registry: stage histograms, admission/completion
  /// counters, queue depth, per-lane barrier waits, per-shard engine
  /// telemetry, and durability gauges all snapshot through here.
  /// Snapshot()/exporters are safe any time; per-shard and log gauges are
  /// refreshed by the executor at batch boundaries (and once more at
  /// Stop()), so they trail live state by at most one batch.
  const MetricsRegistry& metrics() const { return registry_; }
  MetricsRegistry* mutable_metrics() { return &registry_; }
  /// The pipeline tracer (null when obs.trace.sample_every == 0).
  const Tracer* tracer() const { return tracer_.get(); }
  /// Decoded spans currently in the trace ring, start-ordered (empty when
  /// tracing is off). Export with Tracer::ExportChromeTrace.
  std::vector<TraceEvent> DrainTrace() const {
    return tracer_ != nullptr ? tracer_->Drain() : std::vector<TraceEvent>();
  }

 private:
  void ExecutorLoop();
  /// One epoch == one micro-batch, run as a slot pipeline: every slot is
  /// started (StartSlot) and finished (SettleSlot) in arrival order.
  /// kDeterministicReplay finishes each slot before starting the next;
  /// kBatchedSettlement starts every slot, then finishes every slot.
  void RunBatch(std::vector<ServingRequest>* batch);
  /// Starts epoch slot `i`: with lanes, captures its bids on the executor
  /// and dispatches the pure plan to any idle lane; without, plans it
  /// in-thread (capture + plan on the engine's internal lane).
  void StartSlot(const ServingRequest& r, size_t i);
  /// Lane worker body: plans epoch slot `slot` on lane `lane`'s scratch,
  /// then marks the slot ready for the settler.
  void RunLane(int lane, int64_t slot);
  /// Finishes epoch slot `i`: awaits its plan at the commit barrier (lanes
  /// only), then settles it — histograms, log append, completion hook. The
  /// single settlement path of the server.
  void SettleSlot(const ServingRequest& r, size_t i);
  /// Epoch-boundary rebalance check: runs between RunBatch calls (batch
  /// fully settled, every lane idle), asks the rebalancer whether a check is
  /// due, and applies RebalanceShards under config.rebalance.min_imbalance.
  void MaybeRebalance();
  /// Registers instruments/collectors and constructs the tracer (called from
  /// the constructor; no-ops per ObsConfig).
  void SetupObservability();
  /// Pushes plain (non-atomic) engine and log-writer state — shard stats,
  /// per-lane cache totals, log counters, checkpoint age — into registry
  /// gauges. Executor thread only (batch boundaries + Stop), which is what
  /// keeps the reporter/snapshot side race-free: snapshots read only atomic
  /// gauge words, never the engine's plain state.
  void PublishEngineGauges();

  ServerConfig config_;
  ShardedAuctionEngine engine_;
  ShardRebalancer rebalancer_;
  BoundedQueue<ServingRequest> queue_;

  /// Appends the settled outcome to the log sink (no-op when off); records
  /// the first failure in log_status_. Executor thread only.
  void LogSettlement(const AuctionOutcome& outcome, uint64_t trace_seq);
  /// Keeps the first log error in log_status_.
  void RecordLogStatus(const Status& status);

  CompletionFn on_complete_;
  std::thread executor_;
  bool started_ = false;
  bool stopped_ = false;

  std::unique_ptr<SettlementLogWriter> log_writer_;
  RecoveryReport recovery_;
  /// Last settled sequence (see settled_seq()). Written by the executor in
  /// LogSettlement — which runs for every settled auction, log sink or not.
  std::atomic<uint64_t> settled_seq_{0};
  mutable std::mutex log_status_mu_;
  Status log_status_;  // guarded by log_status_mu_

  LatencyHistogram queue_wait_us_;
  LatencyHistogram auction_us_;
  LatencyHistogram settlement_us_;
  LatencyHistogram end_to_end_us_;
  std::atomic<int64_t> completed_{0};
  std::atomic<int64_t> batches_{0};
  std::atomic<int64_t> rebalances_{0};

  // --- Observability state --------------------------------------------------
  MetricsRegistry registry_;
  std::unique_ptr<Tracer> tracer_;
  std::unique_ptr<MetricsReporter> reporter_;
  /// Admission sequence feeding the deterministic trace sampler (counted
  /// only when tracing is configured).
  std::atomic<uint64_t> admissions_{0};
  /// Interned instruments, null when obs.metrics is false. The per-lane
  /// vectors are indexed by lane id; lane workers touch only their own
  /// (atomic) instruments.
  LatencyHistogram* batch_size_hist_ = nullptr;
  std::vector<LatencyHistogram*> lane_barrier_wait_us_;
  std::vector<Counter*> lane_plans_total_;

  // --- Epoch state: one entry per slot of the open micro-batch ------------
  // Per-slot state is written by exactly one party at a time. Without lanes
  // everything runs on the executor. With lanes, the executor fills
  // captures_[i]/capture_us_[i] before Dispatch(i) (publication via the
  // lane pool's queue mutex); the owning lane fills plans_[i]/plan_us_[i]
  // before MarkReady(i) (publication via the barrier mutex); the executor
  // reads them after AwaitReady(i). No slot is touched concurrently, which
  // is the whole TSan story.
  std::vector<ShardedAuctionEngine::PlannedAuction> plans_;
  /// Planning time per slot, split by where it ran: capture_us_ on the
  /// executor (lanes only), plan_us_ wherever the plan was computed (the
  /// whole PlanAuction without lanes). auction_us records their sum.
  std::vector<uint64_t> capture_us_;
  std::vector<uint64_t> plan_us_;
  std::vector<std::unique_ptr<ShardedAuctionEngine::PlanLane>> lanes_;
  OrderedCommitBarrier settle_barrier_;
  std::vector<ShardedAuctionEngine::CapturedBids> captures_;
  /// Which lane planned each epoch slot — written by the owning lane before
  /// MarkReady, read by the executor after AwaitReady (the barrier mutex
  /// publishes it), attributing barrier waits per lane.
  std::vector<int> slot_lane_;
  /// The batch the open epoch is serving; valid for the whole of RunBatch.
  std::vector<ServingRequest>* epoch_batch_ = nullptr;
  /// Declared last so it is destroyed first: the pool's destructor joins
  /// the lane workers, which may still be finishing a MarkReady on
  /// settle_barrier_ or reading captures_/lanes_ — everything above must
  /// outlive them.
  std::unique_ptr<LanePool> lane_pool_;
};

}  // namespace ssa

#endif  // SSA_SERVING_AUCTION_SERVER_H_
