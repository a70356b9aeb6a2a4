#ifndef SSA_AUCTION_AUCTION_ENGINE_H_
#define SSA_AUCTION_AUCTION_ENGINE_H_

#include <memory>
#include <string>
#include <vector>

#include "auction/pricing.h"
#include "auction/query_gen.h"
#include "auction/workload.h"
#include "core/compiled_bids.h"
#include "core/winner_determination.h"
#include "strategy/strategy.h"
#include "util/common.h"

namespace ssa {

struct EngineCheckpoint;

/// What happened to one filled slot after the page was served.
struct UserEvent {
  AdvertiserId advertiser = -1;
  SlotIndex slot = kNoSlot;
  bool clicked = false;
  bool purchased = false;
  /// Amount actually charged for this event (per-click price on click, or
  /// the expected VCG lump charge).
  Money charged = 0;
};

/// Full record of one auction, including the per-phase timings the Figure
/// 12/13 harnesses aggregate.
struct AuctionOutcome {
  Query query;
  WdResult wd;
  /// Per-slot charge for the allocation (GSP per-click or VCG lump) — what
  /// the settlement log persists alongside the realized events.
  std::vector<Money> prices;
  std::vector<UserEvent> events;  // one per filled slot, in slot order
  Money revenue_charged = 0;

  double program_eval_ms = 0;  // Step 3: running the bidding programs
  double matrix_ms = 0;        // building the expected-revenue matrix
  double wd_ms = 0;            // Step 4 proper: the matching / LP
  double pricing_ms = 0;       // Step 6
  /// Provider-side processing time per auction (the quantity Figures 12/13
  /// plot): program evaluation + matrix + winner determination + pricing.
  double ProcessingMs() const {
    return program_eval_ms + matrix_ms + wd_ms + pricing_ms;
  }
};

/// Engine configuration: which winner-determination method runs (LP, H, RH)
/// and which pricing rule charges the winners.
struct EngineConfig {
  WdMethod wd_method = WdMethod::kReducedHungarian;
  PricingRule pricing = PricingRule::kGeneralizedSecondPrice;
  /// Seed for the query stream and user-behavior simulation (independent of
  /// the workload seed so populations and traffic vary separately).
  uint64_t seed = 42;
};

/// Steps 5/6 of the lifecycle, shared by AuctionEngine and
/// ShardedAuctionEngine: simulates user behavior for every filled slot of
/// outcome->wd.allocation, charges winners per `pricing`, updates accounts,
/// and delivers the Section II-B outcome notifications. Appends one
/// UserEvent per filled slot (in slot order) and accumulates
/// outcome->revenue_charged; `user_rng` advances exactly once per
/// click/purchase draw, so equal seeds yield bitwise-equal trajectories.
void SettleAuction(PricingRule pricing, const ClickModel& model,
                   const std::vector<Money>& prices,
                   std::vector<AdvertiserAccount>* accounts,
                   const std::vector<std::unique_ptr<BiddingStrategy>>& strategies,
                   Rng* user_rng, AuctionOutcome* outcome);

/// The state one auction trajectory advances, shared by AuctionEngine and
/// ShardedAuctionEngine: the workload and its accounts, the strategies, the
/// query stream and user RNG (both seeded from EngineConfig::seed), the
/// auction counter, the revenue accumulator and the last settled outcome.
/// It owns the code over exactly that state — the settle tail, the
/// accessors and checkpoint capture/restore — so the two engines differ
/// only in how they plan an auction (bids, compile, matrix, winner
/// determination, prices) and cannot drift apart in what they persist.
class AuctionTrajectory {
 public:
  AuctionTrajectory(const AuctionTrajectory&) = delete;
  AuctionTrajectory& operator=(const AuctionTrajectory&) = delete;

  const std::vector<AdvertiserAccount>& accounts() const {
    return workload_.accounts;
  }
  const Workload& workload() const { return workload_; }
  const AuctionOutcome& last_outcome() const { return outcome_; }
  int64_t auctions_run() const { return auctions_run_; }
  Money total_revenue() const { return total_revenue_; }

  /// Durability hooks (src/durability/): snapshot / rewind the complete
  /// trajectory state — accounts, both RNG streams, auction counter, revenue
  /// accumulator, strategy blobs, compiled-bids cache keys (one per
  /// advertiser, by global id). An engine restored from a checkpoint
  /// continues bitwise-identically to the uninterrupted run. The image does
  /// not depend on which engine or shard layout wrote it, so either engine
  /// restores the other's checkpoints. Restore requires an engine built from
  /// the same workload shape and strategy lineup and fails without partial
  /// effects on shape mismatches (strategy-blob errors surface per
  /// strategy).
  void CaptureCheckpoint(EngineCheckpoint* ckpt) const;
  Status RestoreCheckpoint(const EngineCheckpoint& ckpt);
  /// File forms: versioned, CRC-guarded, atomically replaced on write.
  Status WriteCheckpoint(const std::string& path) const;
  Status RestoreFromCheckpoint(const std::string& path);

 protected:
  AuctionTrajectory(const EngineConfig& config, Workload workload,
                    std::vector<std::unique_ptr<BiddingStrategy>> strategies);

  /// Steps 5/6 on outcome_, whose query, allocation and prices the engine
  /// has planned: simulates user actions, charges winners, updates accounts,
  /// delivers outcome notifications, and folds the auction into the counter
  /// and revenue totals.
  const AuctionOutcome& SettleOutcome();

  EngineConfig config_;
  Workload workload_;
  std::vector<std::unique_ptr<BiddingStrategy>> strategies_;
  QueryGenerator query_gen_;
  Rng user_rng_;
  AuctionOutcome outcome_;
  int64_t auctions_run_ = 0;
  Money total_revenue_ = 0;
  /// The engine's compiled-bids cache whose keys checkpoints persist and
  /// restores prime; set by the derived constructor (engines are neither
  /// copied nor moved, so the pointer stays valid).
  CompiledBidsCache* checkpoint_cache_ = nullptr;
};

/// The eager auction engine: every advertiser's bidding program runs on
/// every auction (the baseline Section IV improves on). One RunAuction()
/// performs the full lifecycle — user search, program evaluation, winner
/// determination, user action simulation, pricing and accounting. It is the
/// serial oracle the sharded engine and the serving stack are checked
/// against, so its planning never goes through shard code.
///
/// The RHTALU engine (strategy/logical_roi.h) implements the same lifecycle
/// with the Threshold Algorithm + logical updates and is observably
/// equivalent given equal seeds.
class AuctionEngine : public AuctionTrajectory {
 public:
  AuctionEngine(const EngineConfig& config, Workload workload,
                std::vector<std::unique_ptr<BiddingStrategy>> strategies);

  /// Runs one complete auction on the next internally generated query and
  /// returns its record.
  const AuctionOutcome& RunAuction();

  /// Runs one complete auction on an externally supplied query (the serving
  /// subsystem's ingestion entry: the caller owns arrival order and the
  /// query's `time` stamp). RunAuction() is exactly
  /// RunAuctionOn(query_gen.Next()), so a caller feeding the same generated
  /// sequence reproduces the internal stream bitwise.
  const AuctionOutcome& RunAuctionOn(const Query& query);

  /// The provider-side half of one auction as a *pure read*: programs run
  /// via PeekBids (no strategy-state advance), compilation/matrix/winner
  /// determination/pricing go through caller-invisible local scratch, and
  /// no account, RNG, counter, or cache state moves. `outcome->events`
  /// stays empty and revenue_charged 0 — settlement is exactly the part a
  /// what-if must not do. Serial with any mutating call on this engine
  /// (PeekBids' default transiently mutates strategy state); the follower
  /// read path holds its apply mutex across this.
  void WhatIfAuction(const Query& query, AuctionOutcome* outcome) const;

  /// Compiled-bids cache stats: strategies usually re-emit identical tables
  /// for a keyword, so most auctions skip recompilation entirely.
  const CompiledBidsCache& bid_cache() const { return bid_cache_; }

 private:
  /// The plan step both RunAuctionOn and WhatIfAuction run on emitted
  /// `bids`: compile through `cache`, build the expected-revenue matrix,
  /// determine winners and price them into `*outcome` (matrix_ms, wd_ms and
  /// pricing_ms timed). Writes only `cache`, `compiled` and `*outcome`.
  void PlanBids(const std::vector<BidsTable>& bids, CompiledBidsCache* cache,
                std::vector<const CompiledBids*>* compiled,
                AuctionOutcome* outcome) const;

  std::vector<BidsTable> bids_;  // reused across auctions
  /// Compiled form of bids_, cached across auctions keyed on content
  /// fingerprint (strategies that leave a table unchanged hit the cache).
  CompiledBidsCache bid_cache_;
  std::vector<const CompiledBids*> compiled_view_;  // reused across auctions
};

}  // namespace ssa

#endif  // SSA_AUCTION_AUCTION_ENGINE_H_
