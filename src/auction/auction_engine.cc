#include "auction/auction_engine.h"

#include <utility>

#include "durability/checkpoint.h"
#include "util/timer.h"

namespace ssa {

void SettleAuction(
    PricingRule pricing, const ClickModel& model,
    const std::vector<Money>& prices,
    std::vector<AdvertiserAccount>* accounts,
    const std::vector<std::unique_ptr<BiddingStrategy>>& strategies,
    Rng* user_rng, AuctionOutcome* outcome) {
  const int k = static_cast<int>(prices.size());
  const int kw = outcome->query.keyword;
  for (SlotIndex j = 0; j < k; ++j) {
    const AdvertiserId i = outcome->wd.allocation.slot_to_advertiser[j];
    if (i < 0) continue;
    UserEvent event;
    event.advertiser = i;
    event.slot = j;
    event.clicked = user_rng->Bernoulli(model.ClickProbability(i, j));
    const double ppc = model.PurchaseProbabilityGivenClick(i, j);
    if (event.clicked && ppc > 0.0) {
      event.purchased = user_rng->Bernoulli(ppc);
    }
    AdvertiserAccount& account = (*accounts)[i];
    if (pricing == PricingRule::kVcg) {
      // Expected lump charge, independent of the realized click.
      event.charged = prices[j];
    } else if (event.clicked) {
      event.charged = prices[j];
    }
    if (event.clicked) {
      // The provider updates ROI inputs "each time a user searches for the
      // keyword and then clicks on the advertiser's ad".
      account.value_gained[kw] += account.value_per_click[kw];
    }
    if (event.charged > 0) {
      account.amount_spent += event.charged;
      account.spent_per_keyword[kw] += event.charged;
    }
    outcome->revenue_charged += event.charged;
    outcome->events.push_back(event);
  }

  // Outcome notifications: programs that received a slot learn about it
  // (and about clicks/purchases) — the Section II-B notification triggers.
  for (const UserEvent& event : outcome->events) {
    strategies[event.advertiser]->OnOutcome(
        outcome->query, (*accounts)[event.advertiser], event.slot,
        event.clicked, event.purchased);
  }
}

AuctionTrajectory::AuctionTrajectory(
    const EngineConfig& config, Workload workload,
    std::vector<std::unique_ptr<BiddingStrategy>> strategies)
    : config_(config),
      workload_(std::move(workload)),
      strategies_(std::move(strategies)),
      query_gen_(workload_.config.num_keywords, config.seed),
      user_rng_(config.seed ^ 0x5eed0f0e125eedULL) {
  SSA_CHECK(strategies_.size() == workload_.accounts.size());
}

const AuctionOutcome& AuctionTrajectory::SettleOutcome() {
  SettleAuction(config_.pricing, *workload_.click_model, outcome_.prices,
                &workload_.accounts, strategies_, &user_rng_, &outcome_);
  ++auctions_run_;
  total_revenue_ += outcome_.revenue_charged;
  return outcome_;
}

void AuctionTrajectory::CaptureCheckpoint(EngineCheckpoint* ckpt) const {
  *ckpt = EngineCheckpoint{};
  ckpt->seq = static_cast<uint64_t>(auctions_run_);
  ckpt->total_revenue = total_revenue_;
  user_rng_.SaveState(ckpt->user_rng);
  ckpt->query_gen = query_gen_.SaveState();
  ckpt->num_advertisers = static_cast<int32_t>(strategies_.size());
  ckpt->num_slots = workload_.config.num_slots;
  ckpt->num_keywords = workload_.config.num_keywords;
  ckpt->accounts = workload_.accounts;
  ckpt->strategy_state.resize(strategies_.size());
  for (size_t i = 0; i < strategies_.size(); ++i) {
    strategies_[i]->SaveState(&ckpt->strategy_state[i]);
  }
  // Keys are indexed by global advertiser id and padded to the population,
  // so the image does not depend on which engine (or shard layout) wrote it
  // nor on how many advertisers its cache has seen yet.
  ckpt->cache_keys = checkpoint_cache_->ExportKeys();
  ckpt->cache_keys.resize(strategies_.size());
}

Status AuctionTrajectory::RestoreCheckpoint(const EngineCheckpoint& ckpt) {
  const size_t n = strategies_.size();
  if (ckpt.num_advertisers != static_cast<int32_t>(n) ||
      ckpt.num_slots != workload_.config.num_slots ||
      ckpt.num_keywords != workload_.config.num_keywords) {
    return Status::InvalidArgument(
        "checkpoint workload shape does not match this engine");
  }
  if (ckpt.accounts.size() != n || ckpt.strategy_state.size() != n) {
    return Status::InvalidArgument("checkpoint population size mismatch");
  }
  for (size_t i = 0; i < n; ++i) {
    SSA_RETURN_IF_ERROR(strategies_[i]->RestoreState(ckpt.strategy_state[i]));
  }
  workload_.accounts = ckpt.accounts;
  user_rng_.RestoreState(ckpt.user_rng);
  query_gen_.RestoreState(ckpt.query_gen);
  auctions_run_ = static_cast<int64_t>(ckpt.seq);
  total_revenue_ = ckpt.total_revenue;
  checkpoint_cache_->PrimeExpectedKeys(ckpt.cache_keys);
  outcome_ = AuctionOutcome{};
  return Status::Ok();
}

Status AuctionTrajectory::WriteCheckpoint(const std::string& path) const {
  EngineCheckpoint ckpt;
  CaptureCheckpoint(&ckpt);
  return WriteCheckpointFile(path, ckpt);
}

Status AuctionTrajectory::RestoreFromCheckpoint(const std::string& path) {
  EngineCheckpoint ckpt;
  SSA_RETURN_IF_ERROR(ReadCheckpointFile(path, &ckpt));
  return RestoreCheckpoint(ckpt);
}

AuctionEngine::AuctionEngine(
    const EngineConfig& config, Workload workload,
    std::vector<std::unique_ptr<BiddingStrategy>> strategies)
    : AuctionTrajectory(config, std::move(workload), std::move(strategies)) {
  bids_.resize(strategies_.size());
  checkpoint_cache_ = &bid_cache_;
}

const AuctionOutcome& AuctionEngine::RunAuction() {
  return RunAuctionOn(query_gen_.Next());
}

const AuctionOutcome& AuctionEngine::RunAuctionOn(const Query& query) {
  const int n = static_cast<int>(strategies_.size());
  outcome_ = AuctionOutcome{};
  outcome_.query = query;

  // --- Step 3: program evaluation (every program, eagerly).
  WallTimer timer;
  for (AdvertiserId i = 0; i < n; ++i) {
    bids_[i].Clear();
    strategies_[i]->MakeBids(outcome_.query, workload_.accounts[i], &bids_[i]);
  }
  outcome_.program_eval_ms = timer.ElapsedMillis();

  // Tables whose content fingerprint is unchanged since the last auction
  // reuse their cached compilation.
  PlanBids(bids_, &bid_cache_, &compiled_view_, &outcome_);

  // --- Step 5: user action simulation, then charging and accounting.
  return SettleOutcome();
}

void AuctionEngine::WhatIfAuction(const Query& query,
                                  AuctionOutcome* outcome) const {
  const int n = static_cast<int>(strategies_.size());
  *outcome = AuctionOutcome{};
  outcome->query = query;

  // Local scratch throughout: the engine's reusable buffers (bids_,
  // bid_cache_, compiled_view_, outcome_) belong to the mutating path.
  WallTimer timer;
  std::vector<BidsTable> bids(n);
  for (AdvertiserId i = 0; i < n; ++i) {
    strategies_[i]->PeekBids(query, workload_.accounts[i], &bids[i]);
  }
  outcome->program_eval_ms = timer.ElapsedMillis();

  CompiledBidsCache cache;
  cache.Reserve(static_cast<size_t>(n));
  std::vector<const CompiledBids*> compiled;
  PlanBids(bids, &cache, &compiled, outcome);
}

void AuctionEngine::PlanBids(const std::vector<BidsTable>& bids,
                             CompiledBidsCache* cache,
                             std::vector<const CompiledBids*>* compiled,
                             AuctionOutcome* outcome) const {
  const int n = static_cast<int>(bids.size());
  const int k = workload_.config.num_slots;
  const ClickModel& model = *workload_.click_model;

  // --- Expected-revenue matrix (Theorem 2 construction) over compiled
  // bids; the build streams over the flat rows.
  WallTimer timer;
  compiled->clear();
  compiled->reserve(n);
  for (AdvertiserId i = 0; i < n; ++i) {
    compiled->push_back(&cache->Get(i, bids[i], k));
  }
  const RevenueMatrix revenue = BuildRevenueMatrixCompiled(*compiled, model);
  outcome->matrix_ms = timer.ElapsedMillis();

  // --- Step 4: winner determination.
  timer.Reset();
  outcome->wd = DetermineWinners(revenue, config_.wd_method);
  outcome->wd_ms = timer.ElapsedMillis();

  // --- Step 6 prep: prices.
  timer.Reset();
  outcome->prices =
      ComputePrices(config_.pricing, revenue, model, outcome->wd.allocation);
  outcome->pricing_ms = timer.ElapsedMillis();
}

}  // namespace ssa
