// Packet-loss models for simulated links.
//
// Section 4 models loss (or ECN marking) as a Bernoulli process, arguing
// it is accurate when many flows share each link [21]. BernoulliLoss is
// what every paper experiment uses; GilbertElliottLoss adds the bursty
// (temporally correlated) alternative from the measurement literature the
// paper cites, for sensitivity studies beyond the paper.
#pragma once

#include <cstddef>
#include <vector>

#include "util/rng.hpp"

namespace mcfair::sim {

/// Per-packet loss decision for one link.
class LossModel {
 public:
  virtual ~LossModel() = default;

  /// Draws whether the next packet on this link is lost.
  virtual bool lose(util::Rng& rng) = 0;

  /// Long-run average loss probability of the model.
  virtual double averageLossRate() const noexcept = 0;
};

/// Independent loss with fixed probability p.
class BernoulliLoss final : public LossModel {
 public:
  explicit BernoulliLoss(double p);

  bool lose(util::Rng& rng) override;
  double averageLossRate() const noexcept override { return p_; }

 private:
  double p_;
};

/// Two-state Gilbert-Elliott loss: a Markov chain alternates between a
/// Good state (loss probability pGood) and a Bad state (pBad), with
/// per-packet transition probabilities goodToBad / badToGood. Stationary
/// loss rate = (b*pGood + g*pBad)/(g+b) with g=goodToBad, b=badToGood.
class GilbertElliottLoss final : public LossModel {
 public:
  GilbertElliottLoss(double goodToBad, double badToGood, double pGood,
                     double pBad);

  bool lose(util::Rng& rng) override;
  double averageLossRate() const noexcept override;

  bool inBadState() const noexcept { return bad_; }

 private:
  double goodToBad_;
  double badToGood_;
  double pGood_;
  double pBad_;
  bool bad_ = false;
};

/// Splits one independent RNG stream per link off `root`: one split() per
/// link, in ascending link-id order. This is the loss-stream layout the
/// closed-loop engines pin: because every link owns its stream, the draw a
/// link makes for its n-th admitted packet depends only on that link's own
/// admission history — never on how packets on OTHER links interleave with
/// it. That is what lets the component-parallel engine run link-disjoint
/// session components concurrently yet reproduce serial runs bit-exactly,
/// and it keeps the streams themselves pinned for serial replay (the
/// regression test in tests/test_loss.cpp hardcodes their head values).
std::vector<util::Rng> splitLossStreams(util::Rng& root,
                                        std::size_t linkCount);

}  // namespace mcfair::sim
