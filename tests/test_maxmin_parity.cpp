// Randomized parity tests: the incremental filling engine behind
// solveMaxMinFair must reproduce the retained reference implementation
// (solveMaxMinFairReference, the original per-round rebuild) on every
// network, within the solver tolerance. Six random families x many seeds
// plus the seven paper topologies (287 networks) cover the closed-form
// path, mixed session types, the weighted (non-unit) path, and the
// nonlinear bisection path.
//
// Tolerance parity alone lets both solvers drift together, so the same
// corpus is also pinned absolutely: one golden FNV-1a digest per family
// over the raw IEEE-754 bits of every receiver rate plus the round count.
// Any change to the engine's arithmetic or freeze order moves a digest.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "fairness/maxmin.hpp"
#include "net/snapshot.hpp"
#include "net/topologies.hpp"
#include "util/rng.hpp"

namespace mcfair::fairness {
namespace {

using net::Network;

// Rates agree within `tol`; both solvers are deterministic, so this is
// run once per network. The shared engine instance is rebound across
// networks, which also exercises workspace reuse on changing shapes.
void expectParity(const Network& n, MaxMinSolver& engine, double tol,
                  const std::string& label) {
  const MaxMinResult& incremental = engine.solve(n);
  const MaxMinResult reference = solveMaxMinFairReference(n);
  for (const auto ref : n.receiverRefs()) {
    EXPECT_NEAR(incremental.allocation.rate(ref), reference.allocation.rate(ref),
                tol)
        << label << ": receiver (" << ref.session << "," << ref.receiver
        << ")";
  }
  for (std::uint32_t j = 0; j < n.linkCount(); ++j) {
    EXPECT_NEAR(incremental.usage.linkRate[j], reference.usage.linkRate[j],
                tol * 10)
        << label << ": link " << j;
  }
  EXPECT_EQ(incremental.rounds, reference.rounds) << label;
}

// A generator complementing net::randomNetwork: arbitrary link-set
// data-paths (not tree-routed), optional non-unit weights, optional
// finite sigma. Exercises path shapes the routed generator cannot.
Network randomLinkSetNetwork(util::Rng& rng, bool randomWeights) {
  Network n;
  const std::size_t links = 3 + rng.below(8);
  std::vector<graph::LinkId> ids;
  for (std::size_t j = 0; j < links; ++j) {
    ids.push_back(n.addLink(rng.uniform(1.0, 12.0)));
  }
  const std::size_t sessions = 1 + rng.below(5);
  for (std::size_t i = 0; i < sessions; ++i) {
    net::Session s;
    s.type = rng.bernoulli(0.4) ? net::SessionType::kSingleRate
                                : net::SessionType::kMultiRate;
    if (rng.bernoulli(0.3)) s.maxRate = rng.uniform(0.5, 6.0);
    const std::size_t receivers = 1 + rng.below(4);
    const double sharedWeight = rng.uniform(0.25, 4.0);
    for (std::size_t k = 0; k < receivers; ++k) {
      std::vector<graph::LinkId> path;
      const std::size_t hops = 1 + rng.below(std::min<std::size_t>(links, 4));
      for (std::size_t h = 0; h < hops; ++h) {
        path.push_back(ids[rng.below(links)]);
      }
      auto r = net::makeReceiver(std::move(path));
      if (randomWeights) {
        // Single-rate sessions require uniform weights.
        r.weight = s.type == net::SessionType::kSingleRate
                       ? sharedWeight
                       : rng.uniform(0.25, 4.0);
      }
      s.receivers.push_back(std::move(r));
    }
    n.addSession(std::move(s));
  }
  return n;
}

Network routedNetwork(std::uint64_t seed) {
  util::Rng rng(seed);
  net::RandomNetworkOptions opts;
  opts.sessions = 2 + seed % 5;
  opts.singleRateProbability = 0.4;
  return net::randomNetwork(rng, opts);
}

Network linkSetNetwork(std::uint64_t seed) {
  util::Rng rng(seed);
  return randomLinkSetNetwork(rng, /*randomWeights=*/false);
}

Network weightedNetwork(std::uint64_t seed) {
  util::Rng rng(seed);
  return randomLinkSetNetwork(rng, /*randomWeights=*/true);
}

// Non-unit weights AND a nonlinear v_i together: the bisection path with
// weighted upper bounds (capacity/weight keys) and weighted active rates
// in the group gathers.
Network weightedNonlinearNetwork(std::uint64_t seed) {
  util::Rng rng(seed);
  Network n = randomLinkSetNetwork(rng, /*randomWeights=*/true);
  const auto fn = std::make_shared<const net::RandomJoinExpected>(80.0);
  for (std::size_t i = 0; i < n.sessionCount(); ++i) {
    if (i % 2 == 0) n = n.withLinkRateFunction(i, fn);
  }
  return n;
}

Network nonlinearNetwork(std::uint64_t seed) {
  util::Rng rng(seed);
  net::RandomNetworkOptions opts;
  opts.sessions = 2 + seed % 4;
  opts.singleRateProbability = 0.3;
  Network n = net::randomNetwork(rng, opts);
  // RandomJoinExpected is monotone but not rate-linear: it forces the
  // bisection path on every session it is applied to.
  const auto fn = std::make_shared<const net::RandomJoinExpected>(50.0);
  for (std::size_t i = 0; i < n.sessionCount(); ++i) {
    if (i % 2 == 0) n = n.withLinkRateFunction(i, fn);
  }
  return n;
}

Network constFactorNetwork(std::uint64_t seed) {
  util::Rng rng(seed);
  net::RandomNetworkOptions opts;
  opts.sessions = 2 + seed % 4;
  Network n = net::randomNetwork(rng, opts);
  for (std::size_t i = 0; i < n.sessionCount(); ++i) {
    if (i % 2 == 1) {
      n = n.withLinkRateFunction(
          i, std::make_shared<const net::ConstantFactor>(
                 rng.uniform(1.0, 2.5)));
    }
  }
  return n;
}

// The paper's figures plus the Section 4 single-bottleneck shape; the
// "seed" is the topology index.
Network paperNetwork(std::uint64_t index) {
  switch (index) {
    case 0: return net::fig1Network();
    case 1: return net::fig2Network(true);
    case 2: return net::fig2Network(false);
    case 3: return net::fig3aNetwork(false);
    case 4: return net::fig3bNetwork(false);
    case 5: return net::fig4Network();
    default: return net::singleBottleneckNetwork(64, 6, 1000.0, 2.0);
  }
}

// One corpus family: the networks make(first) .. make(end - 1).
struct Family {
  const char* name;
  std::uint64_t first;
  std::uint64_t end;
  Network (*make)(std::uint64_t seed);
};

constexpr Family kRouted{"routed", 1, 81, &routedNetwork};
constexpr Family kLinkSet{"linkset", 100, 160, &linkSetNetwork};
constexpr Family kWeighted{"weighted", 200, 240, &weightedNetwork};
constexpr Family kWeightedNonlinear{"weighted-nonlinear", 500, 540,
                                    &weightedNonlinearNetwork};
constexpr Family kNonlinear{"nonlinear", 300, 330, &nonlinearNetwork};
constexpr Family kConstFactor{"constfactor", 400, 430, &constFactorNetwork};
constexpr Family kPaper{"paper", 0, 7, &paperNetwork};

void expectFamilyParity(const Family& family, double tol) {
  MaxMinSolver engine;
  for (std::uint64_t seed = family.first; seed < family.end; ++seed) {
    expectParity(family.make(seed), engine, tol,
                 std::string(family.name) + " #" + std::to_string(seed));
  }
}

TEST(MaxMinParity, RoutedRandomNetworks) { expectFamilyParity(kRouted, 1e-6); }

TEST(MaxMinParity, LinkSetNetworks) { expectFamilyParity(kLinkSet, 1e-6); }

TEST(MaxMinParity, WeightedNetworks) { expectFamilyParity(kWeighted, 1e-6); }

TEST(MaxMinParity, WeightedNonlinearNetworks) {
  expectFamilyParity(kWeightedNonlinear, 1e-6);
}

TEST(MaxMinParity, NonlinearBisectionPath) {
  expectFamilyParity(kNonlinear, 1e-6);
}

TEST(MaxMinParity, ConstantFactorRedundancy) {
  expectFamilyParity(kConstFactor, 1e-6);
}

TEST(MaxMinParity, PaperTopologies) { expectFamilyParity(kPaper, 1e-9); }

// FNV-1a over every network's receiver rates (raw IEEE-754 bits, flat
// receiver order) followed by its round count, across the whole family.
std::uint64_t familyDigest(const Family& family) {
  MaxMinSolver engine;
  std::string bytes;
  for (std::uint64_t seed = family.first; seed < family.end; ++seed) {
    const Network n = family.make(seed);
    const MaxMinResult& r = engine.solve(n);
    for (const auto ref : n.receiverRefs()) {
      net::snapshotio::putF64(bytes, r.allocation.rate(ref));
    }
    net::snapshotio::putU64(bytes, r.rounds);
  }
  return net::snapshotio::fnv1a(bytes.data(), bytes.size());
}

TEST(MaxMinGolden, FamilyDigestsArePinned) {
  struct Pin {
    const Family& family;
    std::uint64_t digest;
  };
  const Pin pins[] = {
      {kRouted, 0xd2da3647020f69fcull},
      {kLinkSet, 0x444daa83a375ba41ull},
      {kWeighted, 0x0980581ea9d962aaull},
      {kWeightedNonlinear, 0x80773d6ed12255a2ull},
      {kNonlinear, 0x692b15b7bb7e9514ull},
      {kConstFactor, 0x6d0a79b9e7464242ull},
      {kPaper, 0xf244b12ce11dd7a8ull},
  };
  for (const Pin& pin : pins) {
    const std::uint64_t got = familyDigest(pin.family);
    EXPECT_EQ(got, pin.digest)
        << pin.family.name << " digest is 0x" << std::hex << got;
  }
}

// Fault churn (down / degrade / repair via Network::setCapacity): a warm
// solver takes the O(links) capacity-refresh rebind on every step, and
// its re-solve must equal a fresh solver's full-bind solve bit for bit,
// including zero-capacity (failed) links that sever receivers outright.
TEST(MaxMinParity, CapacityRefreshResolveMatchesFreshBind) {
  util::Rng rng(4242);
  net::RandomNetworkOptions opts;
  opts.sessions = 6;
  Network n = net::randomNetwork(rng, opts);
  std::vector<double> base;
  for (std::uint32_t j = 0; j < n.linkCount(); ++j) {
    base.push_back(n.capacity(graph::LinkId{j}));
  }
  MaxMinSolver warm;
  (void)warm.solve(n);
  for (int step = 0; step < 24; ++step) {
    const graph::LinkId l{
        static_cast<std::uint32_t>(rng.below(n.linkCount()))};
    const double cap = step % 3 == 0   ? 0.0                  // down
                       : step % 3 == 1 ? 0.5 * base[l.value]  // degrade
                                       : base[l.value];       // repair
    n.setCapacity(l, cap);
    const MaxMinResult& got = warm.solve(n);
    MaxMinSolver fresh;
    const MaxMinResult& want = fresh.solve(n);
    const std::string ctx = "churn step " + std::to_string(step);
    EXPECT_EQ(got.rounds, want.rounds) << ctx;
    for (const auto ref : n.receiverRefs()) {
      EXPECT_EQ(got.allocation.rate(ref), want.allocation.rate(ref))
          << ctx << ": receiver (" << ref.session << "," << ref.receiver
          << ")";
    }
    for (std::uint32_t j = 0; j < n.linkCount(); ++j) {
      EXPECT_EQ(got.usage.linkRate[j], want.usage.linkRate[j])
          << ctx << ": link " << j;
    }
  }
}

}  // namespace
}  // namespace mcfair::fairness
