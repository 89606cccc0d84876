// Session link-rate (redundancy) functions v_i — Section 3.1 of the paper.
//
// Given the set of rates {a_{i,k} : r_{i,k} in R_{i,j}} of a session's
// receivers whose data-paths traverse link l_j, a LinkRateFunction returns
// the bandwidth u_{i,j} the session consumes on that link. The paper's
// Section 2 assumes the efficient value u_{i,j} = max{a_{i,k}}; Section 3
// generalizes to arbitrary v_i with v_i(X) >= max(X) to model the
// redundancy of imperfectly-coordinated layered join/leave schedules.
//
// Implementations must be (a) monotone non-decreasing in every rate and
// (b) bounded below by max(X); the max-min solver's bisection relies on
// monotonicity, and the paper's model requires u_{i,j} >= a_{i,k}.
#pragma once

#include <memory>
#include <span>
#include <string>

namespace mcfair::net {

/// Abstract session link-rate function v_i (Section 3.1).
class LinkRateFunction {
 public:
  virtual ~LinkRateFunction() = default;

  /// Bandwidth used on a link by a session whose receivers crossing that
  /// link have the given rates. `rates` is non-empty; all entries >= 0.
  /// Implementations must be safe for concurrent linkRate() calls
  /// (stateless, or internally synchronized): one instance is shared by
  /// every network that uses it, and those networks may be solved on
  /// several threads at once — sim::SweepDriver's grid cells run on
  /// worker-pool executors, and solveMaxMinFair keeps one solver per
  /// calling thread. Every function shipped here is immutable after
  /// construction and trivially satisfies this.
  virtual double linkRate(std::span<const double> rates) const = 0;

  /// The redundancy of the function for a given rate set:
  /// v(X) / max(X) (Definition 3). Returns 1 for an all-zero rate set.
  double redundancy(std::span<const double> rates) const;
};

/// The efficient (Section 2) link rate: u = max(X); redundancy 1.
class EfficientMax final : public LinkRateFunction {
 public:
  double linkRate(std::span<const double> rates) const override;
};

/// Constant-factor redundancy v (used by Figure 4, Figure 6 and Lemma 4):
/// u = v * max(X) when the link is shared by two or more of the session's
/// receivers, u = max(X) when a single receiver uses it (redundancy arises
/// from imperfect coordination *between* receivers, so a solo receiver's
/// link is always efficient).
class ConstantFactor final : public LinkRateFunction {
 public:
  /// `factor` >= 1.
  explicit ConstantFactor(double factor);

  double linkRate(std::span<const double> rates) const override;
  double factor() const noexcept { return factor_; }

 private:
  double factor_;
};

/// The expected link rate under uncoordinated (random) joins within a
/// single layer of aggregate rate sigma — the Appendix B closed form:
///   E[U] = sigma * (1 - prod_t (1 - a_t / sigma)).
/// Requires every rate <= sigma.
class RandomJoinExpected final : public LinkRateFunction {
 public:
  /// `sigma` > 0 is the layer transmission rate.
  explicit RandomJoinExpected(double sigma);

  double linkRate(std::span<const double> rates) const override;
  double sigma() const noexcept { return sigma_; }

 private:
  double sigma_;
};

/// Shared-ownership handle used by Session; EfficientMax by default.
using LinkRateFunctionPtr = std::shared_ptr<const LinkRateFunction>;

/// The process-wide EfficientMax instance.
LinkRateFunctionPtr efficientMax();

/// A named, one-parameter link-rate family — the serializable handle the
/// netfile format uses. The registry:
///
///   family       param            instantiates
///   "efficient"  ignored          (none: Session's default, u = max X)
///   "constant"   factor >= 1      ConstantFactor(factor)
///   "randomjoin" sigma > 0        RandomJoinExpected(sigma)
struct LinkRateSpec {
  std::string family = "efficient";
  double param = 1.0;

  bool efficient() const noexcept { return family == "efficient"; }
  friend bool operator==(const LinkRateSpec&, const LinkRateSpec&) = default;
};

/// Instantiates a registry family; "efficient" yields null (Session
/// treats a null linkRateFn as the efficient max). Throws
/// util::PreconditionError on an unknown family name or an out-of-range
/// parameter.
LinkRateFunctionPtr makeLinkRateFunction(const LinkRateSpec& spec);

/// The inverse: recovers the LinkRateSpec of a function instantiated by
/// makeLinkRateFunction (null and EfficientMax both map back to
/// "efficient"). Throws util::PreconditionError for a function outside
/// the named families — i.e. one the text format cannot express.
LinkRateSpec describeLinkRateFunction(const LinkRateFunction* fn);

}  // namespace mcfair::net
