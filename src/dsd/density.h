// Exact motif densities. rho(S, Psi) = mu(S, Psi) / |S| is a ratio of two
// integers; the exact solvers search over these fractions (each guess is
// the density of a measured vertex set) so comparisons and the flow
// networks they parameterise stay in integer arithmetic.
#ifndef DSD_DSD_DENSITY_H_
#define DSD_DSD_DENSITY_H_

#include <compare>
#include <cstdint>
#include <numeric>

namespace dsd {

/// The fraction instances / vertices (vertices >= 1); Of() builds it in
/// lowest terms.
struct Density {
  uint64_t instances = 0;
  uint64_t vertices = 1;

  /// instances / vertices reduced; vertices must be >= 1.
  static Density Of(uint64_t instances, uint64_t vertices) {
    const uint64_t g = std::gcd(instances, vertices);
    return {instances / g, vertices / g};
  }

  /// The smallest integer >= the fraction: the core order a density
  /// lower bound locates the optimum in (Lemma 7).
  uint64_t Ceil() const { return (instances + vertices - 1) / vertices; }

  // Compared as rationals (cross-multiplied in 128 bits), so equal values
  // compare equal whether or not they are reduced.
  friend bool operator==(const Density& a, const Density& b) {
    return (a <=> b) == 0;
  }
  friend std::strong_ordering operator<=>(const Density& a,
                                          const Density& b) {
    return static_cast<unsigned __int128>(a.instances) * b.vertices <=>
           static_cast<unsigned __int128>(b.instances) * a.vertices;
  }
};

}  // namespace dsd

#endif  // DSD_DSD_DENSITY_H_
