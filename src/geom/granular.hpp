// Granular discs and their slicing into labeled diameters.
//
// Section 3.2, preprocessing step 2: "each robot r computes the corresponding
// granular g_r, the largest disc of radius R_r centered on r and enclosed in
// [its Voronoi cell] c_r. Each granular is sliced into 2n slices [...] Each
// diameter is labeled from 0 to n-1, the diameter labeled by 0 being aligned
// on the North, the other are numbered in the natural order following the
// clockwise direction."
//
// The asynchronous n-robot protocol (Section 4.2) uses the same object with
// n+1 diameters, the extra one (kappa) aligned with the robot's horizon line.
// This module is agnostic to the count and the reference direction: it turns
// (diameter index, side) into points and classifies observed displacements
// back into (diameter index, side).
#pragma once

#include <cstddef>
#include <optional>

#include "geom/angle.hpp"
#include "geom/vec.hpp"

namespace stig::geom {

/// The two halves of a labeled diameter.
///
/// `positive` is the half at clockwise angle `idx * pi / m` from the
/// reference direction — the "Northern/Eastern/North-Eastern" side in the
/// paper's words, encoding bit 0. `negative` is the opposite half
/// ("Southern/Western/South-Western"), encoding bit 1.
enum class DiameterSide : unsigned char { positive, negative };

/// Flips a side.
[[nodiscard]] constexpr DiameterSide opposite(DiameterSide s) noexcept {
  return s == DiameterSide::positive ? DiameterSide::negative
                                     : DiameterSide::positive;
}

/// Result of classifying a displacement against a sliced granular.
struct SliceFix {
  std::size_t diameter = 0;  ///< Label of the nearest diameter, in [0, m).
  DiameterSide side{};       ///< Which half of that diameter.
};

/// A granular disc sliced into `2 * diameter_count` slices.
///
/// Invariants: `radius > 0`, `diameter_count >= 1`, `reference` is a unit
/// vector (the direction of the positive half of diameter 0 — North for the
/// sense-of-direction protocols, the horizon direction H_r otherwise).
class Granular {
 public:
  Granular(Vec2 center, double radius, std::size_t diameter_count,
           Vec2 reference_direction) noexcept
      : center_(center),
        radius_(radius),
        count_(diameter_count),
        reference_(reference_direction.normalized()) {}

  [[nodiscard]] const Vec2& center() const noexcept { return center_; }
  [[nodiscard]] double radius() const noexcept { return radius_; }
  [[nodiscard]] std::size_t diameter_count() const noexcept { return count_; }
  [[nodiscard]] const Vec2& reference() const noexcept { return reference_; }

  /// Angular width of one slice: `pi / diameter_count`.
  [[nodiscard]] double slice_width() const noexcept {
    return kPi / static_cast<double>(count_);
  }

  /// Unit direction of the given half-diameter.
  [[nodiscard]] Vec2 direction(std::size_t diameter,
                               DiameterSide side) const noexcept {
    double angle =
        static_cast<double>(diameter) * slice_width();
    if (side == DiameterSide::negative) angle += kPi;
    return rotate_clockwise(reference_, angle);
  }

  /// Point at `distance` from the center along the given half-diameter.
  /// `distance` should stay strictly below `radius()` so the robot never
  /// leaves its granular.
  [[nodiscard]] Vec2 point_on(std::size_t diameter, DiameterSide side,
                              double distance) const noexcept {
    return center_ + direction(diameter, side) * distance;
  }

  /// Classifies the displacement `p - center()` to the nearest
  /// half-diameter. Returns nullopt when the displacement is not finite,
  /// when its magnitude is at or below `min_distance` (the point is
  /// indistinguishable from the center), or when its angle to that
  /// half-diameter is not at most `max_error` radians.
  ///
  /// A well-formed sender moves exactly along a half-diameter, so a
  /// genuine signal is ~0 rad off; observers pass a fraction of the slice
  /// half-width as `max_error`. The answer equals the libm
  /// classification (hypot, atan2, llround) bit for bit; it is computed
  /// from the squared magnitude and a bounded-error atan2 except near a
  /// decision boundary (DESIGN.md §12).
  [[nodiscard]] std::optional<SliceFix> classify(const Vec2& p,
                                                 double min_distance,
                                                 double max_error) const
      noexcept;

  /// True when `p` lies inside the granular disc (strictly, minus `eps`).
  [[nodiscard]] bool contains(const Vec2& p, double eps = kEps) const noexcept {
    return dist(p, center_) <= radius_ - eps;
  }

 private:
  Vec2 center_;
  double radius_;
  std::size_t count_;
  Vec2 reference_;
};

}  // namespace stig::geom
