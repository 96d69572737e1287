// Angle utilities with explicit handedness.
//
// The paper's constructions label granular diameters "in the natural order
// following the clockwise direction" — chirality (common handedness) is what
// lets all robots agree on that order. This header centralizes every angular
// computation so that the clockwise convention appears in exactly one place.
#pragma once

#include <cmath>
#include <numbers>

#include "geom/vec.hpp"

namespace stig::geom {

inline constexpr double kPi = std::numbers::pi;
inline constexpr double kTwoPi = 2.0 * std::numbers::pi;

/// Normalizes an angle to the half-open interval [0, 2*pi).
[[nodiscard]] inline double normalize_angle(double a) noexcept {
  a = std::fmod(a, kTwoPi);
  if (a < 0.0) a += kTwoPi;
  // fmod of a tiny negative can round to exactly kTwoPi after the add.
  if (a >= kTwoPi) a -= kTwoPi;
  return a;
}

/// Normalizes an angle to the interval (-pi, pi].
[[nodiscard]] inline double normalize_angle_signed(double a) noexcept {
  a = normalize_angle(a);
  if (a > kPi) a -= kTwoPi;
  return a;
}

/// Counterclockwise angle of vector `v` measured from the +x axis of the
/// global frame, normalized to [0, 2*pi). Precondition: `v` is non-zero.
[[nodiscard]] inline double polar_angle(const Vec2& v) noexcept {
  return normalize_angle(std::atan2(v.y, v.x));
}

/// Clockwise angle from direction `from` to direction `to`, in [0, 2*pi).
///
/// "Clockwise" is the direction a right-handed observer of the standard
/// global frame calls clockwise (negative mathematical rotation). Because
/// every robot in a chiral system shares one handedness, the simulator uses
/// this single global convention and maps per-robot mirrored frames on top
/// of it (see sim/frame.hpp).
[[nodiscard]] inline double clockwise_angle(const Vec2& from,
                                            const Vec2& to) noexcept {
  const double a = std::atan2(cross(to, from), dot(to, from));
  return normalize_angle(a);
}

/// Counterclockwise angle from direction `from` to direction `to`, [0, 2*pi).
[[nodiscard]] inline double counterclockwise_angle(const Vec2& from,
                                                   const Vec2& to) noexcept {
  return normalize_angle(kTwoPi - clockwise_angle(from, to));
}

/// Unit vector obtained by rotating unit direction `from` by `radians`
/// clockwise (global convention).
[[nodiscard]] inline Vec2 rotate_clockwise(const Vec2& from,
                                           double radians) noexcept {
  return from.rotated(-radians);
}

/// Bound the slice filter assumes on |atan2_bounded(y, x) - atan2(y, x)|.
/// The polynomial's own error is 2e-8 (measured 1.4e-8, test_geom_filters
/// holds it 1.5 times below this); the rest is headroom.
inline constexpr double kAtan2Bound = 5e-8;

/// atan2(y, x) in [-pi, pi] to within `kAtan2Bound`, without a libm call:
/// Hastings' odd polynomial for atan on [0, 1] (Abramowitz & Stegun
/// 4.4.49, |error| <= 2e-8) after reducing by octant. Precondition: x and
/// y finite and not both zero (otherwise the result is NaN).
[[nodiscard]] inline double atan2_bounded(double y, double x) noexcept {
  const double ax = std::fabs(x);
  const double ay = std::fabs(y);
  const bool steep = ay > ax;
  const double z = steep ? ax / ay : ay / ax;
  const double z2 = z * z;
  double a =
      z * (1.0 +
           z2 * (-0.3333314528 +
                 z2 * (0.1999355085 +
                       z2 * (-0.1420889944 +
                             z2 * (0.1065626393 +
                                   z2 * (-0.0752896400 +
                                         z2 * (0.0429096138 +
                                               z2 * (-0.0161657367 +
                                                     z2 * 0.0028662257))))))));
  if (steep) a = kPi / 2.0 - a;
  if (std::signbit(x)) a = kPi - a;
  return std::signbit(y) ? -a : a;
}

/// Smallest absolute angular difference between two angles, in [0, pi].
[[nodiscard]] inline double angular_distance(double a, double b) noexcept {
  const double d = std::fabs(normalize_angle_signed(a - b));
  return d;
}

}  // namespace stig::geom
