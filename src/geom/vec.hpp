// Planar vector/point kernel for the stigmergic-robot library.
//
// Everything in the library works in the Euclidean plane; this header
// provides the single value type `Vec2` used both for points (positions of
// robots) and for displacement vectors, plus the handful of primitive
// operations (dot, cross, rotation, normalization) the geometry and protocol
// layers are built from.
#pragma once

#include <bit>
#include <cmath>
#include <compare>
#include <cstdint>
#include <iosfwd>
#include <limits>

namespace stig::geom {

/// Absolute tolerance used by geometric predicates throughout the library.
///
/// All robot coordinates live in O(1)..O(10^3) ranges in the simulations, and
/// slice half-widths are at least `pi / (2(n+1))`, so 1e-9 is many orders of
/// magnitude below any decision threshold a protocol relies on.
inline constexpr double kEps = 1e-9;

/// Returns true when `a` and `b` are equal up to `kEps` (absolute).
[[nodiscard]] constexpr bool nearly_equal(double a, double b,
                                          double eps = kEps) noexcept {
  const double d = a - b;
  return (d < 0 ? -d : d) <= eps;
}

/// Returns true when `a` is zero up to `kEps` (absolute).
[[nodiscard]] constexpr bool nearly_zero(double a, double eps = kEps) noexcept {
  return (a < 0 ? -a : a) <= eps;
}

/// A 2-D vector / point with `double` coordinates.
///
/// `Vec2` is a regular value type: cheap to copy, totally ordered
/// lexicographically (used by the anonymous-with-sense-of-direction naming
/// protocol, which orders robots by their coordinates), and supports the
/// usual linear-algebra operations.
struct Vec2 {
  double x = 0.0;
  double y = 0.0;

  /// Lexicographic order (x first, then y). Positive uniform scaling and
  /// translation by a common vector preserve this order, which is exactly
  /// the invariance the Section 3.3 naming scheme needs.
  friend constexpr auto operator<=>(const Vec2&, const Vec2&) = default;

  constexpr Vec2& operator+=(const Vec2& o) noexcept {
    x += o.x;
    y += o.y;
    return *this;
  }
  constexpr Vec2& operator-=(const Vec2& o) noexcept {
    x -= o.x;
    y -= o.y;
    return *this;
  }
  constexpr Vec2& operator*=(double s) noexcept {
    x *= s;
    y *= s;
    return *this;
  }
  constexpr Vec2& operator/=(double s) noexcept {
    x /= s;
    y /= s;
    return *this;
  }

  friend constexpr Vec2 operator+(Vec2 a, const Vec2& b) noexcept {
    return a += b;
  }
  friend constexpr Vec2 operator-(Vec2 a, const Vec2& b) noexcept {
    return a -= b;
  }
  friend constexpr Vec2 operator*(Vec2 a, double s) noexcept { return a *= s; }
  friend constexpr Vec2 operator*(double s, Vec2 a) noexcept { return a *= s; }
  friend constexpr Vec2 operator/(Vec2 a, double s) noexcept { return a /= s; }
  friend constexpr Vec2 operator-(const Vec2& a) noexcept {
    return Vec2{-a.x, -a.y};
  }

  /// Squared Euclidean norm; preferred over `norm()` where a comparison
  /// suffices because it avoids the square root.
  [[nodiscard]] constexpr double norm2() const noexcept {
    return x * x + y * y;
  }
  /// Euclidean norm.
  [[nodiscard]] double norm() const noexcept { return std::hypot(x, y); }

  /// Unit vector in the same direction. Precondition: `norm() > 0`; a zero
  /// vector is returned unchanged (callers guard with `nearly_zero`).
  [[nodiscard]] Vec2 normalized() const noexcept {
    const double n = norm();
    return n > 0.0 ? Vec2{x / n, y / n} : *this;
  }

  /// Counterclockwise perpendicular (rotation by +90 degrees in the standard
  /// mathematical orientation of the global frame).
  [[nodiscard]] constexpr Vec2 perp_ccw() const noexcept {
    return Vec2{-y, x};
  }
  /// Clockwise perpendicular (rotation by -90 degrees).
  [[nodiscard]] constexpr Vec2 perp_cw() const noexcept { return Vec2{y, -x}; }

  /// Rotation by `radians` counterclockwise around the origin.
  [[nodiscard]] Vec2 rotated(double radians) const noexcept {
    const double c = std::cos(radians);
    const double s = std::sin(radians);
    return Vec2{c * x - s * y, s * x + c * y};
  }
};

/// Dot product.
[[nodiscard]] constexpr double dot(const Vec2& a, const Vec2& b) noexcept {
  return a.x * b.x + a.y * b.y;
}

/// 2-D cross product (z-component of the 3-D cross product). Positive when
/// `b` lies counterclockwise of `a` in the standard orientation.
[[nodiscard]] constexpr double cross(const Vec2& a, const Vec2& b) noexcept {
  return a.x * b.y - a.y * b.x;
}

/// Euclidean distance between two points.
[[nodiscard]] inline double dist(const Vec2& a, const Vec2& b) noexcept {
  return (a - b).norm();
}

/// Squared Euclidean distance between two points.
[[nodiscard]] constexpr double dist2(const Vec2& a, const Vec2& b) noexcept {
  return (a - b).norm2();
}

/// Relative half-width of the band around r^2 inside which `dist_cmp`
/// defers to hypot. In the normal range a squared norm is within a
/// relative 3 * 2^-53 of the exact one and hypot within 2^-52 (glibc:
/// < 1 ulp), so the band is over 10^3 times the rounding error of either
/// side.
inline constexpr double kDistBand = 0x1p-40;

/// True when a squared norm lies in the range where `kDistBand` covers
/// its rounding error: normal and finite (false for NaN).
[[nodiscard]] constexpr bool in_dist_band_range(double s2) noexcept {
  return s2 >= std::numeric_limits<double>::min() &&
         s2 <= std::numeric_limits<double>::max();
}

/// Exactly `dist(a, b) <=> r`, NaN cases included, without the hypot call
/// where the squared distance decides: a zero displacement, or squares of
/// both sides in the normal range with the squared distance outside the
/// `kDistBand` band around r^2. Inside the band, for r <= 0, and for
/// squares outside the normal range it returns the hypot comparison
/// itself (DESIGN.md §12).
[[nodiscard]] inline std::partial_ordering dist_cmp(const Vec2& a,
                                                    const Vec2& b,
                                                    double r) noexcept {
  const Vec2 d = a - b;
  if (d.x == 0.0 && d.y == 0.0) return 0.0 <=> r;  // hypot(+-0, +-0) = +0.
  const double s2 = d.norm2();
  const double r2 = r * r;
  if (r > 0.0 && in_dist_band_range(s2) && in_dist_band_range(r2)) {
    if (s2 > r2 * (1.0 + kDistBand)) return std::partial_ordering::greater;
    if (s2 < r2 * (1.0 - kDistBand)) return std::partial_ordering::less;
  }
  return d.norm() <=> r;
}

/// Midpoint of the segment [a, b].
[[nodiscard]] constexpr Vec2 midpoint(const Vec2& a, const Vec2& b) noexcept {
  return Vec2{(a.x + b.x) / 2.0, (a.y + b.y) / 2.0};
}

/// Bit-for-bit equality: what memos of positions key on. `==` on doubles
/// is too loose (-0.0 equals +0.0, and a signed zero can steer atan2) and
/// misses NaN.
[[nodiscard]] constexpr bool same_bits(const Vec2& a,
                                       const Vec2& b) noexcept {
  using Bits = std::uint64_t;
  return std::bit_cast<Bits>(a.x) == std::bit_cast<Bits>(b.x) &&
         std::bit_cast<Bits>(a.y) == std::bit_cast<Bits>(b.y);
}

/// Componentwise approximate equality with tolerance `eps`.
[[nodiscard]] constexpr bool nearly_equal(const Vec2& a, const Vec2& b,
                                          double eps = kEps) noexcept {
  return nearly_equal(a.x, b.x, eps) && nearly_equal(a.y, b.y, eps);
}

/// Orientation predicate: sign of the signed area of triangle (a, b, c).
/// > 0: counterclockwise, < 0: clockwise, 0 (within `kEps`): collinear.
[[nodiscard]] constexpr double orient(const Vec2& a, const Vec2& b,
                                      const Vec2& c) noexcept {
  return cross(b - a, c - a);
}

std::ostream& operator<<(std::ostream& os, const Vec2& v);

}  // namespace stig::geom
