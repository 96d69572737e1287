// The robot program interface and what a robot can observe.
//
// Per the SSM: an active robot observes the instantaneous configuration
// (positions of all robots, in its own local coordinate system), computes a
// destination in that local system, and moves toward it by at most sigma_r.
// Robots are non-oblivious: implementations keep whatever state they like.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <optional>
#include <vector>

#include "geom/vec.hpp"
#include "sim/types.hpp"

namespace stig::sim {

/// One robot as seen by an observer.
struct ObservedRobot {
  /// Position in the observer's (anchored) local frame.
  geom::Vec2 position;
  /// Visible identifier; present only in identified systems.
  std::optional<VisibleId> id;
};

/// A snapshot's entries in listing order, read-only: positions stored
/// contiguously, and an id per entry in identified systems. The list
/// either owns its entries (hand-built snapshots, a small swarm's,
/// `Engine::make_snapshot`'s, and every copy) or views an engine
/// observer's stored rows in place (a hinted swarm's looks, DESIGN.md
/// §14); a view is valid until that engine's next `step` or `teleport`.
/// Copying always yields an owning list. Entries are returned by value:
/// `position(k)` reads one in place.
class ObservedList {
 public:
  /// Forward iterator over the entries, by value.
  class const_iterator {
   public:
    using iterator_category = std::input_iterator_tag;
    using iterator_concept = std::forward_iterator_tag;
    using value_type = ObservedRobot;
    using difference_type = std::ptrdiff_t;
    using reference = ObservedRobot;
    using pointer = void;

    const_iterator() = default;
    const_iterator(const ObservedList* list, std::size_t k) noexcept
        : list_(list), k_(k) {}
    ObservedRobot operator*() const { return (*list_)[k_]; }
    const_iterator& operator++() noexcept {
      ++k_;
      return *this;
    }
    const_iterator operator++(int) noexcept {
      const_iterator old = *this;
      ++k_;
      return old;
    }
    friend bool operator==(const const_iterator& a,
                           const const_iterator& b) noexcept {
      return a.k_ == b.k_;
    }

   private:
    const ObservedList* list_ = nullptr;
    std::size_t k_ = 0;
  };

  ObservedList() = default;
  ObservedList(const ObservedList& other) { copy_from(other); }
  ObservedList& operator=(const ObservedList& other) {
    if (this != &other) copy_from(other);
    return *this;
  }
  // Moving keeps the pointers valid: owned entries live behind `owned_`.
  ObservedList(ObservedList&&) noexcept = default;
  ObservedList& operator=(ObservedList&&) noexcept = default;
  ~ObservedList() = default;

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  /// Entry k's position (k < size()).
  [[nodiscard]] const geom::Vec2& position(std::size_t k) const noexcept {
    return positions_[k];
  }
  /// Entry k's visible id; nullopt in anonymous systems (k < size()).
  [[nodiscard]] std::optional<VisibleId> id(std::size_t k) const noexcept {
    if (ids_ == nullptr) return std::nullopt;
    return ids_[order_ == nullptr ? k : order_[k]];
  }
  [[nodiscard]] ObservedRobot operator[](std::size_t k) const noexcept {
    return ObservedRobot{positions_[k], id(k)};
  }
  /// Entry k's provenance token (k < size()): in a view, the engine index
  /// of the robot at that row; in an owning list, k itself. A reader may
  /// use a token only to choose which candidate to prove, never to decide
  /// anything (DESIGN.md §14).
  [[nodiscard]] std::uint32_t token(std::size_t k) const noexcept {
    return order_ == nullptr ? static_cast<std::uint32_t>(k) : order_[k];
  }
  /// Whether the tokens name robots (a view's rows) rather than slots.
  [[nodiscard]] bool robot_tokens() const noexcept {
    return order_ != nullptr;
  }
  [[nodiscard]] const_iterator begin() const noexcept { return {this, 0}; }
  [[nodiscard]] const_iterator end() const noexcept { return {this, size_}; }

  /// Appends an entry; a view first becomes an empty owning list.
  void push_back(const ObservedRobot& r) {
    if (viewing_ || !owned_) clear();
    owned_->positions.push_back(r.position);
    owned_->ids.push_back(r.id);
    point_at_owned();
  }
  /// Empties the list; it owns its (no) entries afterwards.
  void clear() {
    if (!owned_) owned_ = std::make_unique<Owned>();
    owned_->positions.clear();
    owned_->ids.clear();
    point_at_owned();
  }
  /// Where `own` lets its caller write the entries.
  struct Entries {
    geom::Vec2* positions;
    std::optional<VisibleId>* ids;  ///< Null without ids.
  };
  /// Makes the list own `n` entries, with ids when `with_ids`, and
  /// returns them for the caller to write: a small swarm's engine lists
  /// each look's snapshot through it without an append per entry.
  Entries own(std::size_t n, bool with_ids) {
    if (!owned_) owned_ = std::make_unique<Owned>();
    owned_->positions.resize(n);
    owned_->ids.resize(with_ids ? n : 0);
    point_at_owned();
    return {owned_->positions.data(), with_ids ? owned_->ids.data() : nullptr};
  }

  /// Makes the list a view of `size` entries owned elsewhere: entry k is
  /// at `positions[k]`, its token is `order[k]`, and its id, when `ids` is
  /// not null, is `ids[order[k]]`. Entries the list owned keep their
  /// capacity for later appends.
  void view(const geom::Vec2* positions, const std::uint32_t* order,
            const std::optional<VisibleId>* ids, std::size_t size) noexcept {
    positions_ = positions;
    order_ = order;
    ids_ = ids;
    size_ = static_cast<std::uint32_t>(size);
    viewing_ = true;
  }

 private:
  struct Owned {
    std::vector<geom::Vec2> positions;
    std::vector<std::optional<VisibleId>> ids;
  };

  void point_at_owned() noexcept {
    positions_ = owned_->positions.data();
    ids_ = owned_->ids.empty() ? nullptr : owned_->ids.data();
    order_ = nullptr;
    size_ = static_cast<std::uint32_t>(owned_->positions.size());
    viewing_ = false;
  }
  void copy_from(const ObservedList& other) {
    if (!owned_) owned_ = std::make_unique<Owned>();
    owned_->positions.assign(other.positions_,
                             other.positions_ + other.size_);
    owned_->ids.resize(other.ids_ == nullptr ? 0 : other.size_);
    for (std::size_t k = 0; k < owned_->ids.size(); ++k) {
      owned_->ids[k] = other.id(k);
    }
    point_at_owned();
  }

  const geom::Vec2* positions_ = nullptr;
  const std::optional<VisibleId>* ids_ = nullptr;
  const std::uint32_t* order_ = nullptr;  ///< Entry -> index into ids_.
  std::uint32_t size_ = 0;
  bool viewing_ = false;
  /// The entries an owning list holds; allocated on first append.
  std::unique_ptr<Owned> owned_;
};

/// Which entries of a snapshot may differ from the observer's previous
/// snapshot (DESIGN.md §14). The engine fills it; a hand-built snapshot
/// carries none (`known` false), and a reader must then assume that any
/// entry changed. It names listing slots, never robots. It covers every
/// slot a robot would find by diffing its two snapshots, and may list
/// more: the extra, unchanged slots come from engine state (two robots
/// that swapped exact positions, say). Protocol code may use a hint only
/// to skip work whose result the snapshots alone decide, never to decide
/// anything. Tokens (`ObservedList::token`) ride on the same promise: an
/// unhinted slot keeps its token, and the hinted slots hold the tokens
/// they held, in some order, unless the robots in view changed, which
/// hints every slot.
struct ChangeHint {
  bool known = false;
  /// `t` of the previous snapshot the slots are relative to.
  Time since = 0;
  /// Ascending indices into `Snapshot::robots`: every entry whose
  /// position, id or token may differ from the previous snapshot's entry
  /// at that index, or that the previous snapshot did not have. May list
  /// unchanged entries.
  std::vector<std::uint32_t> slots;
};

/// Engine snapshots of a swarm of at most this many robots carry no change
/// hint, and the engine keeps no rows or write log for it; sliced cores
/// and drivers of such a swarm skip their hint bookkeeping too (DESIGN.md
/// §14). Most of a small swarm moves between two looks of an asynchronous
/// robot, so listing it from scratch costs less than tracking what moved:
/// with every layer hinted, asynchronous four-robot chats spent about 17%
/// more CPU per instant, two thirds of it in the engine. The cutoff itself
/// is not tuned: the benchmarks run n <= 6 and n >= 128, which every value
/// from 6 to 127 treats alike.
inline constexpr std::size_t kUnhintedSwarmMax = 16;

/// Everything an active robot perceives at one instant.
///
/// `robots` contains every robot the observer sees, itself included: all
/// of them, unless a visibility radius hides the robots beyond it. In
/// anonymous systems entries are sorted lexicographically by local position
/// so that the ordering leaks no identity; in identified systems they are
/// sorted by visible id. `self` is the index of the observer's own entry —
/// a robot can always recognize itself (it knows its own position by
/// odometry; see sim/frame.hpp on anchored frames). The snapshots a hinted
/// swarm's engine hands its robots view the engine's rows (see
/// ObservedList); copy one to keep it past the robot's activation.
struct Snapshot {
  Time t = 0;
  ObservedList robots;
  std::size_t self = 0;
  ChangeHint hint;

  [[nodiscard]] ObservedRobot self_robot() const { return robots[self]; }
  [[nodiscard]] std::size_t size() const noexcept { return robots.size(); }
};

/// A robot program.
///
/// The engine calls `initialize` exactly once for every robot at t0 (the
/// paper's Section 4.2 assumption that all robots know P(t0) / are awake at
/// t0), then `on_activate` at every instant the scheduler activates the
/// robot. The return value is the destination point in the robot's local
/// frame; returning the current position means "stay".
class Robot {
 public:
  Robot() = default;
  Robot(const Robot&) = delete;
  Robot& operator=(const Robot&) = delete;
  virtual ~Robot() = default;

  /// One-time preprocessing with the initial configuration P(t0).
  virtual void initialize(const Snapshot& snap) = 0;

  /// Activation: observe, compute, return destination (local frame).
  virtual geom::Vec2 on_activate(const Snapshot& snap) = 0;
};

}  // namespace stig::sim
