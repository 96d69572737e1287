// The Section 5 k-segment addressing extension (synchronous).
//
// With limited angular resolution, robots "are not able to identify all of
// possible 2n directions obtained by slices inside of disks". The paper's
// fix: use only k+1 segments — one for message transmission plus k used to
// spell out the *index* of the designated robot in base k, taking
// ceil(log n / log k) movement symbols per message before the payload.
//
// Our realization slices each granular into k+1 diameters: diameter 0
// carries payload bits (positive side = 0, negative = 1); diameters 1..k
// carry the digits of the addressee's rank (diameter 1+d, positive side,
// for digit d). A message is: D = digits_needed(n, k) digit symbols, then
// the framed payload. The frame is self-delimiting, so decoders know when
// to switch back to digit mode.
//
// Section 5 predicts the cost: transmitting the index takes log_k(n)
// symbols; with k = O(log n) slices the per-message overhead grows by
// O(log n / log log n) — measured by benchmark E3.
#pragma once

#include <vector>

#include "encode/framing.hpp"
#include "encode/ksegment_code.hpp"
#include "proto/common.hpp"
#include "proto/slices.hpp"

namespace stig::proto {

/// Configuration for KSegmentRobot.
struct KSegmentOptions {
  NamingMode naming = NamingMode::lexicographic;
  /// Number of index segments; 2 <= k. Total diameters = k + 1.
  std::size_t k = 4;
  /// The robot's own maximum per-activation travel, in local units.
  double sigma_local = 1.0;
  /// The swarm's naming tables and this robot's permutation into them
  /// (core::ChatNetwork fills it); empty = build own tables at t0.
  SharedNaming shared_naming;
};

class KSegmentRobot final : public ChatRobot {
 public:
  explicit KSegmentRobot(KSegmentOptions options);

  void initialize(const sim::Snapshot& snap) override;
  geom::Vec2 on_activate(const sim::Snapshot& snap) override;

  [[nodiscard]] std::size_t self_slot() const override {
    return core_.rank(core_.self_index(), core_.self_index());
  }
  [[nodiscard]] std::size_t slot_count() const override {
    return core_.robot_count();
  }
  [[nodiscard]] std::size_t slot_of_t0_index(std::size_t i) const override {
    return core_.rank(core_.self_index(), i);
  }

  [[nodiscard]] const SlicedCore& core() const noexcept { return core_; }

  /// Movement symbols needed per message of `payload_bits` framed bits:
  /// the digit prefix plus the payload.
  [[nodiscard]] std::size_t symbols_for(std::size_t payload_bits) const {
    return digits_ + payload_bits;
  }

 protected:
  void corrupt_protocol_state(CorruptKind kind,
                              std::uint64_t garbage) override;

 private:
  /// Per-sender decoder: collecting the digit prefix or the payload.
  struct DecodeState {
    std::vector<std::uint32_t> digits;
    bool in_payload = false;
    std::size_t addressee_rank = 0;  ///< Valid once in_payload.
    encode::FrameParser end_detector; ///< Mirrors the stream to find frame
                                      ///< boundaries.
    std::int64_t last_code = 0;       ///< Edge detector (0 = at center).
    std::uint8_t idle = 0;            ///< Consecutive at-center
                                      ///< observations (resync trigger).
  };

  KSegmentOptions options_;
  SlicedCore core_;
  std::size_t digits_ = 0;  ///< Digit symbols per message.
  std::vector<std::uint32_t> pending_digits_;  ///< Own prefix in flight.
  bool prefix_done_ = false;  ///< Current frame's prefix fully sent.
  bool displaced_ = false;
  std::vector<DecodeState> decode_;
};

}  // namespace stig::proto
