// F1 — Figure 1 reproduction: one-to-one communication for 2 synchronous
// robots. Prints the movement trace of a short exchange, annotating each
// even-step excursion with the bit it codes (right = 0, left = 1) and each
// odd step with the return, exactly the scheme the figure illustrates.
#include <iostream>

#include "bench_util.hpp"
#include "core/chat_network.hpp"
#include "encode/bits.hpp"
#include "geom/line.hpp"

int main() {
  using namespace stig;
  std::cout << "== F1: Figure 1 — coding with two synchronous robots ==\n\n";

  bench::Report report("fig1_sync2");
  core::ChatNetworkOptions opt;
  opt.synchrony = core::Synchrony::synchronous;
  opt.record_positions = true;
  const geom::Vec2 p0{0, 0};
  const geom::Vec2 p1{6, 0};
  core::ChatNetwork net({p0, p1}, opt);

  // Robot 0 sends the nibble pattern 0b0110... make it concrete: one byte.
  const std::vector<std::uint8_t> msg{0b01100101};
  net.send(0, 1, msg);
  net.run_until_quiescent(10'000);
  net.run(2);

  const auto& hist = net.position_history();
  // Classify robot 0's offset relative to the line p0 -> p1: its "right"
  // (facing robot 1, shared handedness) is -y.
  std::cout << "t     robot0 position        movement-signal\n";
  for (std::size_t t = 0; t < hist.size(); ++t) {
    const geom::Vec2 pos = hist[t][0];
    const double off = pos.y;
    const char* what = "at base";
    if (off < -1e-9) what = "RIGHT of axis  -> bit 0";
    if (off > 1e-9) what = "LEFT of axis   -> bit 1";
    std::cout << std::setw(3) << t << "   (" << std::setw(6) << std::fixed
              << std::setprecision(3) << pos.x << ", " << std::setw(6)
              << pos.y << ")     " << what << '\n';
    if (t > 24) {
      std::cout << "      ... (" << hist.size() - t
                << " more instants elide the same pattern)\n";
      break;
    }
  }

  std::cout << "\nframe bits for payload 0b01100101 (varint len + payload + "
               "crc8): "
            << encode::encode_frame(msg).size() << " bits, "
            << net.engine().now() << " instants (2 per bit)\n";
  const bool intact =
      net.received(1).size() == 1 && net.received(1)[0].payload == msg;
  std::cout << "delivered payload: " << (intact ? "intact" : "CORRUPT")
            << "\n";
  report.value("frame_bits",
               static_cast<std::uint64_t>(encode::encode_frame(msg).size()));
  report.value("instants", net.engine().now());
  report.value("delivered_intact", std::string(intact ? "true" : "false"));
  return 0;
}
