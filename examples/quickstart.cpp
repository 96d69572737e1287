// Quickstart: two deaf-and-dumb robots chat by moving.
//
// This is the smallest possible use of the library — the Section 3.1
// two-robot synchronous protocol. Build and run:
//
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
#include <iostream>
#include <string>

#include "core/chat_network.hpp"
#include "encode/bits.hpp"

int main() {
  using namespace stig;

  // Two robots in the plane. They have no radio, no speakers, no screens —
  // each can only observe where the other is, and move.
  core::ChatNetworkOptions opt;
  opt.synchrony = core::Synchrony::synchronous;
  core::ChatNetwork net({geom::Vec2{0.0, 0.0}, geom::Vec2{5.0, 0.0}}, opt);

  std::cout << "protocol: Sync2 (Section 3.1) — bit 0 = step right, "
               "bit 1 = step left, then step back\n\n";

  // Queue messages in both directions. Payloads are framed (length + CRC)
  // and transmitted one bit per two instants.
  net.send(0, 1, encode::bytes_of("hello, robot 1!"));
  net.send(1, 0, encode::bytes_of("hi robot 0 :)"));

  // Drive the world until both outboxes drain. Receipt is synchronous with
  // the movements, so quiescent == delivered.
  if (!net.run_until_quiescent(100'000)) {
    std::cerr << "did not converge\n";
    return 1;
  }
  net.run(2);  // Let the final return step settle.

  for (sim::RobotIndex r = 0; r < net.robot_count(); ++r) {
    for (const core::Delivery& d : net.received(r)) {
      std::cout << "robot " << d.to << " received from robot " << d.from
                << ": \""
                << std::string(d.payload.begin(), d.payload.end())
                << "\"\n";
    }
  }

  std::cout << "\ninstants elapsed: " << net.engine().now()
            << ", bits moved by robot 0: " << net.stats(0).bits_sent
            << ", distance traveled by robot 0: "
            << net.engine().motion(0).distance << "\n";
  return 0;
}
