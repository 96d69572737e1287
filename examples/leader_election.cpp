// Leader election over movement-signals.
//
// The paper's thesis: explicit communication "enables the use of
// distributed algorithms among the robots... distributing algorithms that
// use message exchanges". Here is one of the classics — leader election by
// maximum identifier — where the "network" is robots wiggling inside their
// Voronoi granulars.
//
// Each robot draws a random 32-bit token (robots are anonymous to each
// other; the token is application state, not an observable ID). Every robot
// broadcasts its token; every robot then knows all n tokens and elects the
// maximum. A final round of unicasts confirms that all robots agree on the
// winner.
//
// The run is fully instrumented the way a long-lived deployment would be
// (docs/OBSERVABILITY.md): a Watchdog checks the paper's invariants live
// (granular containment included — the sliced protocol keeps every robot
// inside its granular), a SpanBuilder attributes each message's latency,
// and `leader_election_spans.json` is written for `stigreport`/Perfetto.
//
//   ./build/examples/leader_election
#include <algorithm>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <vector>

#include "core/chat_network.hpp"
#include "obs/sink.hpp"
#include "obs/span.hpp"
#include "obs/watchdog.hpp"
#include "sim/placement.hpp"
#include "sim/rng.hpp"

namespace {

std::vector<std::uint8_t> pack32(std::uint32_t v) {
  return {static_cast<std::uint8_t>(v >> 24),
          static_cast<std::uint8_t>(v >> 16),
          static_cast<std::uint8_t>(v >> 8), static_cast<std::uint8_t>(v)};
}

std::uint32_t unpack32(const std::vector<std::uint8_t>& b) {
  return (std::uint32_t{b[0]} << 24) | (std::uint32_t{b[1]} << 16) |
         (std::uint32_t{b[2]} << 8) | std::uint32_t{b[3]};
}

}  // namespace

int main() {
  using namespace stig;

  sim::Rng rng(4242);
  const std::size_t n = 8;
  const std::vector<geom::Vec2> positions = sim::scatter(rng, n, 30.0, 4.0);

  core::ChatNetworkOptions opt;
  opt.synchrony = core::Synchrony::synchronous;
  // Fully anonymous swarm, chirality only: the hardest naming setting.
  core::ChatNetwork net(positions, opt);

  // Observability: invariant watchdog (granular containment holds for the
  // sliced protocol) + message-span tracing, fanned off one event stream.
  obs::WatchdogOptions wopt;
  wopt.check_granular = true;
  obs::Watchdog watchdog(wopt, positions);
  obs::SpanBuilder spans;
  obs::MultiSink telemetry({&watchdog, &spans});
  net.attach_event_sink(&telemetry);

  std::vector<std::uint32_t> tokens(n);
  std::cout << "tokens:";
  for (std::size_t i = 0; i < n; ++i) {
    tokens[i] = static_cast<std::uint32_t>(rng.uniform_int(0, 0xFFFFFFFF));
    std::cout << " " << std::hex << std::setw(8) << std::setfill('0')
              << tokens[i];
  }
  std::cout << std::dec << std::setfill(' ') << "\n\n";

  std::cout << "round 1: every robot broadcasts its token "
               "(one-to-all on its own diameter)\n";
  for (std::size_t i = 0; i < n; ++i) net.broadcast(i, pack32(tokens[i]));
  if (!net.run_until_quiescent(1'000'000)) return 1;
  net.run(2);

  // Each robot elects the max over its own token and everything received.
  std::vector<std::uint32_t> elected(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::uint32_t best = tokens[i];
    for (const core::Delivery& d : net.received(i)) {
      best = std::max(best, unpack32(d.payload));
    }
    elected[i] = best;
  }
  const std::uint32_t truth = *std::max_element(tokens.begin(), tokens.end());
  const bool agree =
      std::all_of(elected.begin(), elected.end(),
                  [&](std::uint32_t e) { return e == truth; });
  std::cout << "every robot elected leader token " << std::hex << truth
            << std::dec << ": " << (agree ? "AGREED" : "DISAGREED") << "\n\n";
  if (!agree) return 1;

  std::cout << "round 2: followers send a CONFIRM unicast to the leader\n";
  const auto leader = static_cast<std::size_t>(
      std::max_element(tokens.begin(), tokens.end()) - tokens.begin());
  for (std::size_t i = 0; i < n; ++i) {
    if (i == leader) continue;
    net.send(i, leader, pack32(tokens[i]));
  }
  if (!net.run_until_quiescent(1'000'000)) return 1;
  net.run(2);

  std::size_t confirms = 0;
  for (const core::Delivery& d : net.received(leader)) {
    if (!d.broadcast) ++confirms;
  }
  std::cout << "leader (robot " << leader << ") holds " << confirms
            << " confirmations out of " << n - 1 << "\n\n";

  std::cout << "total instants: " << net.engine().now()
            << ", total distance swum by the swarm: ";
  double dist = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    dist += net.engine().motion(i).distance;
  }
  std::cout << std::fixed << std::setprecision(1) << dist
            << " units — a classical distributed algorithm executed by "
               "deaf, dumb robots.\n\n";

  // The observability verdict: invariants + where the latency went.
  watchdog.report(std::cout);
  spans.finalize();
  const obs::CriticalPath& cp = spans.critical_path();
  std::cout << spans.spans().size() << " message spans; critical path: "
            << "sender " << cp.sender << ", " << cp.span_ids.size()
            << " span(s), " << cp.total_instants << " instants ("
            << cp.transmit_instants << " transmitting, " << cp.wait_instants
            << " queue-waiting)\n";
  std::ofstream span_file("leader_election_spans.json");
  spans.write_json(span_file);
  std::cout << "wrote leader_election_spans.json (feed it to stigreport "
               "or load the --span-trace form in Perfetto)\n";
  return confirms == n - 1 && watchdog.ok() ? 0 : 1;
}
