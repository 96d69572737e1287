// A1 — one-to-all ablation. The paper claims the protocols "can be easily
// adapted to implement efficiently one-to-many or one-to-all explicit
// communication": compare n-1 sequential unicasts against the broadcast
// lane (the sender's own diameter), in instants and in sender distance.
#include <iostream>
#include <vector>

#include "bench_util.hpp"
#include "core/chat_network.hpp"
#include "core/multicast.hpp"
#include "encode/framing.hpp"

int main() {
  using namespace stig;
  std::cout << "== A1: one-to-all — n-1 unicasts vs the broadcast lane ==\n\n";

  bench::Report report("a1_broadcast");
  const auto msg = bench::payload(8, 7);
  bench::Table t({"n", "unicast instants", "broadcast instants", "speedup",
                  "uni dist", "bc dist"},
                 report, "unicasts vs broadcast");
  const std::vector<std::size_t> sizes = {3u, 4u, 8u, 16u, 32u};
  struct Row {
    sim::Time uni_instants, bc_instants;
    double uni_dist, bc_dist;
    bool ok;
  };
  const std::vector<Row> rows =
      bench::batch_map(sizes.size(), [&](std::size_t i) {
        const std::size_t n = sizes[i];
        const auto pts = bench::scatter(n, 800 + n, 50.0, 3.0);
        core::ChatNetworkOptions opt;
        opt.synchrony = core::Synchrony::synchronous;
        opt.caps.sense_of_direction = true;

        core::ChatNetwork uni(pts, opt);
        for (std::size_t j = 1; j < n; ++j) uni.send(0, j, msg);
        uni.run_until_quiescent(1'000'000);

        core::ChatNetwork bc(pts, opt);
        bc.broadcast(0, msg);
        bc.run_until_quiescent(1'000'000);
        bc.run(2);
        std::size_t delivered = 0;
        for (std::size_t j = 1; j < n; ++j) {
          delivered += bc.received(j).size();
        }
        return Row{uni.engine().now(), bc.engine().now() - 2,
                   uni.engine().motion(0).distance,
                   bc.engine().motion(0).distance,
                   delivered == n - 1};
      });
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    if (!rows[i].ok) {
      std::cout << "BROADCAST FAILED at n=" << sizes[i] << "\n";
      return 1;
    }
    t.row(sizes[i], rows[i].uni_instants, rows[i].bc_instants,
          static_cast<double>(rows[i].uni_instants) /
              static_cast<double>(rows[i].bc_instants),
          rows[i].uni_dist, rows[i].bc_dist);
  }
  std::cout << "\nexpected shape: unicast cost grows linearly in n "
               "(sequential frames), broadcast stays constant — a speedup "
               "of exactly n-1, in both time and energy (distance).\n\n";

  std::cout << "one-to-many: k unicasts vs one multicast envelope "
               "(n = 16, 8-byte payload):\n";
  {
    const auto mpts = bench::scatter(16, 850, 50.0, 3.0);
    core::ChatNetworkOptions mopt;
    mopt.synchrony = core::Synchrony::synchronous;
    mopt.caps.sense_of_direction = true;
    bench::Table tm({"recipients k", "k unicasts", "1 multicast"}, report,
                    "multicast");
    const std::vector<std::size_t> group_sizes = {1u, 2u, 4u, 8u, 15u};
    struct McRow {
      sim::Time uni, mc;
      bool ok;
    };
    const std::vector<McRow> mc_rows =
        bench::batch_map(group_sizes.size(), [&](std::size_t i) {
          const std::size_t k = group_sizes[i];
          core::ChatNetwork uni_net(mpts, mopt);
          for (std::size_t r = 1; r <= k; ++r) uni_net.send(0, r, msg);
          uni_net.run_until_quiescent(1'000'000);

          core::ChatNetwork mc_net(mpts, mopt);
          core::MulticastService mc(mc_net);
          std::vector<sim::RobotIndex> group;
          for (std::size_t r = 1; r <= k; ++r) group.push_back(r);
          mc.multicast(0, group, msg);
          mc_net.run_until_quiescent(1'000'000);
          mc_net.run(2);
          mc.poll();
          std::size_t got = 0;
          for (std::size_t r = 1; r <= k; ++r) {
            got += mc.group_received(r).size();
          }
          return McRow{uni_net.engine().now(), mc_net.engine().now(),
                       got == k};
        });
    for (std::size_t i = 0; i < group_sizes.size(); ++i) {
      if (!mc_rows[i].ok) {
        std::cout << "MULTICAST FAILED at k=" << group_sizes[i] << "\n";
        return 1;
      }
      tm.row(group_sizes[i], mc_rows[i].uni, mc_rows[i].mc);
    }
    std::cout << "\nexpected shape: unicast cost linear in k; the multicast "
                 "envelope (frame + tag + n-bit recipient bitmap) is "
                 "constant in k — it overtakes unicast from k = 2 on.\n\n";
  }

  std::cout << "asynchronous broadcast (AsyncN, 4 robots):\n";
  core::ChatNetworkOptions opt;
  opt.synchrony = core::Synchrony::asynchronous;
  opt.seed = 5;
  const auto pts = bench::scatter(4, 99, 30.0, 4.0);
  core::ChatNetwork uni(pts, opt);
  for (std::size_t j = 1; j < 4; ++j) uni.send(0, j, bench::payload(2, 1));
  uni.run_until_quiescent(10'000'000);
  core::ChatNetwork bc(pts, opt);
  bc.broadcast(0, bench::payload(2, 1));
  bc.run_until_quiescent(10'000'000);
  bench::Table t2({"mode", "instants"}, report, "modes");
  t2.row("3 unicasts", uni.engine().now());
  t2.row("1 broadcast", bc.engine().now());
  std::cout << "\nexpected shape: the asynchronous broadcast also saves the "
               "factor n-1 — the double-ack windows are paid once per bit "
               "instead of once per addressee.\n";
  return 0;
}
