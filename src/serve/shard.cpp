#include "serve/shard.hpp"

#include <algorithm>
#include <stdexcept>

namespace stig::serve {

ShardedRegistry::ShardedRegistry(ShardedOptions options)
    : max_step_(options.limits.max_step),
      runner_(par::BatchOptions{.jobs = options.jobs}) {
  if (options.shards == 0) {
    throw std::invalid_argument("ShardedRegistry needs at least one shard");
  }
  shards_.reserve(options.shards);
  metrics_.reserve(options.shards);
  for (std::size_t k = 0; k < options.shards; ++k) {
    auto registry = std::make_unique<SessionRegistry>(options.limits);
    auto metrics = std::make_unique<obs::MetricsRegistry>();
    registry->configure_ids(k + 1, options.shards);
    registry->attach_metrics(metrics.get());
    shards_.push_back(std::move(registry));
    metrics_.push_back(std::move(metrics));
  }
}

std::size_t ShardedRegistry::route(const Request& req) {
  if (req.verb == Verb::open_session) {
    return static_cast<std::size_t>(open_rr_++ % shards_.size());
  }
  // Ids are assigned as shard + 1, shard + 1 + K, ...; id 0 is never
  // valid, so route it anywhere — the shard answers not_found.
  if (req.session == 0) return 0;
  return static_cast<std::size_t>((req.session - 1) % shards_.size());
}

std::uint64_t ShardedRegistry::work_of(const Request& req) const noexcept {
  switch (req.verb) {
    case Verb::step: return std::min({req.instants, max_step_, kFanOutWork});
    case Verb::open_session: return kOpenWork;
    default: return 0;
  }
}

std::vector<Response> ShardedRegistry::apply_batch(
    std::span<const Request> requests) {
  // Route sequentially (the round-robin cursor is ordered state) and
  // estimate each shard's work from its own requests.
  std::vector<std::vector<std::size_t>> groups(shards_.size());
  std::vector<std::uint64_t> work(shards_.size(), 0);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const std::size_t shard = route(requests[i]);
    groups[shard].push_back(i);
    work[shard] += work_of(requests[i]);
  }
  std::vector<Response> responses(requests.size());
  const auto apply_group = [&](std::size_t shard) {
    for (const std::size_t idx : groups[shard]) {
      responses[idx] = shards_[shard]->apply(requests[idx]);
    }
  };
  const auto heavy =
      std::count_if(work.begin(), work.end(),
                    [](std::uint64_t w) { return w >= kFanOutWork; });
  if (heavy < 2) {
    for (std::size_t shard = 0; shard < shards_.size(); ++shard) {
      apply_group(shard);
    }
    return responses;
  }
  // Fan the non-empty groups out: each task owns disjoint response slots,
  // so the only cross-thread state is the pool itself.
  ++fanned_out_;
  std::vector<std::size_t> busy;
  for (std::size_t shard = 0; shard < shards_.size(); ++shard) {
    if (!groups[shard].empty()) busy.push_back(shard);
  }
  (void)runner_.map(busy.size(), [&](std::size_t task) -> int {
    apply_group(busy[task]);
    return 0;
  });
  return responses;
}

Response ShardedRegistry::apply(const Request& req) {
  return std::move(apply_batch(std::span<const Request>(&req, 1)).front());
}

std::size_t ShardedRegistry::live_sessions() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) total += shard->live_sessions();
  return total;
}

std::uint64_t ShardedRegistry::sessions_opened() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->sessions_opened();
  return total;
}

void ShardedRegistry::merge_metrics(obs::MetricsRegistry& into) const {
  for (const auto& metrics : metrics_) into.merge_from(*metrics);
}

void ShardedRegistry::write_metrics_json(std::ostream& out) const {
  obs::MetricsRegistry merged;
  merge_metrics(merged);
  merged.write_json(out);
}

}  // namespace stig::serve
