#include "estimate/idms_estimator.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace nc::est {

IDMSEstimator::IDMSEstimator(const IDMSEstimatorConfig& config, int num_nodes,
                             NodeId first_owned, int owned_count)
    : config_(config),
      first_owned_(first_owned),
      cells_(static_cast<std::size_t>(std::max(owned_count, 0)),
             static_cast<std::size_t>(std::max(num_nodes, 0)),
             /*sparse_slot_limit=*/0),
      fallback_(CoordinateEstimatorConfig{config.max_age_s}, num_nodes) {
  NC_CHECK_MSG(num_nodes >= 0 && owned_count >= 0 && first_owned >= 0,
               "negative matrix extent");
  NC_CHECK_MSG(first_owned + owned_count <= num_nodes,
               "owned slice exceeds the node id space");
  NC_CHECK_MSG(config.max_age_s > 0.0, "staleness horizon must be positive");
  NC_CHECK_MSG(config.alpha > 0.0 && config.alpha <= 1.0,
               "EWMA weight must be in (0, 1]");
}

void IDMSEstimator::on_observation(const LatencyObservation& obs) {
  ++observations_;
  last_now_s_ = obs.t_s;
  traffic_bytes_ += kMatrixReportBytes;
  fallback_.on_observation(obs);

  NC_ASSERT(obs.src >= first_owned_);
  Cell& cell = cells_.at(row_of(obs.src), static_cast<std::size_t>(obs.dst));
  if (cell.updated_s < 0.0) {
    cell.rtt_ms = obs.raw_rtt_ms;
  } else {
    cell.rtt_ms =
        config_.alpha * obs.raw_rtt_ms + (1.0 - config_.alpha) * cell.rtt_ms;
  }
  cell.updated_s = obs.t_s;
}

std::optional<double> IDMSEstimator::estimate_rtt(NodeId a, NodeId b,
                                                  double now_s) {
  ++queries_;
  last_now_s_ = std::max(last_now_s_, now_s);
  NC_ASSERT(a >= first_owned_);
  // try_at keeps never-measured pairs from materializing matrix cells.
  const Cell* cell = cells_.try_at(row_of(a), static_cast<std::size_t>(b));
  if (cell != nullptr && cell->updated_s >= 0.0 &&
      now_s - cell->updated_s <= config_.max_age_s) {
    ++direct_hits_;
    return cell->rtt_ms;
  }
  if (const auto est = fallback_.estimate_rtt(a, b, now_s)) {
    ++fallback_hits_;
    return est;
  }
  ++misses_;
  return std::nullopt;
}

EstimatorNodeState IDMSEstimator::extract_node_state(NodeId node) {
  NC_ASSERT(node >= first_owned_);
  std::vector<std::pair<std::uint32_t, Cell>> row;
  cells_.extract_row(row_of(node), row,
                     [](const Cell& cell) { return cell.updated_s >= 0.0; });
  EstimatorNodeState state;
  state.cells.reserve(row.size());
  for (const auto& [dst, cell] : row)  // dst-ascending, as extracted
    state.cells.push_back(
        {static_cast<NodeId>(dst), cell.rtt_ms, cell.updated_s});
  return state;
}

void IDMSEstimator::install_node_state(NodeId node,
                                       const EstimatorNodeState& state) {
  NC_ASSERT(node >= first_owned_);
  std::vector<std::pair<std::uint32_t, Cell>> row;
  row.reserve(state.cells.size());
  for (const EstimatorNodeState::MatrixCell& c : state.cells)
    row.emplace_back(static_cast<std::uint32_t>(c.dst),
                     Cell{c.rtt_ms, c.updated_s});
  cells_.install_row(row_of(node), row);
}

EstimatorStats IDMSEstimator::stats() const {
  EstimatorStats s;
  s.observations = observations_;
  s.queries = queries_;
  s.direct_hits = direct_hits_;
  s.fallback_hits = fallback_hits_;
  s.misses = misses_;
  cells_.for_each([&](const Cell& cell) {
    NC_ASSERT(cell.updated_s >= 0.0);
    ++s.entries;
    if (last_now_s_ - cell.updated_s > config_.max_age_s) ++s.stale_entries;
  });
  const EstimatorStats fb = fallback_.stats();
  // sizeof(*this) already covers the embedded fallback's own footprint.
  s.memory_bytes = sizeof(*this) + cells_.memory_bytes() +
                   (fb.memory_bytes - sizeof(fallback_));
  s.traffic_bytes = traffic_bytes_ + fb.traffic_bytes;
  return s;
}

}  // namespace nc::est
