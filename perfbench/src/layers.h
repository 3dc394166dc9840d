// The traced run's layer replays: each layer's public calls, timed
// in-process on the workload's recorded inputs, in the thread context the
// server runs them in, with one span per replayed call (or per fixed
// number of repetitions of it).

#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"
#include "dphist/common/result.h"
#include "fixture.h"
#include "trace.h"

namespace perfbench {

struct LayerMetric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct LayerContext {
  Workload workload = Workload::kHotRead;
  const Inputs* inputs = nullptr;
  Fixture* fixture = nullptr;
  /// cold workloads: the untraced phase's requests (indices into
  /// `inputs->cold`), in the order answered.
  std::vector<std::size_t> cold_timed;
  /// The end-to-end time per request the residual starts from, in us:
  /// event-loop time per request (1e6 / read_rps) on hot_read, the mean
  /// request latency on the cold workloads.
  double e2e_us = 0.0;
  /// cold workloads: the server's own mean time per dispatched request
  /// over the same phase (the `net/request_ms` delta from /statsz), in us.
  double server_us = 0.0;
};

struct LayerReport {
  /// The replay-derived per-layer metrics, the residual
  /// (`net.unaccounted_us`) included.
  std::vector<LayerMetric> metrics;
  /// The end-to-end time per request the residual starts from, and the
  /// traced stages it subtracts, in us.
  double e2e_us = 0.0;
  double stages_us = 0.0;
};

/// Replays every layer on `context`'s inputs, recording spans into
/// `trace`. Fails when a replayed call fails or disagrees with the path
/// it stands for.
dphist::Result<LayerReport> ReplayLayers(const LayerContext& context,
                                         Trace* trace);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
