#pragma once

// The per-layer ledger: times calls into each layer's public functions
// (src/gemm, src/core, src/model) at the workload's own shapes, from the
// benchmark's code, with one trace span per measurement.

#include <map>
#include <string>

#include "runner.h"

namespace perfbench {

struct LedgerResult {
  std::map<std::string, double> metrics;
  std::string details_json;  // per-shape rows: plan, times, predictions
};

// Engine request latency minus a bare executor run at a 256^3 probe, in
// microseconds.  Call with tracing off: it prices the Engine path, not the
// trace sites on it.
double engine_overhead_us(fmm::Engine& engine, Operands& ops);

// Everything else in the ledger; `engine` is the warmed workload engine
// whose choices name the executed plans, `opts` its Options.
LedgerResult measure_ledger(const Spec& spec, fmm::Engine& engine,
                            const fmm::Engine::Options& opts, Operands& ops);

}  // namespace perfbench
