// Synthetic session command streams.
//
// GenerateEventStream() produces a valid, seeded stream of mutations with
// periodic resolves against a given instance. Streams are plain
// CommandLogs (serve/session_command.h): they drive bench_online_sessions,
// `svgic_cli genevents`, perfbench and the incremental-vs-cold
// equivalence tests, and persist in the binary command-log format. All
// randomness is seeded, so a stream generated once replays
// bit-identically everywhere.

#pragma once

#include <cstdint>

#include "core/problem.h"
#include "serve/session_command.h"

namespace savg {

/// Knobs of the synthetic mutation-stream generator used by the bench and
/// the property tests. Probabilities are relative weights.
struct EventStreamParams {
  int num_mutations = 100;
  /// A resolve command is inserted after every this many mutations (and
  /// once at the end).
  int resolve_every = 5;
  uint64_t seed = 1;
  double w_pref = 0.55;
  double w_tau = 0.25;
  double w_friend = 0.08;
  double w_join = 0.04;
  double w_leave = 0.03;
  double w_lambda = 0.02;
  double w_add_item = 0.02;
  double w_retire_item = 0.01;
};

/// Generates a valid command stream against `instance` (tracking the user
/// / item counts its own join/additem commands grow).
CommandLog GenerateEventStream(const SvgicInstance& instance,
                               const EventStreamParams& params);

}  // namespace savg
