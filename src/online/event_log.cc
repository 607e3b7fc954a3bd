#include "online/event_log.h"

#include <vector>

#include "util/random.h"

namespace savg {

CommandLog GenerateEventStream(const SvgicInstance& instance,
                               const EventStreamParams& params) {
  Rng rng(params.seed);
  int n = instance.num_users();
  int m = instance.num_items();
  const std::vector<double> weights = {
      params.w_pref,  params.w_tau,    params.w_friend,
      params.w_join,  params.w_leave,  params.w_lambda,
      params.w_add_item, params.w_retire_item};

  CommandLog log;
  for (int i = 0; i < params.num_mutations; ++i) {
    SessionCommand e;
    switch (rng.Discrete(weights)) {
      case 0:
        e.type = CommandType::kPref;
        e.u = static_cast<UserId>(rng.UniformInt(static_cast<uint64_t>(n)));
        e.c = static_cast<ItemId>(rng.UniformInt(static_cast<uint64_t>(m)));
        e.value = rng.Uniform();
        break;
      case 1:
        e.type = CommandType::kTau;
        e.u = static_cast<UserId>(rng.UniformInt(static_cast<uint64_t>(n)));
        do {
          e.v = static_cast<UserId>(rng.UniformInt(static_cast<uint64_t>(n)));
        } while (e.v == e.u);
        e.c = static_cast<ItemId>(rng.UniformInt(static_cast<uint64_t>(m)));
        e.value = rng.Uniform();
        break;
      case 2:
        e.type = CommandType::kFriend;
        e.u = static_cast<UserId>(rng.UniformInt(static_cast<uint64_t>(n)));
        do {
          e.v = static_cast<UserId>(rng.UniformInt(static_cast<uint64_t>(n)));
        } while (e.v == e.u);
        break;
      case 3:
        e.type = CommandType::kJoin;
        ++n;
        break;
      case 4:
        e.type = CommandType::kLeave;
        e.u = static_cast<UserId>(rng.UniformInt(static_cast<uint64_t>(n)));
        break;
      case 5:
        e.type = CommandType::kLambda;
        e.value = rng.Uniform(0.2, 0.8);
        break;
      case 6:
        e.type = CommandType::kAddItem;
        ++m;
        break;
      default:
        e.type = CommandType::kRetireItem;
        e.c = static_cast<ItemId>(rng.UniformInt(static_cast<uint64_t>(m)));
        break;
    }
    log.push_back(e);
    if (params.resolve_every > 0 && (i + 1) % params.resolve_every == 0) {
      log.push_back(MakeResolve());
    }
  }
  if (log.empty() || log.back().type != CommandType::kResolve) {
    log.push_back(MakeResolve());
  }
  return log;
}

}  // namespace savg
