// serve_resolve and serve_ingest: an in-process ServeServer on loopback,
// driven through ServeClient by a few closed-loop clients. Each client owns
// its sessions and keeps exactly one request in flight, so the server never
// coalesces and every run does the same solves.
//
// A round is one complete, independent replication: generate the instances
// and command streams, start a fresh server, create the sessions and give
// each its first (cold) solve (the set-up), replay every stream (the timed
// phase), then drain, digest and, for serve_ingest, recover every session
// from the data directory as a crash restart would. Rounds repeat until
// their timed phases cover the requested seconds; every round must repeat
// round one's work counts and state digests exactly.

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>

#include "bench.h"
#include "core/objective.h"
#include "datagen/datasets.h"
#include "durability/recovery.h"
#include "durability/snapshot.h"
#include "online/event_log.h"
#include "online/session.h"
#include "serve/client.h"
#include "serve/server.h"
#include "serve/wire.h"

namespace perfbench {
namespace {

using savg::CommandLog;
using savg::CommandType;
using savg::SessionCommand;
using savg::SvgicInstance;

constexpr int kMaxClients = 3;
constexpr int kSlots = 3;
constexpr int kUsers = 10;
constexpr int kItems = 20;
constexpr savg::DatasetKind kKinds[] = {savg::DatasetKind::kTimik,
                                        savg::DatasetKind::kEpinions,
                                        savg::DatasetKind::kYelp};

/// One round's sessions, spread over the clients; each client works through
/// its sessions one after another. Many distinct instances and streams per
/// seed keep the per-run medians from hanging on a few instances' shapes.
struct RoundShape {
  int sessions;
  int mutations;  // per session
  int resolve_every;
};
// serve_resolve: a resolve after every 4 mutations, so warm incremental
// resolves dominate. serve_ingest: a resolve after every 40, so the
// per-command path (codecs, admission, Session::Apply, journal) weighs in.
// 96 sessions each: the set-up's cold solves and the resolve latencies
// average over that many distinct instances, which keeps them from moving
// with the few instances a seed draws.
constexpr RoundShape kResolveShape = {96, 60, 4};
constexpr RoundShape kIngestShape = {96, 200, 40};
// Count-triggered snapshots: one per serve_ingest session per round, so
// recovery starts from a snapshot and replays the changelog tail.
constexpr int kSnapshotEveryCommands = 128;

/// Clients and server workers: at most one per CPU the process may use.
int NumClients() { return std::min(kMaxClients, AllowedCpus()); }

struct ClientPlan {
  SvgicInstance instance;
  CommandLog stream;  // ends with a resolve
};

struct Sample {
  uint64_t request_id = 0;
  bool resolve = false;
  int64_t rtt_nanos = 0;
};

/// What the client driving one session saw.
struct SessionLog {
  std::vector<Sample> samples;
  /// ApplyResult::scaled_total of every resolve, the set-up one first.
  std::vector<double> resolve_totals;
  int64_t attempted = 0;
  int64_t failed = 0;
  double codec_seconds = 0.0;
  int64_t codec_ops = 0;
  std::string error;
};

struct RoundOutput {
  double setup_seconds = 0.0;
  double timed_seconds = 0.0;
  std::vector<double> generate_seconds;
  std::vector<ClientPlan> plans;
  std::vector<SessionLog> logs;
  std::vector<uint64_t> live_digests;
  std::vector<std::pair<std::string, int64_t>> fingerprint;
  double fsync_mean_seconds = 0.0;
  std::vector<double> recover_seconds;  // per session
  std::vector<savg::Trace> traces;
  std::string error;
};

std::vector<ClientPlan> MakePlans(const RunOptions& options, bool ingest,
                                  std::vector<double>* generate_seconds,
                                  std::string* error) {
  const RoundShape shape = ingest ? kIngestShape : kResolveShape;
  std::vector<ClientPlan> plans;
  for (int i = 0; i < shape.sessions; ++i) {
    savg::DatasetParams params;
    params.kind = kKinds[i % 3];
    params.num_users = kUsers;
    params.num_items = kItems;
    params.num_slots = kSlots;
    params.seed = DeriveSeed(options.seed, 100 + i);
    const Clock::time_point start = Clock::now();
    auto instance = savg::GenerateDataset(params);
    generate_seconds->push_back(SecondsSince(start));
    if (!instance.ok()) {
      *error = "GenerateDataset: " + instance.status().ToString();
      return {};
    }
    savg::EventStreamParams stream;
    stream.num_mutations = shape.mutations;
    stream.resolve_every = shape.resolve_every;
    // Preference, tau, friend, join, leave and item changes. No lambda
    // changes: each one dirties every user and forces a cold re-solve, and
    // their seed-to-seed count (a few per stream) swung a run's work by
    // more than the rest of the mix.
    stream.w_lambda = 0.0;
    stream.seed = DeriveSeed(options.seed, 200 + i);
    ClientPlan plan;
    plan.stream = savg::GenerateEventStream(*instance, stream);
    plan.instance = std::move(instance).value();
    plans.push_back(std::move(plan));
  }
  return plans;
}

/// Encodes and decodes one request and its response the way the wire
/// path does, on this request's own bytes; returns the seconds taken.
double TimeCodec(const SessionCommand& command, const savg::ApplyResult& reply,
                 std::string* error) {
  const Clock::time_point start = Clock::now();
  std::string payload, frame, reply_payload, reply_frame;
  savg::EncodeCommand(command, &payload);
  savg::AppendFrame(savg::FrameKind::kApply, 1, 0, payload, &frame);
  savg::EncodeApplyResult(reply, &reply_payload);
  savg::AppendFrame(savg::FrameKind::kOk, 1, 0, reply_payload, &reply_frame);
  savg::FrameReader reader;
  reader.Feed(frame.data(), frame.size());
  reader.Feed(reply_frame.data(), reply_frame.size());
  savg::FrameHeader header;
  std::string body;
  size_t consumed = 0;
  bool ok = reader.Next(&header, &body).value_or(false);
  auto decoded = savg::DecodeCommand(body.data(), body.size(), &consumed);
  ok = ok && decoded.ok() && *decoded == command;
  ok = ok && reader.Next(&header, &body).value_or(false);
  auto decoded_reply = savg::DecodeApplyResult(body.data(), body.size());
  ok = ok && decoded_reply.ok() &&
       decoded_reply->scaled_total == reply.scaled_total;
  const double seconds = SecondsSince(start);
  if (!ok) *error = "wire codec round trip changed a request or reply";
  return seconds;
}

/// Start gate for the client threads: set-up ends when every client has
/// its cold solve back; the timed phase starts for all of them at once.
class Gate {
 public:
  explicit Gate(int parties) : waiting_(parties) {}
  void ArriveAndWait() {
    std::unique_lock<std::mutex> lock(mu_);
    if (--waiting_ == 0) cv_.notify_all();
    cv_.wait(lock, [&] { return open_; });
  }
  void WaitForAll() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return waiting_ == 0; });
  }
  void Open() {
    std::lock_guard<std::mutex> lock(mu_);
    open_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int waiting_;
  bool open_ = false;
};

/// Replays one session's stream; false after a transport failure.
bool DriveSession(savg::ServeClient* client, int session_id,
                  const ClientPlan& plan, bool traced, SessionLog* log) {
  log->samples.reserve(plan.stream.size());
  for (const SessionCommand& command : plan.stream) {
    const bool resolve = command.type == CommandType::kResolve;
    const Clock::time_point start = Clock::now();
    auto response = client->Apply(session_id, command, traced);
    const int64_t rtt = std::chrono::duration_cast<std::chrono::nanoseconds>(
                            Clock::now() - start)
                            .count();
    ++log->attempted;
    if (!response.ok()) {
      log->error = "transport: " + response.status().ToString();
      ++log->failed;
      return false;
    }
    if (response->kind != savg::FrameKind::kOk || !response->result.ok()) {
      ++log->failed;
      continue;
    }
    log->samples.push_back({response->request_id, resolve, rtt});
    if (resolve) log->resolve_totals.push_back(response->result.scaled_total);
    if (traced) {
      std::string codec_error;
      log->codec_seconds += TimeCodec(command, response->result, &codec_error);
      ++log->codec_ops;
      if (!codec_error.empty()) log->error = codec_error;
    }
  }
  return true;
}

/// One closed-loop client: a connection that drives `sessions` one after
/// another, one request in flight at a time.
void RunClient(int port, std::vector<int> sessions,
               const std::vector<ClientPlan>* plans, bool traced, Gate* gate,
               std::vector<SessionLog>* logs) {
  savg::ServeClient client;
  savg::Status connected = client.Connect("127.0.0.1", port);
  bool ok = true;
  for (int id : sessions) {
    SessionLog* log = &(*logs)[id];
    auto first = connected.ok()
                     ? client.Apply(id, savg::MakeResolve())
                     : savg::Result<savg::ServeResponse>(connected);
    if (!first.ok() || !first->result.ok()) {
      log->error = first.ok() ? first->result.message
                              : first.status().ToString();
      ok = false;
      break;
    }
    log->resolve_totals.push_back(first->result.scaled_total);
  }
  gate->ArriveAndWait();
  for (int id : sessions) {
    if (!ok) return;
    ok = DriveSession(&client, id, (*plans)[id], traced, &(*logs)[id]);
  }
}

savg::ServerOptions MakeServerOptions(bool ingest, int clients, bool traced,
                                      size_t commands,
                                      const std::string& data_dir) {
  savg::ServerOptions options;
  options.num_workers = clients;
  // Clock- and sampling-driven background work is off: it would make two
  // runs of the same streams do different work.
  options.metrics_interval_seconds = 0.0;
  options.trace.sample_every = 0;  // only wire-flagged requests trace
  options.trace.slow_seconds = 0.0;
  options.trace.buffer_traces = traced ? commands + 16 : 16;
  options.verify.sample_every = 0;
  if (ingest) {
    options.durability.data_dir = data_dir;
    options.durability.snapshot_interval_seconds = 0.0;
    options.durability.snapshot_every_commands = kSnapshotEveryCommands;
    options.durability.final_snapshot_on_shutdown = false;
  }
  return options;
}

int64_t CounterValue(savg::ServeServer* server, const char* name) {
  return server->metrics().GetCounter(name)->value();
}

RoundOutput RunRound(const RunOptions& options, bool ingest, bool traced) {
  // The server's and clients' threads inherit the pin; the README says
  // why the serve rounds do not spread over CPUs, and what that hides.
  const OneCpu pin;
  RoundOutput out;
  const int clients = NumClients();
  const std::string data_dir = options.work_dir + "/serve-data";
  std::error_code ignored;
  std::filesystem::remove_all(data_dir, ignored);
  if (ingest) std::filesystem::create_directories(data_dir, ignored);

  const Clock::time_point setup_start = Clock::now();
  out.plans = MakePlans(options, ingest, &out.generate_seconds, &out.error);
  if (!out.error.empty()) return out;
  size_t commands = 0;
  for (const ClientPlan& plan : out.plans) commands += plan.stream.size();

  auto server = std::make_unique<savg::ServeServer>(
      MakeServerOptions(ingest, clients, traced, commands, data_dir));
  for (const ClientPlan& plan : out.plans) {
    server->CreateSession(plan.instance, savg::SessionOptions{});
  }
  savg::Status started = server->Start();
  if (!started.ok()) {
    out.error = "server start: " + started.ToString();
    return out;
  }

  const int sessions = static_cast<int>(out.plans.size());
  out.logs.resize(sessions);
  Gate gate(clients);
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    std::vector<int> owned;
    for (int id = c; id < sessions; id += clients) owned.push_back(id);
    threads.emplace_back(RunClient, server->port(), owned, &out.plans,
                         traced, &gate, &out.logs);
  }
  gate.WaitForAll();
  out.setup_seconds = SecondsSince(setup_start);
  const Clock::time_point timed_start = Clock::now();
  gate.Open();
  for (std::thread& thread : threads) thread.join();
  out.timed_seconds = SecondsSince(timed_start);
  for (const SessionLog& log : out.logs) {
    if (!log.error.empty()) out.error = log.error;
  }

  server->manager().Drain();
  for (int i = 0; i < sessions; ++i) {
    out.live_digests.push_back(savg::SessionStateDigest(
        server->manager().session(i).CaptureState()));
  }
  int64_t resolves = 0;
  for (const SessionLog& log : out.logs) {
    resolves += static_cast<int64_t>(log.resolve_totals.size());
  }
  out.fingerprint = {
      {"commands", static_cast<int64_t>(commands)},
      {"resolves", resolves},
      {"resolves_cold", CounterValue(server.get(), "resolve.cold")},
      {"resolves_incremental",
       CounterValue(server.get(), "resolve.incremental")},
      {"resolves_cold_fallback",
       CounterValue(server.get(), "resolve.cold_fallback")},
      {"resolves_coalesced",
       CounterValue(server.get(), "serve.resolves_coalesced")},
      {"pivots", CounterValue(server.get(), "lp.pivots")},
      {"refactorizations", CounterValue(server.get(), "lp.refactorizations")},
      {"journal_appends", CounterValue(server.get(), "durability.appends")},
      {"fsyncs", CounterValue(server.get(), "durability.fsyncs")},
      {"snapshots", CounterValue(server.get(), "durability.snapshots")},
  };
  out.fsync_mean_seconds =
      server->metrics().GetHistogram("durability.fsync_latency")->mean();
  if (traced) out.traces = server->tracer().LastTraces(commands + 16);

  int64_t replayed = 0;
  if (ingest) {
    // Crash restart: nothing is flushed or snapshotted past what the
    // journal already wrote; recovery reads the data directory while the
    // server that wrote it is idle.
    savg::RecoveryManager recovery(data_dir, savg::SessionOptions{});
    for (int i = 0; i < sessions; ++i) {
      const Clock::time_point start = Clock::now();
      auto recovered = recovery.RecoverSession(static_cast<uint32_t>(i));
      out.recover_seconds.push_back(SecondsSince(start));
      if (!recovered.ok()) {
        out.error = "recovery: " + recovered.status().ToString();
        break;
      }
      replayed += static_cast<int64_t>(recovered->replayed_commands);
      if (savg::SessionStateDigest(recovered->session->CaptureState()) !=
          out.live_digests[i]) {
        out.error = "session " + std::to_string(i) +
                    " recovered to a different state than it crashed in";
      }
    }
  }
  out.fingerprint.push_back({"replayed_commands", replayed});
  server.reset();
  std::filesystem::remove_all(data_dir, ignored);
  return out;
}

/// Replays one session's commands serially through Session::Apply and checks
/// every served resolve against it: the same scaled total, a valid
/// configuration whose recomputed objective matches, and a ratio to a
/// certified LP bound of at most 1. The final state must digest like the
/// served session's.
std::string ReplayAndCheck(const ClientPlan& plan, const SessionLog& log,
                           uint64_t live_digest, std::vector<double>* ratios,
                           std::vector<double>* evaluate_seconds) {
  savg::Session session(plan.instance, savg::SessionOptions{});
  size_t resolve_index = 0;
  auto apply = [&](const SessionCommand& command) -> std::string {
    auto outcome = session.Apply(command);
    if (!outcome.ok()) return "replay: " + outcome.status().ToString();
    if (!outcome->resolved) return "";
    const double reported = outcome->report.scaled_total;
    if (resolve_index >= log.resolve_totals.size() ||
        log.resolve_totals[resolve_index] != reported) {
      return "resolve " + std::to_string(resolve_index) +
             " served a different total than the serial replay";
    }
    ++resolve_index;
    const SvgicInstance& instance = session.instance();
    const std::string invalid = CheckConfiguration(instance, session.config());
    if (!invalid.empty()) return invalid;
    const double total = RecomputeScaledTotal(instance, session.config());
    if (RelDiff(total, reported) > 1e-6) {
      std::ostringstream why;
      why << "resolve reports " << reported << ", recomputed " << total;
      return why.str();
    }
    const Clock::time_point start = Clock::now();
    const double evaluated =
        savg::Evaluate(instance, session.config()).ScaledTotal();
    evaluate_seconds->push_back(SecondsSince(start));
    if (evaluated != reported) return "core/objective disagrees with resolve";
    double bound = 0.0;
    bool fractional = false;
    const std::string why = CertifiedLpBound(instance, &bound, &fractional);
    if (!why.empty()) return why;
    if (!(total <= bound * (1.0 + 1e-6))) {
      return "configuration beats the certified LP bound";
    }
    ratios->push_back(total / bound);
    return "";
  };
  std::string why = apply(savg::MakeResolve());
  for (size_t i = 0; i < plan.stream.size() && why.empty(); ++i) {
    why = apply(plan.stream[i]);
  }
  if (!why.empty()) return why;
  if (resolve_index != log.resolve_totals.size()) {
    return "served more resolves than the replay";
  }
  if (savg::SessionStateDigest(session.CaptureState()) != live_digest) {
    return "served session state differs from the serial replay";
  }
  return "";
}

/// Per-command layer times from one request's server trace (nanoseconds).
struct Ledger {
  int64_t residual = 0, admission = 0, defer = 0, apply_self = 0;
  int64_t build = 0, solve_self = 0, round = 0, unattributed = 0;
  int64_t presolve = 0, pricing = 0, ratio_test = 0, ftran = 0, btran = 0,
          factor = 0;
  int64_t solve = 0, pivots = 0, refactorizations = 0;
  int64_t rtt = 0;
};

int64_t CounterOf(const savg::TraceSpan& span, const char* key) {
  for (const auto& [name, value] : span.counters) {
    if (name == key) return value;
  }
  return 0;
}

Ledger LedgerOf(const savg::Trace& trace, int64_t rtt) {
  Ledger l;
  l.rtt = rtt;
  l.residual = rtt - trace.total_nanos;
  int64_t top = 0;
  std::vector<int64_t> child_sum(trace.spans.size(), 0);
  for (const savg::TraceSpan& span : trace.spans) {
    if (span.parent >= 0) child_sum[span.parent] += span.duration_nanos;
  }
  for (size_t i = 0; i < trace.spans.size(); ++i) {
    const savg::TraceSpan& span = trace.spans[i];
    const int64_t self = span.duration_nanos - child_sum[i];
    if (span.parent < 0) top += span.duration_nanos;
    const std::string& name = span.name;
    if (name == "admission.wait") l.admission += span.duration_nanos;
    else if (name == "coalesce.defer") l.defer += span.duration_nanos;
    else if (name == "session.apply") l.apply_self += self;
    else if (name == "lp.build") l.build += span.duration_nanos;
    else if (name == "lp.solve") {
      l.solve += span.duration_nanos;
      l.solve_self += self;
      l.pivots += CounterOf(span, "pivots");
      l.refactorizations += CounterOf(span, "refactorizations");
    }
    else if (name == "lp.presolve") l.presolve += span.duration_nanos;
    else if (name == "lp.pricing") l.pricing += span.duration_nanos;
    else if (name == "lp.ratio_test") l.ratio_test += span.duration_nanos;
    else if (name == "lp.ftran") l.ftran += span.duration_nanos;
    else if (name == "lp.btran") l.btran += span.duration_nanos;
    else if (name == "lp.factor") l.factor += span.duration_nanos;
    else if (name == "csf.round") l.round += span.duration_nanos;
  }
  l.unattributed = trace.total_nanos - top;
  return l;
}

void PrintLedger(const char* kind, const std::vector<Ledger>& ledgers) {
  if (ledgers.empty()) return;
  const double n = static_cast<double>(ledgers.size());
  auto mean_ms = [&](int64_t Ledger::*field) {
    double sum = 0.0;
    for (const Ledger& l : ledgers) sum += static_cast<double>(l.*field);
    return sum / n / 1e6;
  };
  const double rtt = mean_ms(&Ledger::rtt);
  std::printf("ledger %s (%zu traced commands, mean self ms per command)\n",
              kind, ledgers.size());
  const std::pair<const char*, int64_t Ledger::*> rows[] = {
      {"client+wire (residual)", &Ledger::residual},
      {"admission.wait", &Ledger::admission},
      {"coalesce.defer", &Ledger::defer},
      {"session.apply (self)", &Ledger::apply_self},
      {"lp.build", &Ledger::build},
      {"lp.solve (self)", &Ledger::solve_self},
      {"lp.presolve", &Ledger::presolve},
      {"lp.pricing", &Ledger::pricing},
      {"lp.ratio_test", &Ledger::ratio_test},
      {"lp.ftran", &Ledger::ftran},
      {"lp.btran", &Ledger::btran},
      {"lp.factor", &Ledger::factor},
      {"csf.round", &Ledger::round},
      {"unattributed", &Ledger::unattributed},
  };
  for (const auto& [name, field] : rows) {
    const double ms = mean_ms(field);
    std::printf("  %-24s %10.4f ms %6.1f%%\n", name, ms,
                rtt > 0 ? 100.0 * ms / rtt : 0.0);
  }
  std::printf("  %-24s %10.4f ms\n", "client round trip", rtt);
}

}  // namespace

RunResult RunServe(const RunOptions& options, bool ingest) {
  RunResult result;
  std::vector<double> setup_seconds, generate_seconds, recover_seconds;
  std::vector<double> resolve_ms, command_ms, ratios, evaluate_seconds;
  std::vector<double> fsync_means;
  std::vector<double> round_rates;  // commands per second of each round
  std::vector<Ledger> resolve_ledgers, mutation_ledgers;
  double timed_seconds = 0.0, traced_seconds = 0.0, untraced_seconds = 0.0;
  int64_t traced_ops = 0, untraced_ops = 0;
  double codec_seconds = 0.0;
  int64_t codec_ops = 0;
  std::vector<uint64_t> first_digests;
  double peak_rss_mb = 0.0;

  for (int round = 0; round < 3 || timed_seconds < options.seconds; ++round) {
    // Traced runs alternate: odd rounds set the wire trace flag.
    const bool traced = options.trace && round % 2 == 1;
    RoundOutput out = RunRound(options, ingest, traced);
    if (out.logs.empty()) {
      result.Fail(out.error);
      return result;
    }
    if (!out.error.empty()) result.Fail("round " + std::to_string(round) +
                                         ": " + out.error);
    setup_seconds.push_back(out.setup_seconds);
    generate_seconds.insert(generate_seconds.end(),
                            out.generate_seconds.begin(),
                            out.generate_seconds.end());
    recover_seconds.insert(recover_seconds.end(), out.recover_seconds.begin(),
                           out.recover_seconds.end());
    fsync_means.push_back(out.fsync_mean_seconds);
    timed_seconds += out.timed_seconds;
    int64_t round_ops = 0;
    for (const SessionLog& log : out.logs) round_ops += log.attempted;
    round_rates.push_back(double(round_ops) / out.timed_seconds);
    std::printf("round %d setup %.4f s timed %.4f s ops %lld%s\n", round,
                out.setup_seconds, out.timed_seconds,
                static_cast<long long>(round_ops), traced ? " traced" : "");
    std::map<std::pair<uint32_t, uint64_t>, const Sample*> by_request;
    for (size_t c = 0; c < out.logs.size(); ++c) {
      const SessionLog& log = out.logs[c];
      result.attempted += log.attempted;
      result.failed += log.failed;
      codec_seconds += log.codec_seconds;
      codec_ops += log.codec_ops;
      for (const Sample& s : log.samples) {
        const double ms = NsToMs(s.rtt_nanos);
        command_ms.push_back(ms);
        if (s.resolve) resolve_ms.push_back(ms);
        by_request[{static_cast<uint32_t>(c), s.request_id}] = &s;
      }
    }
    (traced ? traced_seconds : untraced_seconds) += out.timed_seconds;
    (traced ? traced_ops : untraced_ops) += round_ops;
    for (const savg::Trace& trace : out.traces) {
      auto it = by_request.find({trace.session_id, trace.request_id});
      if (it == by_request.end()) continue;
      const Ledger ledger = LedgerOf(trace, it->second->rtt_nanos);
      (it->second->resolve ? resolve_ledgers : mutation_ledgers)
          .push_back(ledger);
    }

    if (result.rounds == 0) {
      // Memory is read after round one: later rounds repeat its work, while
      // the benchmark's own sample buffers grow with the run's length.
      peak_rss_mb = PeakRssMb();
      result.fingerprint = out.fingerprint;
      first_digests = out.live_digests;
      // Round one is checked against a serial in-process replay, on as
      // many threads as there are clients.
      const size_t sessions = out.plans.size();
      std::vector<std::string> why(sessions);
      std::vector<std::vector<double>> session_ratios(sessions),
          session_eval(sessions);
      std::vector<std::thread> threads;
      const size_t workers = static_cast<size_t>(NumClients());
      for (size_t w = 0; w < workers; ++w) {
        threads.emplace_back([&, w] {
          for (size_t s = w; s < sessions; s += workers) {
            why[s] = ReplayAndCheck(out.plans[s], out.logs[s],
                                    out.live_digests[s], &session_ratios[s],
                                    &session_eval[s]);
          }
        });
      }
      for (std::thread& thread : threads) thread.join();
      for (size_t s = 0; s < sessions; ++s) {
        if (!why[s].empty()) {
          result.Fail("session " + std::to_string(s) + ": " + why[s]);
        }
        ratios.insert(ratios.end(), session_ratios[s].begin(),
                      session_ratios[s].end());
        evaluate_seconds.insert(evaluate_seconds.end(),
                                session_eval[s].begin(),
                                session_eval[s].end());
      }
      if (Count(result.fingerprint, "resolves_coalesced") != 0) {
        result.Fail("the closed loop coalesced resolves");
      }
    } else if (out.fingerprint != result.fingerprint ||
               out.live_digests != first_digests) {
      result.Fail("round " + std::to_string(round) +
                  " did not repeat round one's work and final states");
    }
    ++result.rounds;
  }

  auto& m = result.metrics;
  if (!options.trace) {
    m["setup_s"] = Median(setup_seconds);
    m["ops_per_s"] = Median(round_rates);
    m["solve_p50_ms"] = Quantile(resolve_ms, 0.5);
    m["solve_tail_ms"] = Quantile(resolve_ms, 0.95);
    m["command_p50_ms"] = Quantile(command_ms, 0.5);
    m["utility_ratio"] = Mean(ratios);
    m["peak_rss_mb"] = peak_rss_mb;
    return result;
  }

  PrintLedger("resolve", resolve_ledgers);
  PrintLedger("mutation", mutation_ledgers);
  std::vector<Ledger> all = resolve_ledgers;
  all.insert(all.end(), mutation_ledgers.begin(), mutation_ledgers.end());
  // Mean of one ledger field; `scale` 1e-6 turns nanoseconds into ms.
  auto mean = [](const std::vector<Ledger>& ledgers, int64_t Ledger::*field,
                 double scale = 1e-6) {
    double sum = 0.0;
    for (const Ledger& l : ledgers) sum += double(l.*field) * scale;
    return ledgers.empty() ? 0.0 : sum / double(ledgers.size());
  };
  const std::vector<Ledger>& resolves = resolve_ledgers;
  m["lp.solve_ms"] = mean(resolves, &Ledger::solve);
  m["lp.pivots"] = mean(resolves, &Ledger::pivots, 1.0);
  m["lp.refactorizations"] = mean(resolves, &Ledger::refactorizations, 1.0);
  m["lp.factor_ms"] = mean(resolves, &Ledger::factor);
  m["lp.ftran_ms"] = mean(resolves, &Ledger::ftran);
  m["lp.btran_ms"] = mean(resolves, &Ledger::btran);
  m["lp.pricing_ms"] = mean(resolves, &Ledger::pricing);
  m["lp.ratio_test_ms"] = mean(resolves, &Ledger::ratio_test);
  m["lp.presolve_ms"] = mean(resolves, &Ledger::presolve);
  m["core.build_lp_ms"] = mean(resolves, &Ledger::build);
  m["core.round_ms"] = mean(resolves, &Ledger::round);
  m["core.evaluate_ms"] = Mean(evaluate_seconds) * 1e3;
  m["online.apply_ms"] = mean(mutation_ledgers, &Ledger::apply_self);
  const auto& fp = result.fingerprint;
  const double incremental = double(Count(fp, "resolves_incremental"));
  const double solves = incremental + double(Count(fp, "resolves_cold")) +
                        double(Count(fp, "resolves_cold_fallback"));
  m["online.incremental_share"] = solves > 0 ? incremental / solves : 0.0;
  m["serve.codec_us"] =
      codec_ops > 0 ? codec_seconds / double(codec_ops) * 1e6 : 0.0;
  m["serve.admission_wait_ms"] = mean(all, &Ledger::admission);
  m["serve.residual_ms"] = mean(all, &Ledger::residual);
  m["durability.appends"] = double(Count(fp, "journal_appends"));
  m["durability.fsyncs"] = double(Count(fp, "fsyncs"));
  m["durability.snapshots"] = double(Count(fp, "snapshots"));
  m["durability.fsync_ms"] = Mean(fsync_means) * 1e3;
  m["durability.replayed_commands"] = double(Count(fp, "replayed_commands"));
  m["durability.recover_session_ms"] = Mean(recover_seconds) * 1e3;
  m["datagen.generate_ms"] = Mean(generate_seconds) * 1e3;
  m["unattributed_ms"] = mean(all, &Ledger::unattributed);
  m["trace.ops_ratio"] =
      OpsRatio(traced_ops, traced_seconds, untraced_ops, untraced_seconds);
  std::printf("coalesce.defer mean %.6f ms over %zu traced commands\n",
              mean(all, &Ledger::defer), all.size());
  return result;
}

}  // namespace perfbench
