// perfbench — the repository benchmark (README.md in this directory).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out-dir <dir>]
//
// One process runs one workload on one thread, through the library's
// public functions only, and checks every session's answer against a
// plaintext reference. --trace 0 prints the end-to-end metrics; --trace 1
// runs the traced pass and prints the per-layer metrics, writing a Chrome
// trace and one JSONL record per session into --out-dir. The last line of
// stdout is the result object; the line before it is the environment.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <exception>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "check.h"
#include "core/bucket_eq.h"
#include "core/engine.h"
#include "core/verification_tree.h"
#include "eq/equality.h"
#include "hashing/mask_hash.h"
#include "hashing/primes.h"
#include "obs/json.h"
#include "obs/tracer.h"
#include "runtime/scheduler.h"
#include "setint.h"
#include "sim/channel.h"
#include "sim/chaos.h"
#include "sim/fault.h"
#include "sim/randomness.h"
#include "simd/dispatch.h"
#include "spans.h"
#include "util/bitio.h"
#include "util/rng.h"
#include "util/set_util.h"

namespace {

using namespace setint;
using perfbench::Outcome;
using perfbench::SpanRecorder;
using Clock = std::chrono::steady_clock;

double us_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------- workloads

enum class Kind { kFacade, kService };

struct Spec {
  const char* name;
  Kind kind;
  std::size_t k;          // facade workloads: |S| = |T| = k, |S cap T| = k/2
  bool lossy;             // facade with a fault plan and a chaos plan
  std::size_t window;     // count metrics cover the first `window` sessions
  double pool_per_s;      // input pairs generated per measured second
  std::size_t warmup;     // untimed sessions before the timed phase
};

// Why each workload exists is recorded in README.md. tree_k4096 is for
// manual runs only: on a shared host its p50 is too unsteady for a bound.
constexpr Spec kSpecs[] = {
    {"tree_k512", Kind::kFacade, 512, false, 256, 250.0, 24},
    {"tree_k4096", Kind::kFacade, 4096, false, 128, 12.0, 3},
    {"service_small", Kind::kService, 0, false, 4096, 1500.0, 512},
    {"lossy_k256", Kind::kFacade, 256, true, 2048, 300.0, 48},
};

constexpr std::uint64_t kFacadeUniverse = std::uint64_t{1} << 30;
constexpr std::uint64_t kServiceUniverse = std::uint64_t{1} << 20;
// Sessions per runtime::run_service call on service_small. The per-session
// wall time of that workload is each call's time divided by this.
constexpr std::size_t kServiceBatch = 256;
// Set-up (input generation) is repeated this many times and the median
// reported, so one allocator or page-fault hiccup cannot move it.
constexpr int kSetupReps = 3;
// Seed salts: timed sessions and warm-up sessions draw disjoint seeds.
constexpr std::uint64_t kTimedSalt = 0x1A7E;
constexpr std::uint64_t kWarmupSalt = 0x3A53;

const Spec* find_spec(std::string_view name) {
  for (const Spec& spec : kSpecs) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

struct Pair {
  util::Set s;
  util::Set t;
};

// The run's input pairs. Session i uses pair i mod pool size with its own
// protocol seed, so a run that outpaces the pool still gets fresh
// randomness (and fresh prime draws) on every session.
std::vector<Pair> make_pool(const Spec& spec, std::uint64_t seed,
                            std::size_t count) {
  std::vector<Pair> pool(count);
  util::Rng rng(util::mix64(seed, 0x9001));
  for (Pair& pair : pool) {
    util::SetPair drawn;
    if (spec.kind == Kind::kFacade) {
      drawn = util::random_set_pair(rng, kFacadeUniverse, spec.k, spec.k / 2);
    } else {
      // k uniform in [8, 128], overlap uniform in [0, k].
      const std::size_t k = 8 + rng.below(121);
      drawn = util::random_set_pair(rng, kServiceUniverse, k, rng.below(k + 1));
    }
    pair.s = std::move(drawn.s);
    pair.t = std::move(drawn.t);
  }
  return pool;
}

std::uint64_t session_seed(std::uint64_t seed, std::uint64_t salt,
                           std::uint64_t i) {
  return util::mix64(seed, util::mix64(salt, i));
}

// Session g of service_small: machine kinds round robin over the pool.
struct ServiceInput {
  std::string_view kind;
  core::MachineConfig cfg;
};

ServiceInput service_input(const std::vector<Pair>& pool, std::uint64_t seed,
                           std::uint64_t salt, std::uint64_t g) {
  ServiceInput in;
  in.kind = core::kMachineKinds[g % 4];
  const Pair& pair = pool[g % pool.size()];
  in.cfg.seed = session_seed(seed, salt, 2 * g);
  in.cfg.nonce = session_seed(seed, salt, 2 * g + 1);
  in.cfg.universe = kServiceUniverse;
  in.cfg.s = pair.s;
  in.cfg.t = pair.t;
  return in;
}

using Machines = std::vector<std::unique_ptr<core::ProtocolMachine>>;

Machines make_batch(const std::vector<Pair>& pool, std::uint64_t seed,
                    std::uint64_t salt, std::size_t batch) {
  Machines machines;
  machines.reserve(kServiceBatch);
  for (std::size_t j = 0; j < kServiceBatch; ++j) {
    ServiceInput in = service_input(pool, seed, salt, batch * kServiceBatch + j);
    machines.push_back(core::make_machine(in.kind, std::move(in.cfg)));
  }
  return machines;
}

runtime::SchedulerOptions service_options(std::uint64_t seed,
                                          std::uint64_t batch) {
  runtime::SchedulerOptions opts;
  opts.seed = util::mix64(seed, util::mix64(0x5C4E, batch));
  opts.shuffle = true;
  opts.max_ack_latency = 4;
  opts.chunk_bytes = 7;
  opts.arrival_window = 256;
  return opts;
}

// ------------------------------------------------------------- facade calls

struct FacadeRun {
  IntersectResult result;
  double us = 0;
  std::uint64_t faults = 0;
};

FacadeRun run_facade(const Spec& spec, const Pair& in, std::uint64_t seed,
                     obs::Tracer* tracer) {
  IntersectOptions options;
  options.universe = kFacadeUniverse;
  options.seed = seed;
  options.tracer = tracer;
  std::unique_ptr<sim::FaultPlan> faults;
  std::unique_ptr<sim::ChaosPlan> chaos;
  if (spec.lossy) {
    faults = std::make_unique<sim::FaultPlan>(
        sim::FaultSpec{.flip_per_bit = 1e-4,
                       .drop_prob = 0.02,
                       .seed = util::mix64(seed, 0xFA17)});
    sim::ChaosSpec chaos_spec;
    chaos_spec.seed = util::mix64(seed, 0xC4A0);
    chaos_spec.crash.crash_prob = 0.01;
    chaos_spec.crash.restart_ticks = 4;
    chaos = std::make_unique<sim::ChaosPlan>(chaos_spec, seed);
    options.fault_plan = faults.get();
    options.chaos_plan = chaos.get();
  }
  FacadeRun run;
  const auto t0 = Clock::now();
  run.result = setint::intersect(in.s, in.t, options);
  run.us = us_since(t0);
  if (faults) run.faults = faults->stats().faults_injected;
  return run;
}

// ------------------------------------------------------------------- tallies

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t idx =
      rank < 1.0 ? 0 : std::min(values.size(), static_cast<std::size_t>(rank)) - 1;
  return values[idx];
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

// Whole-run correctness and timing, plus exact counts over the first
// Spec::window sessions so that they repeat between runs of one seed
// however many sessions the time box admits.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t elements = 0;
  double phase_s = 0;
  std::vector<double> session_us;

  std::uint64_t win_sessions = 0;
  std::uint64_t win_elements = 0;
  std::uint64_t win_bits = 0;
  std::uint64_t win_rounds = 0;
  std::uint64_t win_messages = 0;
  std::uint64_t win_exact = 0;
  std::uint64_t win_attempts = 0;
  std::uint64_t win_restarts = 0;
  std::uint64_t win_bits_replayed = 0;
  std::uint64_t win_faults = 0;
  std::uint64_t win_prime_lookups = 0;
  std::uint64_t win_prime_hits = 0;
  std::uint64_t win_events = 0;
  std::uint64_t win_parks = 0;
  obs::HdrHistogram win_completion;
};

// Per-layer samples of the traced pass.
struct LayerTimes {
  std::vector<double> vt_us, cert_us, bucket_eq_us, self_us;
  std::vector<double> is_prime_ns, mask_ns_per_kbit, codec_ns_per_elem,
      send_ns_per_msg;
  std::vector<double> traced_call_us, untraced_call_us;
  double coverage_num = 0, coverage_den = 0;
  double blocking_us = 0, service_call_us = 0;
};

struct Env {
  const Spec* spec = nullptr;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string out_dir;
};

// ---------------------------------------------------------- layer replays

struct LayerSample {
  double vt_us = 0;
  double cert_us = 0;
};

// Replays one session's layers from outside, each under its own span right
// after the session so both see the same host phase: the verification
// tree and the 2k-bit certificate with the facade's parameters and seed,
// bucket-EQ on the same inputs, the gamma set codec, and micro-timings of
// is_prime, the wide mask hash and Channel::send.
LayerSample replay_layers(SpanRecorder& rec, std::uint32_t parent,
                          std::uint64_t session, util::SetView s,
                          util::SetView t, std::uint64_t seed,
                          std::uint64_t mean_msg_bits, LayerTimes& out) {
  LayerSample sample;
  const std::uint64_t universe = kFacadeUniverse;
  const std::size_t k = std::max<std::size_t>({s.size(), t.size(), 2});
  const sim::SharedRandomness shared(seed);
  // The facade call just drew these primes; without a cold memo the
  // replays would find them all cached.
  hashing::prime_cache_clear();
  {
    sim::Channel channel;
    const std::uint32_t id = rec.open("core.vt", session, parent);
    core::verification_tree_intersection(channel, shared,
                                         util::mix64(seed, 0), universe, s, t,
                                         core::VerificationTreeParams{});
    sample.vt_us = rec.close(id);
  }
  const util::Set both = util::set_intersection(s, t);
  util::BitBuffer cert_buffer;
  {
    sim::Channel channel;
    const std::uint32_t id = rec.open("eq.certificate", session, parent);
    util::BitBuffer ca;
    util::append_set(ca, both);
    util::BitBuffer cb;
    util::append_set(cb, both);
    eq::equality_test(channel, shared,
                      util::mix64(seed, util::mix64(0xCE27, 0)), ca, cb,
                      2 * k);
    sample.cert_us = rec.close(id);
    cert_buffer = std::move(ca);
  }
  hashing::prime_cache_clear();
  {
    sim::Channel channel;
    const std::uint32_t id = rec.open("core.bucket_eq", session, parent);
    core::bucket_eq_intersection(channel, shared, util::mix64(seed, 0xBE),
                                 universe, s, t);
    out.bucket_eq_us.push_back(rec.close(id));
  }
  {
    const std::uint32_t id = rec.open("util.codec", session, parent);
    util::BitBuffer buffer;
    util::append_set(buffer, s);
    util::append_set(buffer, t);
    util::BitReader reader(buffer);
    const util::Set s2 = util::read_set(reader);
    const util::Set t2 = util::read_set(reader);
    const double us = rec.close(id);
    if (s2.size() != s.size() || t2.size() != t.size()) {
      throw std::runtime_error("codec round trip lost elements");
    }
    out.codec_ns_per_elem.push_back(
        1000.0 * us / static_cast<double>(s.size() + t.size()));
  }
  {
    constexpr int kCandidates = 16;
    util::Rng rng(util::mix64(seed, 0x9121));
    std::uint64_t candidates[2 * kCandidates];
    for (int i = 0; i < kCandidates; ++i) {
      candidates[i] = (rng.next() >> 32) | 1 | (std::uint64_t{1} << 31);
      candidates[kCandidates + i] =
          (rng.next() >> 2) | 1 | (std::uint64_t{1} << 61);
    }
    const std::uint32_t id = rec.open("hashing.is_prime", session, parent);
    for (const std::uint64_t c : candidates) hashing::is_prime(c);
    out.is_prime_ns.push_back(1000.0 * rec.close(id) / (2 * kCandidates));
  }
  {
    util::BitBuffer hashed;
    const util::Rng stream(util::mix64(seed, 0x3A5C));
    const std::uint32_t id = rec.open("hashing.mask_hash", session, parent);
    hashing::mask_hash_wide(cert_buffer, 2 * k, stream, hashed);
    const double us = rec.close(id);
    out.mask_ns_per_kbit.push_back(
        1000.0 * us /
        (std::max<std::size_t>(cert_buffer.size_bits(), 1) / 1000.0));
  }
  {
    constexpr int kSends = 16;
    util::BitBuffer payload;
    util::Rng rng(util::mix64(seed, 0x5E4D));
    for (std::uint64_t left = std::max<std::uint64_t>(mean_msg_bits, 1);
         left > 0;) {
      const unsigned w = static_cast<unsigned>(std::min<std::uint64_t>(left, 64));
      payload.append_bits(rng.next() >> (64 - w), w);
      left -= w;
    }
    std::vector<util::BitBuffer> payloads(kSends, payload);
    sim::Channel channel;
    const std::uint32_t id = rec.open("sim.send", session, parent);
    for (int i = 0; i < kSends; ++i) {
      channel.send(i % 2 == 0 ? sim::PartyId::kAlice : sim::PartyId::kBob,
                   std::move(payloads[i]));
    }
    out.send_ns_per_msg.push_back(1000.0 * rec.close(id) / kSends);
  }
  out.vt_us.push_back(sample.vt_us);
  out.cert_us.push_back(sample.cert_us);
  return sample;
}

// ------------------------------------------------------------ trace output

struct TraceSink {
  SpanRecorder spans;
  std::vector<std::string> session_lines;
  obs::MetricsRegistry library_metrics;  // from obs::Tracer on facade calls
};

void write_file(const std::string& path, const std::string& body) {
  std::ofstream out(path, std::ios::binary);
  out << body;
  if (!out) throw std::runtime_error("cannot write " + path);
}

// ----------------------------------------------------------- facade runner

void run_facade_workload(const Env& env, const std::vector<Pair>& pool,
                         Tally& tally, LayerTimes& layers, TraceSink* sink) {
  const Spec& spec = *env.spec;
  for (std::size_t i = 0; i < spec.warmup; ++i) {
    run_facade(spec, pool[i % pool.size()],
               session_seed(env.seed, kWarmupSalt, i), nullptr);
  }

  const auto start = Clock::now();
  for (std::size_t i = 0;; ++i) {
    const Pair& in = pool[i % pool.size()];
    const std::uint64_t seed = session_seed(env.seed, kTimedSalt, i);
    const bool in_window = i < spec.window;
    // Traced pass: odd sessions run with the library's obs::Tracer
    // installed, even ones without, so obs.trace_overhead_share compares
    // the two under the same host phases.
    const bool traced = sink != nullptr && i % 2 == 1;
    std::unique_ptr<obs::Tracer> tracer;
    if (traced) tracer = std::make_unique<obs::Tracer>();
    std::uint32_t root = 0, call = 0;
    hashing::PrimeCacheStats before{};
    if (sink != nullptr) {
      // Cold prime memo, as the untraced pass sees it on a fresh seed
      // (the previous session's replays drew primes of their own).
      hashing::prime_cache_clear();
      before = hashing::prime_cache_stats();
      root = sink->spans.open("session", i);
      call = sink->spans.open(traced ? "facade.traced" : "facade", i, root);
    }
    FacadeRun run;
    Outcome outcome = Outcome::kWrong;
    try {
      run = run_facade(spec, in, seed, tracer.get());
      outcome = perfbench::check_facade(in.s, in.t, run.result);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "session %zu threw: %s\n", i, e.what());
    }
    if (outcome == Outcome::kWrong) {
      std::fprintf(stderr, "session %zu failed its output check\n", i);
    }
    const IntersectResult& r = run.result;
    const std::uint64_t elements = in.s.size() + in.t.size();
    tally.attempted += 1;
    tally.failed += outcome == Outcome::kWrong;
    tally.session_us.push_back(run.us);
    tally.elements += elements;
    if (in_window) {
      tally.win_sessions += 1;
      tally.win_elements += elements;
      tally.win_bits += r.bits;
      tally.win_rounds += r.rounds;
      tally.win_messages += r.report.cost.messages;
      tally.win_exact += outcome == Outcome::kExact;
      tally.win_attempts += r.repetitions;
      tally.win_restarts += r.restarts;
      tally.win_bits_replayed += r.bits_replayed;
      tally.win_faults += run.faults;
    }
    if (sink != nullptr) {
      sink->spans.close(call);
      const hashing::PrimeCacheStats after = hashing::prime_cache_stats();
      if (in_window) {
        tally.win_prime_lookups +=
            (after.hits + after.misses) - (before.hits + before.misses);
        tally.win_prime_hits += after.hits - before.hits;
      }
      if (tracer) sink->library_metrics.merge(tracer->metrics());
      (traced ? layers.traced_call_us : layers.untraced_call_us)
          .push_back(run.us);
      const std::uint64_t messages =
          std::max<std::uint64_t>(r.report.cost.messages, 1);
      const LayerSample sample = replay_layers(
          sink->spans, root, i, in.s, in.t, seed, r.bits / messages, layers);
      if (!traced) {
        layers.self_us.push_back(run.us - sample.vt_us);
        layers.coverage_num += sample.vt_us + sample.cert_us;
        layers.coverage_den += run.us;
      }
      sink->spans.close(root);
      obs::Json line = obs::Json::object();
      line.set("workload", spec.name);
      line.set("session", static_cast<std::uint64_t>(i));
      line.set("k", static_cast<std::uint64_t>(spec.k));
      line.set("rung", core::degrade_rung_name(r.rung));
      line.set("outcome", perfbench::outcome_name(outcome));
      line.set("traced", traced);
      line.set("bits", r.bits);
      line.set("rounds", r.rounds);
      line.set("attempts", r.repetitions);
      line.set("wall_us", run.us);
      line.set("vt_us", sample.vt_us);
      line.set("certificate_us", sample.cert_us);
      line.set("bucket_eq_us", layers.bucket_eq_us.back());
      sink->session_lines.push_back(line.dump());
    }
    if (i + 1 >= spec.window && us_since(start) >= env.seconds * 1e6) break;
  }
  tally.phase_s = us_since(start) / 1e6;
}

// ---------------------------------------------------------- service runner

struct ServiceSessionResult {
  runtime::SessionRecord record;
  std::uint64_t rounds = 0;
  std::uint64_t messages = 0;
};

// Closed loop of run_service calls, kServiceBatch sessions each. Machines
// are built right before their call, so the machine count alive at once
// stays bounded; building them counts towards sessions_per_s but not
// towards the per-call session time.
void run_service_workload(const Env& env, const std::vector<Pair>& pool,
                          Tally& tally, LayerTimes& layers, TraceSink* sink) {
  const Spec& spec = *env.spec;
  for (std::size_t b = 0; b * kServiceBatch < spec.warmup; ++b) {
    runtime::run_service(make_batch(pool, env.seed, kWarmupSalt, b),
                         service_options(env.seed ^ kWarmupSalt, b), 1);
  }

  // A deque grows without copying, so peak RSS tracks the session count
  // smoothly instead of jumping when a vector doubles.
  std::deque<ServiceSessionResult> results;
  const auto start = Clock::now();
  for (std::size_t b = 0;; ++b) {
    const bool in_window = (b + 1) * kServiceBatch <= spec.window;
    const bool traced = sink != nullptr && b % 2 == 1;
    Machines machines = make_batch(pool, env.seed, kTimedSalt, b);
    std::uint32_t root = 0;
    hashing::PrimeCacheStats before{};
    if (sink != nullptr) {
      hashing::prime_cache_clear();
      before = hashing::prime_cache_stats();
      root = sink->spans.open(traced ? "run_service.traced" : "run_service", b);
    }
    const auto t0 = Clock::now();
    runtime::ServiceRun run = runtime::run_service(
        std::move(machines), service_options(env.seed, b), 1);
    const double call_us = us_since(t0);
    tally.session_us.push_back(call_us / kServiceBatch);
    for (std::size_t j = 0; j < kServiceBatch; ++j) {
      ServiceSessionResult res;
      res.record = run.record(j);
      const sim::CostStats& cost = run.machine(j).channel().cost();
      res.rounds = cost.rounds;
      res.messages = cost.messages;
      results.push_back(res);
    }
    if (in_window) {
      tally.win_events += run.events_processed;
      tally.win_completion.merge(run.completion_ticks);
      for (std::size_t j = 0; j < kServiceBatch; ++j) {
        tally.win_parks += run.record(j).frame_parks;
      }
    }
    if (sink != nullptr) {
      sink->spans.close(root);
      const hashing::PrimeCacheStats after = hashing::prime_cache_stats();
      if (in_window) {
        tally.win_prime_lookups +=
            (after.hits + after.misses) - (before.hits + before.misses);
        tally.win_prime_hits += after.hits - before.hits;
      }
      (traced ? layers.traced_call_us : layers.untraced_call_us)
          .push_back(call_us);
      layers.service_call_us += call_us;
      // Per-session replays right after the call: the blocking engine run
      // of the same config, the facade on the same inputs, and the layer
      // replays.
      for (std::size_t j = 0; j < kServiceBatch; ++j) {
        const std::size_t g = b * kServiceBatch + j;
        const ServiceInput in = service_input(pool, env.seed, kTimedSalt, g);
        const ServiceSessionResult& res = results[g];
        const std::uint32_t sroot = sink->spans.open("session", g, root);
        hashing::prime_cache_clear();
        const std::uint32_t bid = sink->spans.open("blocking", g, sroot);
        perfbench::blocking_reference(in.kind, in.cfg);
        const double blocking_us = sink->spans.close(bid);
        layers.blocking_us += blocking_us;
        hashing::prime_cache_clear();
        IntersectOptions options;
        options.universe = kFacadeUniverse;
        options.seed = in.cfg.seed;
        const std::uint32_t fid = sink->spans.open("facade", g, sroot);
        const IntersectResult facade =
            setint::intersect(in.cfg.s, in.cfg.t, options);
        const double facade_us = sink->spans.close(fid);
        const LayerSample sample = replay_layers(
            sink->spans, sroot, g, in.cfg.s, in.cfg.t, in.cfg.seed,
            res.record.bits_total / std::max<std::uint64_t>(res.messages, 1),
            layers);
        layers.self_us.push_back(facade_us - sample.vt_us);
        layers.coverage_num += sample.vt_us + sample.cert_us;
        layers.coverage_den += facade_us;
        sink->spans.close(sroot);
        obs::Json line = obs::Json::object();
        line.set("workload", spec.name);
        line.set("session", static_cast<std::uint64_t>(g));
        line.set("kind", in.kind);
        line.set("k", static_cast<std::uint64_t>(
                          std::max(in.cfg.s.size(), in.cfg.t.size())));
        line.set("rung", core::machine_status_name(res.record.final_status));
        line.set("bits", res.record.bits_total);
        line.set("rounds", res.rounds);
        line.set("wall_us", call_us / kServiceBatch);
        line.set("blocking_us", blocking_us);
        line.set("facade_us", facade_us);
        line.set("facade_bits", facade.bits);
        line.set("vt_us", sample.vt_us);
        line.set("certificate_us", sample.cert_us);
        line.set("bucket_eq_us", layers.bucket_eq_us.back());
        sink->session_lines.push_back(line.dump());
      }
    }
    if ((b + 1) * kServiceBatch >= spec.window &&
        us_since(start) >= env.seconds * 1e6) {
      break;
    }
  }
  tally.phase_s = us_since(start) / 1e6;

  // Output check, untimed: every session against the blocking engine's run
  // of its config, whose outputs are in turn checked against plaintext.
  for (std::size_t g = 0; g < results.size(); ++g) {
    const ServiceInput in = service_input(pool, env.seed, kTimedSalt, g);
    const ServiceSessionResult& res = results[g];
    const Outcome outcome = perfbench::check_service(
        res.record, perfbench::blocking_reference(in.kind, in.cfg));
    const std::uint64_t elements = in.cfg.s.size() + in.cfg.t.size();
    tally.attempted += 1;
    tally.elements += elements;
    if (outcome == Outcome::kWrong) {
      tally.failed += 1;
      std::fprintf(stderr, "service session %zu (%.*s) failed its check\n", g,
                   static_cast<int>(in.kind.size()), in.kind.data());
    }
    if (g < spec.window) {
      tally.win_sessions += 1;
      tally.win_elements += elements;
      tally.win_bits += res.record.bits_total;
      tally.win_rounds += res.rounds;
      tally.win_messages += res.messages;
      tally.win_exact += outcome == Outcome::kExact;
    }
  }
}

// ------------------------------------------------------------------ output

obs::Json metric(double value, const char* unit) {
  obs::Json m = obs::Json::object();
  m.set("value", value);
  m.set("unit", unit);
  return m;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

obs::Json environment(const Env& env) {
  obs::Json e = obs::Json::object();
  const char* sha = std::getenv("PERFBENCH_GIT_SHA");
  e.set("git_sha", sha != nullptr ? sha : "none");
  const char* source = std::getenv("PERFBENCH_SOURCE_ID");
  e.set("source_sha256", source != nullptr ? source : "none");
  e.set("compiler", PERFBENCH_COMPILER);
  e.set("build_type", PERFBENCH_BUILD_TYPE);
  e.set("cxx_flags", PERFBENCH_CXX_FLAGS);
  e.set("simd_tier", simd::tier_name(simd::active_tier()));
  e.set("simd_tier_forced", simd::tier_forced());
  e.set("nproc", static_cast<std::uint64_t>(sysconf(_SC_NPROCESSORS_ONLN)));
  e.set("threads", 1);
  e.set("workload", env.spec->name);
  e.set("seed", env.seed);
  e.set("seconds", env.seconds);
  e.set("trace", env.trace);
  return e;
}

// Identifies the run's generated inputs, so a test can tell that another
// seed gave other inputs.
obs::Json inputs_json(const std::vector<Pair>& pool) {
  std::uint64_t h = 0;
  for (const Pair& pair : pool) {
    h = core::fingerprint_set(core::fingerprint_set(h, pair.s), pair.t);
  }
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx", static_cast<unsigned long long>(h));
  obs::Json j = obs::Json::object();
  j.set("pool_pairs", static_cast<std::uint64_t>(pool.size()));
  j.set("fingerprint", hex);
  return j;
}

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--out-dir <dir>]\nworkloads:",
               why.c_str());
  for (const Spec& spec : kSpecs) std::fprintf(stderr, " %s", spec.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Env parse_args(int argc, char** argv) {
  Env env;
  std::string workload;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + std::string(flag));
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        workload = value;
      } else if (flag == "--seed") {
        env.seed = std::stoull(value);
        have_seed = true;
      } else if (flag == "--seconds") {
        env.seconds = std::stod(value);
        have_seconds = env.seconds > 0;
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        env.trace = value == "1";
        have_trace = true;
      } else if (flag == "--out-dir") {
        env.out_dir = value;
      } else {
        usage("unknown flag " + std::string(flag));
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + std::string(flag) + ": " + value);
    }
  }
  env.spec = find_spec(workload);
  if (env.spec == nullptr) usage("unknown workload '" + workload + "'");
  if (!have_seed || !have_seconds || !have_trace) {
    usage("--seed, --seconds (> 0) and --trace are required");
  }
  return env;
}

}  // namespace

int main(int argc, char** argv) {
  const Env env = parse_args(argc, argv);
  const Spec& spec = *env.spec;
  std::unique_ptr<TraceSink> sink;
  if (env.trace) sink = std::make_unique<TraceSink>();

  // ---- set-up: generate every input pair of the run ----
  const std::size_t pool_size = std::max<std::size_t>(
      spec.window,
      static_cast<std::size_t>(std::ceil(env.seconds * spec.pool_per_s)));
  std::vector<double> setup_s;
  std::vector<Pair> pool;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    pool.clear();
    pool.shrink_to_fit();
    const auto t0 = Clock::now();
    pool = make_pool(spec, env.seed, pool_size);
    setup_s.push_back(us_since(t0) / 1e6);
  }

  Tally tally;
  LayerTimes layers;
  if (spec.kind == Kind::kFacade) {
    run_facade_workload(env, pool, tally, layers, sink.get());
  } else {
    run_service_workload(env, pool, tally, layers, sink.get());
  }

  const double sessions = static_cast<double>(tally.attempted);
  const double win = static_cast<double>(std::max<std::uint64_t>(tally.win_sessions, 1));
  obs::Json metrics = obs::Json::object();
  if (!env.trace) {
    metrics.set("sessions_per_s", metric(sessions / tally.phase_s, "1/s"));
    metrics.set("elements_per_s",
                metric(static_cast<double>(tally.elements) / tally.phase_s, "1/s"));
    metrics.set("session_us_p50", metric(percentile(tally.session_us, 0.5), "us"));
    metrics.set("session_us_p90", metric(percentile(tally.session_us, 0.9), "us"));
    metrics.set("bits_per_elem",
                metric(ratio(static_cast<double>(tally.win_bits),
                             static_cast<double>(tally.win_elements)),
                       "bit"));
    metrics.set("rounds_per_session",
                metric(static_cast<double>(tally.win_rounds) / win, "count"));
    metrics.set("exact_share",
                metric(static_cast<double>(tally.win_exact) / win, "share"));
    metrics.set("setup_s", metric(median(setup_s), "s"));
    metrics.set("peak_rss_mb", metric(peak_rss_mb(), "MB"));
  } else {
    metrics.set("core.vt_us_p50", metric(median(layers.vt_us), "us"));
    metrics.set("core.bucket_eq_us_p50", metric(median(layers.bucket_eq_us), "us"));
    metrics.set("eq.certificate_us_p50", metric(median(layers.cert_us), "us"));
    metrics.set("multiparty.self_us_p50", metric(median(layers.self_us), "us"));
    metrics.set("layer_coverage",
                metric(ratio(layers.coverage_num, layers.coverage_den), "share"));
    metrics.set("multiparty.attempts_per_session",
                metric(static_cast<double>(tally.win_attempts) / win, "count"));
    metrics.set("multiparty.restarts_per_session",
                metric(static_cast<double>(tally.win_restarts) / win, "count"));
    metrics.set("multiparty.bits_replayed_per_session",
                metric(static_cast<double>(tally.win_bits_replayed) / win, "bit"));
    metrics.set("hashing.prime_lookups_per_session",
                metric(static_cast<double>(tally.win_prime_lookups) / win, "count"));
    metrics.set("hashing.prime_cache_hit_share",
                metric(ratio(static_cast<double>(tally.win_prime_hits),
                             static_cast<double>(tally.win_prime_lookups)),
                       "share"));
    metrics.set("hashing.is_prime_ns", metric(median(layers.is_prime_ns), "ns"));
    metrics.set("hashing.mask_hash_ns_per_kbit",
                metric(median(layers.mask_ns_per_kbit), "ns"));
    metrics.set("util.codec_ns_per_elem",
                metric(median(layers.codec_ns_per_elem), "ns"));
    metrics.set("sim.messages_per_session",
                metric(static_cast<double>(tally.win_messages) / win, "count"));
    metrics.set("sim.send_ns_per_msg", metric(median(layers.send_ns_per_msg), "ns"));
    metrics.set("sim.faults_per_session",
                metric(static_cast<double>(tally.win_faults) / win, "count"));
    metrics.set("runtime.events_per_session",
                metric(static_cast<double>(tally.win_events) / win, "count"));
    metrics.set("runtime.frame_parks_per_session",
                metric(static_cast<double>(tally.win_parks) / win, "count"));
    metrics.set("runtime.completion_ticks_p50",
                metric(static_cast<double>(tally.win_completion.p50()), "ticks"));
    metrics.set("runtime.completion_ticks_p99",
                metric(static_cast<double>(tally.win_completion.p99()), "ticks"));
    metrics.set("runtime.self_share",
                metric(layers.service_call_us > 0
                           ? 1.0 - layers.blocking_us / layers.service_call_us
                           : 0.0,
                       "share"));
    metrics.set("obs.trace_overhead_share",
                metric(ratio(median(layers.traced_call_us),
                             median(layers.untraced_call_us)) -
                           1.0,
                       "share"));
  }

  const obs::Json env_json = environment(env);
  if (sink != nullptr && !env.out_dir.empty()) {
    const std::string stem = env.out_dir + "/" + spec.name + "-" +
                             std::to_string(env.seed);
    write_file(stem + ".trace.json", sink->spans.chrome_trace_json());
    std::string jsonl;
    for (const std::string& line : sink->session_lines) jsonl += line + "\n";
    write_file(stem + ".sessions.jsonl", jsonl);
    obs::Json summary = obs::Json::object();
    summary.set("environment", env_json);
    summary.set("metrics", metrics);
    summary.set("library_metrics", sink->library_metrics.ToJson());
    write_file(stem + ".summary.json", summary.dump(2));
  }

  obs::Json env_line = obs::Json::object();
  env_line.set("environment", env_json);
  env_line.set("inputs", inputs_json(pool));
  std::printf("%s\n", env_line.dump().c_str());
  obs::Json result = obs::Json::object();
  result.set("correct", tally.failed == 0);
  result.set("attempted", tally.attempted);
  result.set("failed", tally.failed);
  result.set("metrics", std::move(metrics));
  std::printf("%s\n", result.dump().c_str());
  return tally.failed == 0 ? 0 : 1;
}
