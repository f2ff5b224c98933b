// ucbench: the repository's benchmark program.
//
// One process runs one named workload for a fixed wall-clock window and
// prints every end-to-end metric with its unit, the key-operations
// attempted and failed, and a final one-line JSON result (see README.md
// for the workloads, the metrics and what each layer metric should move).
//
// Inputs are generated here from --seed, with this file's own generator,
// so a change to the library cannot change what the benchmark feeds it.
// Every client owns a key partition and keeps its own presence record for
// it; every operation result is checked against that record, and after
// the window the final contents, the size, the structure's invariants and
// a never-written key band are checked too.
//
// Threads: every workload runs at most four threads in total, counting
// the calling thread (client 0) and the store's shard workers.
#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include <malloc.h>

#include "alloc/pool_alloc.hpp"
#include "alloc/thread_cache_alloc.hpp"
#include "core/atom.hpp"
#include "core/combining.hpp"
#include "persist/treap.hpp"
#include "reclaim/epoch.hpp"
#include "seq/seq_treap.hpp"
#include "store/executor.hpp"
#include "store/router.hpp"
#include "store/sharded_map.hpp"

namespace {

using namespace pathcopy;

using Key = std::int64_t;
using Val = std::int64_t;
using Treap = persist::Treap<Key, Val>;
using Smr = reclaim::EpochReclaimer;
using TC = alloc::ThreadCache;
using PaperUc = core::Atom<Treap, Smr, TC>;
using StoreUc = core::CombiningAtom<Treap, Smr, TC>;
using Router = store::RangeRouter<Key>;
using StoreMap = store::ShardedMap<StoreUc, Router>;
using Req = StoreMap::BatchRequest;
using OpKind = StoreMap::OpKind;
using Outcome = StoreMap::ReadOutcome;

// ---------------------------------------------------------------- inputs

constexpr std::size_t kPrefill = std::size_t{1} << 20;  // paper-batch pre-fill
constexpr std::size_t kBatchKeysPerThread = 16384;      // §4.1 per-thread set
constexpr std::size_t kMaxPaperThreads = 4;
constexpr Key kRandomHalf = Key{1} << 20;  // paper-random draws [-2^20, 2^20)
constexpr Key kStoreDomain = Key{1} << 21;  // store draws [0, 2^21)
constexpr std::size_t kBand = 4096;         // never-written keys per workload
constexpr unsigned kStoreBatch = 64;        // ops per execute_batch
constexpr unsigned kStoreProbes = 4;        // multi_gets per round
constexpr unsigned kStoreProbeKeys = 64;    // keys per multi_get

std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// The value stored under a key: a fixed function, so any value read
/// under any client's key can be checked.
Val value_of(Key k) {
  return static_cast<Val>(mix(static_cast<std::uint64_t>(k) ^ 0x5bd1e995ULL) >>
                          1);
}

struct Rng {
  std::uint64_t state;
  explicit Rng(std::uint64_t seed) : state(mix(seed)) {}
  std::uint64_t next() { return mix(state += 0x632be59bd9b4e019ULL); }
  std::uint64_t below(std::uint64_t n) {
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(next()) * n) >> 64);
  }
};

/// Presence of `k` in a half-density pre-fill drawn from the seed.
bool prefilled(std::uint64_t seed, Key k) {
  return (mix(seed ^ mix(static_cast<std::uint64_t>(k))) & 1) != 0;
}

// ----------------------------------------------------------------- timing

using Clock = std::chrono::steady_clock;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Log-linear latency histogram: exact below 64 ns, then 64 buckets per
/// power of two (about 1.6% wide). Percentiles interpolate inside the
/// bucket that holds the rank.
struct Hist {
  static constexpr int kSub = 64;
  std::vector<std::uint64_t> bucket = std::vector<std::uint64_t>(60 * kSub, 0);
  std::uint64_t count = 0;

  static int index(std::uint64_t ns) {
    if (ns < kSub) return static_cast<int>(ns);
    const int e = std::bit_width(ns) - 1;  // >= 6
    const int shift = e - 6;
    return (shift + 1) * kSub + static_cast<int>((ns >> shift) - kSub);
  }
  static double lower(int i) {
    if (i < kSub) return i;
    const int shift = i / kSub - 1;
    return std::ldexp(static_cast<double>(kSub + i % kSub), shift);
  }
  static double width(int i) {
    return i < kSub ? 1.0 : std::ldexp(1.0, i / kSub - 1);
  }

  void add(std::int64_t ns) {
    ++bucket[index(static_cast<std::uint64_t>(ns < 0 ? 0 : ns))];
    ++count;
  }
  void merge(const Hist& o) {
    for (std::size_t i = 0; i < bucket.size(); ++i) bucket[i] += o.bucket[i];
    count += o.count;
  }
  double percentile_ns(double q) const {
    if (count == 0) return 0.0;
    const double target = q * static_cast<double>(count);
    double cum = 0.0;
    for (int i = 0; i < static_cast<int>(bucket.size()); ++i) {
      const double c = static_cast<double>(bucket[i]);
      if (c > 0 && cum + c >= target) {
        return lower(i) + width(i) * (target - cum) / c;
      }
      cum += c;
    }
    return lower(static_cast<int>(bucket.size()) - 1);
  }
};

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// A measured interval cut into equal slices. Each client call is
/// charged to the slice in which it ended: its key-operations to the
/// slice's throughput, its latency to the slice's histogram.
struct Window {
  std::int64_t begin = 0;
  std::int64_t end = 0;
  std::vector<std::uint64_t> ops;
  std::vector<Hist> hist;

  Window(std::int64_t b, std::int64_t e, int slices)
      : begin(b), end(e), ops(slices, 0), hist(slices) {}

  bool record(std::int64_t t0, std::int64_t t1, std::uint64_t kops) {
    if (t1 < begin || t1 >= end) return false;
    const auto s = static_cast<std::size_t>(
        (t1 - begin) * static_cast<std::int64_t>(ops.size()) / (end - begin));
    ops[s] += kops;
    hist[s].add(t1 - t0);
    return true;
  }
  void merge(const Window& o) {
    for (std::size_t s = 0; s < ops.size(); ++s) {
      ops[s] += o.ops[s];
      hist[s].merge(o.hist[s]);
    }
  }
  double slice_seconds() const {
    return static_cast<double>(end - begin) / 1e9 /
           static_cast<double>(ops.size());
  }
  std::uint64_t total_ops() const {
    std::uint64_t t = 0;
    for (auto o : ops) t += o;
    return t;
  }
  std::uint64_t total_calls() const {
    std::uint64_t t = 0;
    for (const auto& h : hist) t += h.count;
    return t;
  }
  /// Median over slices of the slice's key-operations per second.
  double throughput() const {
    std::vector<double> v;
    for (auto o : ops) v.push_back(static_cast<double>(o) / slice_seconds());
    return median(v);
  }
  /// Median over slices of the slice's call-latency percentile, in µs.
  double call_us(double q) const {
    std::vector<double> v;
    for (const auto& h : hist) v.push_back(h.percentile_ns(q) / 1000.0);
    return median(v);
  }
};

// ------------------------------------------------------------------ spans

enum SpanName : std::uint8_t {
  kStoreExecuteBatch,
  kStoreMultiGet,
  kCoreUpdate,
  kPersistUpdate,
  kSpanNames
};
constexpr const char* kSpanNameText[kSpanNames] = {
    "store.execute_batch", "store.multi_get", "core.update", "persist.update"};

struct Span {
  std::uint64_t id;
  std::uint64_t parent;  // 0: a root span (one client call)
  std::int64_t start_ns;
  std::int64_t end_ns;
  SpanName name;
};

/// Per-thread trace: running sums over every traced span, plus the first
/// kKeep spans themselves, kept in memory and written out at the end.
struct Trace {
  static constexpr std::size_t kKeep = 20000;
  std::vector<Span> kept;
  std::uint64_t next_id = 1;
  std::array<std::uint64_t, kSpanNames> count{};
  std::array<std::int64_t, kSpanNames> total_ns{};
  std::array<std::int64_t, kSpanNames> self_ns{};
  std::uint64_t fresh_nodes = 0;  // nodes built by persist.update spans

  Trace() { kept.reserve(kKeep); }

  void add(std::uint64_t id, std::uint64_t parent, SpanName name,
           std::int64_t t0, std::int64_t t1, std::int64_t child_ns) {
    ++count[name];
    total_ns[name] += t1 - t0;
    self_ns[name] += t1 - t0 - child_ns;
    if (kept.size() < kKeep) kept.push_back({id, parent, t0, t1, name});
  }
  void merge(const Trace& o) {
    for (int i = 0; i < kSpanNames; ++i) {
      count[i] += o.count[i];
      total_ns[i] += o.total_ns[i];
      self_ns[i] += o.self_ns[i];
    }
    fresh_nodes += o.fresh_nodes;
  }
  double mean_ns(SpanName n) const {
    return count[n] == 0 ? 0.0
                         : static_cast<double>(total_ns[n]) /
                               static_cast<double>(count[n]);
  }
  double mean_self_ns(SpanName n) const {
    return count[n] == 0 ? 0.0
                         : static_cast<double>(self_ns[n]) /
                               static_cast<double>(count[n]);
  }
};

// ---------------------------------------------------------------- options

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 15.0;
  double warmup = 2.0;
  bool trace = false;
  std::string trace_out;  // span file (traced runs)
  std::string inject;     // negative control, see README.md
  unsigned threads = 0;   // paper-* only; 0 = the workload's 4
  bool reference = false;
};

/// Phase boundaries shared by every client of one run. A traced run
/// measures its first half untraced and its second half traced; the
/// ratio of the two throughputs is the tracing overhead.
struct Phases {
  std::int64_t measure = 0;  // end of warm-up
  std::int64_t traced = 0;   // start of the traced half (== end if none)
  std::int64_t end = 0;

  static Phases make(const Options& o, std::int64_t start) {
    Phases p;
    p.measure = start + static_cast<std::int64_t>(o.warmup * 1e9);
    p.end = p.measure + static_cast<std::int64_t>(o.seconds * 1e9);
    p.traced = o.trace ? p.measure + (p.end - p.measure) / 2 : p.end;
    return p;
  }
  bool traced_at(std::int64_t t) const { return t >= traced && t < end; }
};

constexpr int kSlices = 20;

/// The kinds of client call. paper-* makes only updates; store-* makes
/// execute_batch and multi_get calls.
enum CallKind : std::uint8_t { kUpdateCall, kBatchCall, kProbeCall, kCallKinds };
constexpr const char* kCallKindText[kCallKinds] = {"update", "execute_batch",
                                                   "multi_get"};

/// Everything one client thread produces.
struct ClientResult {
  std::optional<Window> plain;   // untraced measured window
  std::optional<Window> traced;  // traced window (traced runs only)
  std::array<Hist, kCallKinds> by_kind;  // untraced window, per call kind
  Trace trace;
  core::OpStats stats_traced;  // OpStats delta over the traced window
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t inserted = 0;  // program-reported successful inserts
  std::uint64_t erased = 0;    // program-reported successful erases

  /// Allocates the windows before set-up, so that the memory the map
  /// adds (peak_rss_mb) does not include them; start() places them.
  explicit ClientResult(bool traced_run) {
    const int slices = traced_run ? kSlices / 2 : kSlices;
    plain.emplace(0, 0, slices);
    if (traced_run) traced.emplace(0, 0, slices);
  }
  void start(const Phases& p) {
    plain->begin = p.measure;
    plain->end = p.traced;
    if (traced) {
      traced->begin = p.traced;
      traced->end = p.end;
    }
  }
  void record(std::int64_t t0, std::int64_t t1, std::uint64_t kops,
              CallKind kind) {
    if (plain->record(t0, t1, kops)) by_kind[kind].add(t1 - t0);
    if (traced) traced->record(t0, t1, kops);
  }
};

std::vector<ClientResult> make_results(std::size_t n, bool traced_run) {
  std::vector<ClientResult> res;
  res.reserve(n);
  for (std::size_t i = 0; i < n; ++i) res.emplace_back(traced_run);
  return res;
}

/// Counters read from the shared library objects at the traced window's
/// edges (pool, reclaimers).
struct Globals {
  std::uint64_t backend_trips = 0;
  std::uint64_t freed = 0;
  std::uint64_t advances = 0;
};

/// Starts clients 1..n-1 on their own threads, runs client 0 on the
/// calling thread, and joins. `body(tid)` runs one client.
template <class Body>
void run_clients(std::size_t n, Body&& body) {
  std::vector<std::thread> threads;
  threads.reserve(n - 1);
  for (std::size_t t = 1; t < n; ++t) {
    threads.emplace_back([&, t] { body(t); });
  }
  body(0);
  for (auto& th : threads) th.join();
}

/// A spin barrier whose last arrival fixes the run's start time.
struct StartGate {
  std::atomic<std::size_t> arrived{0};
  std::atomic<std::int64_t> start{0};
  std::int64_t wait(std::size_t n) {
    if (arrived.fetch_add(1) + 1 == n) start.store(now_ns());
    std::int64_t s = 0;
    while ((s = start.load()) == 0) std::this_thread::yield();
    return s;
  }
};

// ---------------------------------------------------------------- results

struct Metric {
  const char* name;
  double value;
  const char* unit;
};

struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<std::string> notes;

  void fail(std::string what) {
    correct = false;
    problems.push_back(std::move(what));
  }
};

double ratio(double a, double b) { return b == 0.0 ? 0.0 : a / b; }

/// A memory field of /proc/self/status ("VmHWM", "VmRSS"), in MB.
double status_mb(const std::string& field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(field + ":", 0) == 0) {
      return std::strtod(line.c_str() + field.size() + 1, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

/// peak_rss_mb: the process's peak resident set above its resident set
/// just before set-up. The baseline is read after the heap's free memory
/// is handed back, so it is what the benchmark's own inputs, records and
/// windows hold, and the figure is what the map and its threads add.
struct RssProbe {
  double base_mb = 0.0;
  void at_setup() {
    malloc_trim(0);
    base_mb = status_mb("VmRSS");
  }
  /// Peak resident set above the set-up baseline, read after the window.
  double peak_above_base_mb(Report& r) const {
    const double hwm = status_mb("VmHWM");
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "resident before set-up %.2f MB, process peak %.2f MB "
                  "(peak_rss_mb is their difference)",
                  base_mb, hwm);
    r.notes.emplace_back(buf);
    return hwm - base_mb;
  }
};

/// Checks one update result against a presence record entry and applies
/// the update to it; returns false on a mismatch.
bool check_update(std::uint8_t& present, bool ins, bool landed) {
  const bool expect = ins ? present == 0 : present != 0;
  present = ins ? 1 : 0;
  return landed == expect;
}

/// The OpStats fields the layer metrics read, as `now - then`.
core::OpStats stats_delta(const core::OpStats& now, const core::OpStats& then) {
  core::OpStats d;
  d.attempts = now.attempts - then.attempts;
  d.updates = now.updates - then.updates;
  d.noop_updates = now.noop_updates - then.noop_updates;
  d.failed_attempt_nodes = now.failed_attempt_nodes - then.failed_attempt_nodes;
  d.recycled_nodes = now.recycled_nodes - then.recycled_nodes;
  d.combined_ops = now.combined_ops - then.combined_ops;
  d.batched_installs = now.batched_installs - then.batched_installs;
  d.batched_ops = now.batched_ops - then.batched_ops;
  d.batched_reads = now.batched_reads - then.batched_reads;
  d.probe_nodes_visited = now.probe_nodes_visited - then.probe_nodes_visited;
  return d;
}

/// Negative controls that corrupt the checker's side, never the library.
void inject_before_checks(const Options& o, std::vector<std::uint8_t>& record) {
  if (o.inject != "drop-record") return;
  const auto it = std::find(record.begin(), record.end(), 1);
  if (it != record.end()) *it = 0;
}
void inject_malformed_treap(const Options& o, Report& rep) {
  if (o.inject != "bad-invariants") return;
  // A two-node treap whose left child is larger than its root.
  Treap::Node child(10, 0, 1, nullptr, nullptr);
  Treap::Node root(5, 0, 2, &child, nullptr);
  child.pc_state_ = root.pc_state_ = core::NodeState::kPublished;
  if (!Treap::from_root(&root).check_invariants()) {
    rep.fail("treap invariants violated (injected malformed treap)");
  }
}

/// Folds the clients' windows and traces into the report's metrics.
struct Summary {
  Window plain;
  std::optional<Window> traced;
  std::array<Hist, kCallKinds> by_kind;
  Trace trace;
  core::OpStats stats_traced;
  double traced_ops = 0.0;
  double traced_seconds = 0.0;

  explicit Summary(const std::vector<ClientResult>& rs)
      : plain(*rs[0].plain) {
    if (rs[0].traced) traced = *rs[0].traced;
    for (std::size_t t = 0; t < rs.size(); ++t) {
      if (t > 0) {
        plain.merge(*rs[t].plain);
        if (traced) traced->merge(*rs[t].traced);
      }
      for (int k = 0; k < kCallKinds; ++k) by_kind[k].merge(rs[t].by_kind[k]);
      trace.merge(rs[t].trace);
      stats_traced += rs[t].stats_traced;
    }
    if (traced) {
      traced_ops = static_cast<double>(traced->total_ops());
      traced_seconds = static_cast<double>(traced->end - traced->begin) / 1e9;
    }
  }
};

void add_end_to_end(Report& r, const Summary& s, double setup_s,
                    double rss_mb) {
  r.end_to_end.push_back({"throughput", s.plain.throughput(), "ops/s"});
  r.end_to_end.push_back({"call_p50_us", s.plain.call_us(0.50), "us"});
  r.end_to_end.push_back({"setup_s", setup_s, "s"});
  r.end_to_end.push_back({"peak_rss_mb", rss_mb, "MB"});
  // p99 is printed, not reported: on a shared host its run-to-run spread
  // exceeds any bound worth setting (README.md, "End-to-end metrics").
  std::uint64_t fewest = ~std::uint64_t{0};
  for (const auto& h : s.plain.hist) fewest = std::min(fewest, h.count);
  char buf[200];
  std::snprintf(buf, sizeof buf,
                "call_p99_us %.4f us (unbounded); calls measured: %" PRIu64
                ", at least %" PRIu64 " in each of %zu slices of %.3f s "
                "(percentiles are medians of per-slice percentiles)",
                s.plain.call_us(0.99), s.plain.total_calls(), fewest,
                s.plain.ops.size(), s.plain.slice_seconds());
  r.notes.emplace_back(buf);
  if (s.by_kind[kBatchCall].count > 0) {
    // store-*: 4 of every 5 calls are multi_gets, so call_p50_us follows
    // multi_get latency; execute_batch latency is printed apart here.
    std::string kinds = "call p50 by kind over the window:";
    for (int k = kBatchCall; k < kCallKinds; ++k) {
      std::snprintf(buf, sizeof buf, " %s %.2f us (%" PRIu64 " calls)",
                    kCallKindText[k], s.by_kind[k].percentile_ns(0.5) / 1000.0,
                    s.by_kind[k].count);
      kinds += buf;
    }
    r.notes.push_back(kinds);
  }
  std::string slices = "slice throughput (ops/s):";
  for (auto ops : s.plain.ops) {
    std::snprintf(buf, sizeof buf, " %.0f",
                  static_cast<double>(ops) / s.plain.slice_seconds());
    slices += buf;
  }
  r.notes.push_back(slices);
}

/// Per-layer metrics common to every workload. Names not exercised by a
/// workload read 0 (README.md lists which apply where).
struct Layer {
  std::vector<Metric> m;
  void set(const char* name, double v) {
    for (auto& x : m) {
      if (std::strcmp(x.name, name) == 0) {
        x.value = v;
        return;
      }
    }
    std::fprintf(stderr, "ucbench: unknown layer metric %s\n", name);
    std::abort();
  }
  Layer()
      : m{{"persist.update_ns", 0, "ns"},
          {"persist.fresh_nodes_per_update", 0, "nodes"},
          {"persist.probe_nodes_per_key", 0, "nodes"},
          {"persist.ops_per_batched_install", 0, "ops"},
          {"core.update_ns", 0, "ns"},
          {"core.commit_self_ns", 0, "ns"},
          {"core.attempts_per_update", 0, "attempts"},
          {"core.recycled_per_failed_node", 0, "ratio"},
          {"core.combined_ops_per_install", 0, "ops"},
          {"alloc.backend_trips_per_op", 0, "trips"},
          {"alloc.live_bytes_per_key", 0, "B"},
          {"reclaim.pending_nodes_end", 0, "nodes"},
          {"reclaim.freed_per_op", 0, "nodes"},
          {"reclaim.epoch_advances_per_s", 0, "1/s"},
          {"store.execute_batch_us", 0, "us"},
          {"store.multi_get_us", 0, "us"},
          {"store.tickets_per_wake", 0, "tickets"},
          {"store.read_tickets_per_sweep", 0, "tickets"},
          {"store.parks_per_wake", 0, "parks"},
          {"store.task_us", 0, "us"},
          {"trace.overhead_pct", 0, "%"}} {}
};

/// Layer metrics every workload derives the same way.
void fill_common_layers(Layer& l, const Summary& s, const core::OpStats& st,
                        const Globals& g0, const Globals& g1,
                        std::uint64_t pending_end, double live_bytes,
                        std::size_t final_size) {
  l.set("core.attempts_per_update",
        ratio(static_cast<double>(st.attempts),
              static_cast<double>(st.updates + st.noop_updates)));
  l.set("core.recycled_per_failed_node", st.recycle_ratio());
  l.set("core.combined_ops_per_install",
        ratio(static_cast<double>(st.combined_ops),
              static_cast<double>(st.updates)));
  l.set("persist.ops_per_batched_install", st.mean_batch_size());
  l.set("persist.probe_nodes_per_key",
        ratio(static_cast<double>(st.probe_nodes_visited),
              static_cast<double>(st.batched_reads)));
  l.set("alloc.backend_trips_per_op",
        ratio(static_cast<double>(g1.backend_trips - g0.backend_trips),
              s.traced_ops));
  l.set("alloc.live_bytes_per_key",
        ratio(live_bytes, static_cast<double>(final_size)));
  l.set("reclaim.pending_nodes_end", static_cast<double>(pending_end));
  l.set("reclaim.freed_per_op",
        ratio(static_cast<double>(g1.freed - g0.freed), s.traced_ops));
  l.set("reclaim.epoch_advances_per_s",
        ratio(static_cast<double>(g1.advances - g0.advances),
              s.traced_seconds));
  if (s.traced) {
    l.set("trace.overhead_pct",
          100.0 * (1.0 - ratio(s.traced->throughput(), s.plain.throughput())));
  }
}

/// Bytes still allocated once every thread has quiesced and every
/// reclaimer has drained: the pool's own count plus every cache's.
double live_bytes(const alloc::PoolBackend& pool,
                  const std::vector<std::unique_ptr<TC>>& caches) {
  // A block can be freed through another object's counters than the one
  // that allocated it, so only the grand totals balance.
  auto live = [](const alloc::AllocStats& st) {
    return static_cast<double>(st.bytes_allocated.load()) -
           static_cast<double>(st.bytes_freed.load());
  };
  double total = live(pool.stats());
  for (const auto& c : caches) total += live(c->stats());
  return total;
}

void write_spans(const Options& o, const std::vector<ClientResult>& rs) {
  if (!o.trace || o.trace_out.empty()) return;
  std::FILE* f = std::fopen(o.trace_out.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "ucbench: cannot write span file %s\n",
                 o.trace_out.c_str());
    return;
  }
  std::fprintf(f, "thread,id,parent,name,start_ns,end_ns\n");
  for (std::size_t t = 0; t < rs.size(); ++t) {
    for (const Span& s : rs[t].trace.kept) {
      std::fprintf(f, "%zu,%" PRIu64 ",%" PRIu64 ",%s,%" PRId64 ",%" PRId64 "\n",
                   t, s.id, s.parent, kSpanNameText[s.name], s.start_ns,
                   s.end_ns);
    }
  }
  std::fclose(f);
}

// ------------------------------------------------------ paper workloads

enum class Paper { kBatch, kRandom };

/// Inputs of one paper workload. Both are generated for four threads
/// whatever thread count runs, so 1-thread reference runs see the same
/// pre-fill and per-thread keys.
struct PaperInputs {
  std::vector<std::pair<Key, Val>> prefill;  // sorted
  std::vector<std::vector<Key>> mine;        // paper-batch: per-thread keys
  std::vector<Key> band;                     // never written
};

PaperInputs make_paper_inputs(Paper kind, std::uint64_t seed) {
  PaperInputs in;
  if (kind == Paper::kBatch) {
    // Distinct random 40-bit keys, shuffled, then dealt out: pre-fill,
    // four per-thread sets, band.
    const std::size_t need =
        kPrefill + kMaxPaperThreads * kBatchKeysPerThread + kBand;
    std::vector<Key> keys;
    Rng rng(seed ^ 0xba7c4ULL);
    while (keys.size() < need) {
      const std::size_t want = need + need / 64 - keys.size();
      for (std::size_t i = 0; i < want; ++i) {
        keys.push_back(static_cast<Key>(rng.next() >> 24));
      }
      std::sort(keys.begin(), keys.end());
      keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
    }
    for (std::size_t i = keys.size(); i > 1; --i) {
      std::swap(keys[i - 1], keys[rng.below(i)]);
    }
    std::vector<Key> pre(keys.begin(), keys.begin() + kPrefill);
    std::sort(pre.begin(), pre.end());
    in.prefill.reserve(kPrefill);
    for (Key k : pre) in.prefill.emplace_back(k, value_of(k));
    std::size_t at = kPrefill;
    in.mine.resize(kMaxPaperThreads);
    for (auto& m : in.mine) {
      m.assign(keys.begin() + at, keys.begin() + at + kBatchKeysPerThread);
      at += kBatchKeysPerThread;
    }
    in.band.assign(keys.begin() + at, keys.begin() + at + kBand);
  } else {
    in.prefill.reserve(kRandomHalf + kRandomHalf / 8);
    for (Key k = -kRandomHalf; k < kRandomHalf; ++k) {
      if (prefilled(seed, k)) in.prefill.emplace_back(k, value_of(k));
    }
    for (std::size_t i = 0; i < kBand; ++i) {
      in.band.push_back(kRandomHalf + static_cast<Key>(i));
    }
  }
  return in;
}

/// One paper client's op stream and presence record. paper-batch: the
/// thread's own key set, inserted in order then erased in order, forever.
/// paper-random: keys k in [-2^20, 2^20) with k mod P == tid, drawn
/// uniformly, insert or erase with probability 1/2 each.
struct PaperClient {
  Paper kind;
  std::size_t tid;
  std::size_t threads;
  const std::vector<Key>* mine = nullptr;
  std::vector<std::uint8_t> present;  // record, indexed by partition slot
  std::size_t cursor = 0;             // paper-batch position in the cycle
  Rng rng;

  PaperClient(Paper k, std::size_t t, std::size_t n, const PaperInputs& in,
              std::uint64_t seed)
      : kind(k), tid(t), threads(n), rng(seed * 0x9e37ULL + t + 1) {
    if (kind == Paper::kBatch) {
      mine = &in.mine[t];
      present.assign(mine->size(), 0);
    } else {
      const auto slots = static_cast<std::size_t>(2 * kRandomHalf) / n + 1;
      present.assign(slots, 0);
      for (const auto& kv : in.prefill) {
        const Key off = kv.first + kRandomHalf;
        if (static_cast<std::size_t>(off) % n == t) {
          present[static_cast<std::size_t>(off) / n] = 1;
        }
      }
    }
  }

  /// The next op: (insert?, key, record slot).
  std::tuple<bool, Key, std::size_t> next() {
    if (kind == Paper::kBatch) {
      const std::size_t n = mine->size();
      const std::size_t i = cursor % n;
      const bool ins = cursor < n;
      cursor = (cursor + 1) % (2 * n);
      return {ins, (*mine)[i], i};
    }
    const std::size_t slots =
        (static_cast<std::size_t>(2 * kRandomHalf) - tid + threads - 1) /
        threads;
    const std::size_t slot = rng.below(slots);
    const Key k = static_cast<Key>(slot * threads + tid) - kRandomHalf;
    return {(rng.next() & 1) != 0, k, slot};
  }

  Key key_of_slot(std::size_t slot) const {
    if (kind == Paper::kBatch) return (*mine)[slot];
    return static_cast<Key>(slot * threads + tid) - kRandomHalf;
  }
};

/// Applies one paper update through the UC. Untraced calls go through
/// the public Atom insert/erase; traced calls run the same functor
/// through Atom::update with a core span around the call and a persist
/// span around the structure's insert/erase inside it.
bool paper_apply(PaperUc& atom, PaperUc::Ctx& ctx, bool ins, Key k,
                 bool traced, Trace& tr) {
  if (!traced) {
    return ins ? atom.insert(ctx, 0, k, value_of(k)) : atom.erase(ctx, 0, k);
  }
  const std::uint64_t core_id = tr.next_id++;
  std::int64_t child_ns = 0;
  const std::int64_t c0 = now_ns();
  const bool landed =
      atom.update(ctx, [&](Treap cur, core::Builder<TC>& b) {
        const std::int64_t p0 = now_ns();
        Treap next = ins ? cur.insert(b, k, value_of(k)) : cur.erase(b, k);
        const std::int64_t p1 = now_ns();
        child_ns += p1 - p0;
        tr.fresh_nodes += b.fresh_count();
        tr.add(tr.next_id++, core_id, kPersistUpdate, p0, p1, 0);
        return next;
      }) == core::UpdateResult::kInstalled;
  const std::int64_t c1 = now_ns();
  tr.add(core_id, 0, kCoreUpdate, c0, c1, child_ns);
  return landed;
}

Report run_paper(const Options& o, Paper kind) {
  const std::size_t threads = o.threads == 0 ? kMaxPaperThreads : o.threads;
  PaperInputs in = make_paper_inputs(kind, o.seed);

  std::vector<PaperClient> clients;
  for (std::size_t t = 0; t < threads; ++t) {
    clients.emplace_back(kind, t, threads, in, o.seed);
  }
  std::vector<ClientResult> res = make_results(threads, o.trace);
  RssProbe rss;
  rss.at_setup();

  alloc::PoolBackend pool;
  std::vector<std::unique_ptr<TC>> caches;
  for (std::size_t t = 0; t <= threads; ++t) {
    caches.push_back(std::make_unique<TC>(pool));
  }
  Smr smr;

  // Set-up: the pre-fill install, timed cold.
  const std::int64_t s0 = now_ns();
  PaperUc atom(smr, pool);
  {
    PaperUc::Ctx ctx(smr, *caches[threads]);
    atom.seed_sorted(ctx, in.prefill.begin(), in.prefill.end());
  }
  const double setup_s = static_cast<double>(now_ns() - s0) / 1e9;
  const std::size_t prefill_size = in.prefill.size();

  StartGate gate;
  Globals g0, g1;
  auto globals = [&] {
    return Globals{pool.lock_acquisitions(), smr.freed_nodes(),
                   smr.epoch_advances()};
  };

  run_clients(threads, [&](std::size_t tid) {
    PaperUc::Ctx ctx(smr, *caches[tid]);
    PaperClient& cl = clients[tid];
    ClientResult& r = res[tid];
    const Phases ph = Phases::make(o, gate.wait(threads));
    r.start(ph);
    bool in_trace = false;
    core::OpStats at_trace;
    bool flip = o.inject == "flip-result" && tid == 0;
    for (;;) {
      const std::int64_t t0 = now_ns();
      if (t0 >= ph.end) break;
      const bool traced = ph.traced_at(t0);
      if (traced && !in_trace) {
        in_trace = true;
        at_trace = ctx.stats;
        if (tid == 0) g0 = globals();
      }
      const auto [ins, k, slot] = cl.next();
      const bool landed = paper_apply(atom, ctx, ins, k, traced, r.trace);
      const std::int64_t t1 = now_ns();
      r.record(t0, t1, 1, kUpdateCall);
      ++r.attempted;
      if (landed) ++(ins ? r.inserted : r.erased);
      // flip-result corrupts only what the per-op oracle sees.
      if (!check_update(cl.present[slot], ins, landed != flip)) ++r.failed;
      flip = false;
    }
    if (in_trace) {
      r.stats_traced = stats_delta(ctx.stats, at_trace);
      if (tid == 0) g1 = globals();
    }
  });
  Report rep;
  const double rss_mb = rss.peak_above_base_mb(rep);

  std::uint64_t inserted = 0, erased = 0;
  for (const auto& r : res) {
    rep.attempted += r.attempted;
    rep.failed += r.failed;
    inserted += r.inserted;
    erased += r.erased;
  }
  const std::uint64_t pending_end = smr.pending_nodes();

  // Final checks on one pinned version. band-write writes one band key
  // with its proper value and counts it as expected in the size and the
  // membership, so that only the band check can catch it.
  const bool band_write = o.inject == "band-write";
  {
    PaperUc::Ctx ctx(smr, *caches[threads]);
    if (band_write) atom.insert(ctx, 0, in.band[0], value_of(in.band[0]));
    inject_before_checks(o, clients[0].present);
    std::vector<Key> expect;
    expect.reserve(prefill_size + kBatchKeysPerThread * threads + 1);
    if (kind == Paper::kBatch) {
      for (const auto& kv : in.prefill) expect.push_back(kv.first);
    }
    for (const auto& cl : clients) {
      for (std::size_t s = 0; s < cl.present.size(); ++s) {
        if (cl.present[s] != 0) expect.push_back(cl.key_of_slot(s));
      }
    }
    if (band_write) expect.push_back(in.band[0]);
    std::sort(expect.begin(), expect.end());
    std::uint64_t expect_size =
        prefill_size + inserted - erased + (band_write ? 1 : 0);
    if (o.inject == "size-off-by-one") ++expect_size;
    atom.read(ctx, [&](Treap t) {
      if (!t.check_invariants()) rep.fail("treap invariants violated");
      if (t.size() != expect_size) {
        rep.fail("size " + std::to_string(t.size()) + " != pre-fill + " +
                 "inserts - erases = " + std::to_string(expect_size));
      }
      std::size_t i = 0;
      bool members_ok = true;
      t.for_each([&](const Key& k, const Val& v) {
        if (i >= expect.size() || expect[i] != k || v != value_of(k)) {
          members_ok = false;
        }
        ++i;
      });
      if (!members_ok || i != expect.size()) {
        rep.fail("final membership differs from the clients' records");
      }
      for (Key k : in.band) {
        if (t.find(k) != nullptr) {
          rep.fail("never-written band key present");
          break;
        }
      }
      return 0;
    });
    inject_malformed_treap(o, rep);
  }
  const std::size_t final_size =
      prefill_size + inserted - erased + (band_write ? 1 : 0);
  smr.drain_all();

  Summary sum(res);
  add_end_to_end(rep, sum, setup_s, rss_mb);
  Layer layer;
  layer.set("persist.update_ns", sum.trace.mean_ns(kPersistUpdate));
  layer.set("persist.fresh_nodes_per_update",
            ratio(static_cast<double>(sum.trace.fresh_nodes),
                  static_cast<double>(sum.trace.count[kPersistUpdate])));
  layer.set("core.update_ns", sum.trace.mean_ns(kCoreUpdate));
  layer.set("core.commit_self_ns", sum.trace.mean_self_ns(kCoreUpdate));
  fill_common_layers(layer, sum, sum.stats_traced, g0, g1, pending_end,
                     live_bytes(pool, caches), final_size);
  rep.per_layer = layer.m;
  write_spans(o, res);
  return rep;
}

// ------------------------------------------------------- store workloads

/// One store client: owns the keys k in [0, 2^21) with k mod C == id.
/// A round is one 64-op execute_batch over its own keys (insert or erase
/// with probability 1/2), then four 64-key multi_gets whose keys are
/// uniform over the whole domain, one in 16 taken from the band instead.
struct StoreClient {
  std::size_t id;
  std::size_t clients;
  std::vector<std::uint8_t> present;
  Rng rng;
  std::vector<Req> reqs;
  std::unique_ptr<bool[]> results;
  std::vector<Key> probe;
  std::vector<Outcome> outs;

  StoreClient(std::size_t i, std::size_t n, std::uint64_t seed)
      : id(i),
        clients(n),
        present(static_cast<std::size_t>(kStoreDomain) / n + 1, 0),
        rng(seed * 0x51f1ULL + i + 7),
        reqs(kStoreBatch, Req{OpKind::kErase, 0, std::nullopt}),
        results(std::make_unique<bool[]>(kStoreBatch)),
        probe(kStoreProbeKeys),
        outs(kStoreProbeKeys) {
    for (Key k = static_cast<Key>(i); k < kStoreDomain;
         k += static_cast<Key>(n)) {
      present[static_cast<std::size_t>(k) / n] = prefilled(seed, k) ? 1 : 0;
    }
  }

  void make_batch() {
    const std::uint64_t slots =
        (static_cast<std::uint64_t>(kStoreDomain) - id + clients - 1) /
        clients;
    for (auto& r : reqs) {
      const Key k = static_cast<Key>(rng.below(slots) * clients + id);
      r = (rng.next() & 1) != 0 ? Req{OpKind::kInsert, k, value_of(k)}
                                : Req{OpKind::kErase, k, std::nullopt};
    }
  }
  void make_probe() {
    for (auto& k : probe) {
      k = rng.below(16) == 0
              ? kStoreDomain + static_cast<Key>(rng.below(kBand))
              : static_cast<Key>(rng.below(kStoreDomain));
    }
  }
  bool owns(Key k) const {
    return k < kStoreDomain && static_cast<std::size_t>(k) % clients == id;
  }
  /// Checks one probe answer; returns false on a mismatch.
  bool check_probe(Key k, const Outcome& out) const {
    if (k >= kStoreDomain) return !out.present();
    if (out.present() && *out.value != value_of(k)) return false;
    if (owns(k)) {
      return out.present() == (present[static_cast<std::size_t>(k) / clients] != 0);
    }
    return true;
  }

  /// Negative controls on one multi_get answer, each aimed at one branch
  /// of check_probe: probe-flip flips the presence of an own-partition
  /// key, probe-value changes a value read, probe-band reports a band key
  /// as present with its proper value. Returns true once it corrupted one.
  bool corrupt_probe(const std::string& mode) {
    for (unsigned i = 0; i < kStoreProbeKeys; ++i) {
      const Key k = probe[i];
      Outcome& out = outs[i];
      if (mode == "probe-flip" && owns(k)) {
        if (out.present()) {
          out.value.reset();
        } else {
          out.value = value_of(k);
        }
        return true;
      }
      if (mode == "probe-value" && out.present()) {
        *out.value ^= 1;
        return true;
      }
      if (mode == "probe-band" && k >= kStoreDomain) {
        out.value = value_of(k);
        return true;
      }
    }
    return false;
  }
};

struct StoreShape {
  std::size_t shards;
  std::size_t clients;
  bool executor;
};

Report run_store(const Options& o, StoreShape shape) {
  std::vector<std::pair<Key, Val>> prefill;
  prefill.reserve(static_cast<std::size_t>(kStoreDomain) / 2 + 4096);
  for (Key k = 0; k < kStoreDomain; ++k) {
    if (prefilled(o.seed, k)) prefill.emplace_back(k, value_of(k));
  }
  const std::size_t prefill_size = prefill.size();
  std::vector<StoreClient> clients;
  for (std::size_t c = 0; c < shape.clients; ++c) {
    clients.emplace_back(c, shape.clients, o.seed);
  }
  std::vector<ClientResult> res = make_results(shape.clients, o.trace);
  RssProbe rss;
  rss.at_setup();

  alloc::PoolBackend pool;
  // One cache per client, per shard worker, and for the final checks.
  std::vector<std::unique_ptr<TC>> caches;
  for (std::size_t i = 0; i < shape.clients + shape.shards + 1; ++i) {
    caches.push_back(std::make_unique<TC>(pool));
  }
  TC& check_cache = *caches.back();

  // Set-up: map, executor start, and the pre-fill, timed cold.
  const std::int64_t s0 = now_ns();
  StoreMap map(shape.shards, check_cache,
               Router::uniform(0, kStoreDomain, shape.shards));
  std::optional<store::ShardExecutor<StoreUc>> exec;
  std::atomic<std::size_t> next_worker{0};
  if (shape.executor) {
    exec.emplace(map, [&]() -> TC& {
      return *caches[shape.clients + next_worker.fetch_add(1)];
    });
  }
  // Sessions are built on their client threads; the seeding one is
  // client 0's, made on this (client 0's) thread.
  std::optional<StoreMap::Session> session0;
  session0.emplace(map, *caches[0]);
  session0->seed_sorted(prefill.begin(), prefill.end());
  const double setup_s = static_cast<double>(now_ns() - s0) / 1e9;

  StartGate gate;
  Globals g0, g1;
  auto globals = [&] {
    Globals g{pool.lock_acquisitions(), 0, 0};
    for (std::size_t s = 0; s < shape.shards; ++s) {
      g.freed += map.shard(s).reclaimer().freed_nodes();
      g.advances += map.shard(s).reclaimer().epoch_advances();
    }
    return g;
  };

  run_clients(shape.clients, [&](std::size_t id) {
    std::optional<StoreMap::Session> own;
    if (id != 0) own.emplace(map, *caches[id]);
    StoreMap::Session& sess = id == 0 ? *session0 : *own;
    StoreClient& cl = clients[id];
    ClientResult& r = res[id];
    const Phases ph = Phases::make(o, gate.wait(shape.clients));
    r.start(ph);
    bool in_trace = false;
    core::OpStats at_trace;
    bool flip = o.inject == "flip-result" && id == 0;
    bool corrupt = o.inject.rfind("probe-", 0) == 0 && id == 0;
    for (;;) {
      std::int64_t t0 = now_ns();
      if (t0 >= ph.end) break;
      const bool traced = ph.traced_at(t0);
      if (traced && !in_trace) {
        in_trace = true;
        at_trace = sess.stats();
        if (id == 0) g0 = globals();
      }
      // execute_batch
      cl.make_batch();
      t0 = now_ns();
      sess.execute_batch(cl.reqs, std::span<bool>(cl.results.get(), kStoreBatch));
      std::int64_t t1 = now_ns();
      r.record(t0, t1, kStoreBatch, kBatchCall);
      if (traced) {
        r.trace.add(r.trace.next_id++, 0, kStoreExecuteBatch, t0, t1, 0);
      }
      for (unsigned i = 0; i < kStoreBatch; ++i) {
        const Req& q = cl.reqs[i];
        const bool ins = q.kind == OpKind::kInsert;
        const bool landed = cl.results[i];
        ++r.attempted;
        if (landed) ++(ins ? r.inserted : r.erased);
        const std::size_t slot = static_cast<std::size_t>(q.key) / cl.clients;
        // flip-result corrupts only what the per-op oracle sees.
        if (!check_update(cl.present[slot], ins, landed != flip)) ++r.failed;
        flip = false;
      }
      // multi_gets
      for (unsigned p = 0; p < kStoreProbes; ++p) {
        cl.make_probe();
        t0 = now_ns();
        sess.multi_get(cl.probe, cl.outs);
        t1 = now_ns();
        r.record(t0, t1, kStoreProbeKeys, kProbeCall);
        if (traced) {
          r.trace.add(r.trace.next_id++, 0, kStoreMultiGet, t0, t1, 0);
        }
        if (corrupt) corrupt = !cl.corrupt_probe(o.inject);
        for (unsigned i = 0; i < kStoreProbeKeys; ++i) {
          ++r.attempted;
          if (!cl.check_probe(cl.probe[i], cl.outs[i])) ++r.failed;
        }
      }
    }
    if (in_trace) {
      r.stats_traced = stats_delta(sess.stats(), at_trace);
      if (id == 0) g1 = globals();
    }
  });
  Report rep;
  const double rss_mb = rss.peak_above_base_mb(rep);
  session0.reset();
  prefill.clear();
  prefill.shrink_to_fit();

  // Executor workers' counters cover the whole run (readable after stop).
  core::OpStats worker;
  if (exec) {
    exec->stop();
    for (std::size_t s = 0; s < shape.shards; ++s) worker += exec->shard_stats(s);
  }

  std::uint64_t inserted = 0, erased = 0;
  for (const auto& r : res) {
    rep.attempted += r.attempted;
    rep.failed += r.failed;
    inserted += r.inserted;
    erased += r.erased;
  }
  std::uint64_t pending_end = 0;
  for (std::size_t s = 0; s < shape.shards; ++s) {
    pending_end += map.shard(s).reclaimer().pending_nodes();
  }

  // Final checks, through a fresh session on this thread. band-write
  // writes the first band key with its proper value and counts it as
  // expected in the size and the membership, so that only the band check
  // can catch it.
  const bool band_write = o.inject == "band-write";
  std::size_t final_size = 0;
  {
    StoreMap::Session sess(map, check_cache);
    if (band_write) sess.insert(kStoreDomain, value_of(kStoreDomain));
    inject_before_checks(o, clients[0].present);
    std::uint64_t expect_size =
        prefill_size + inserted - erased + (band_write ? 1 : 0);
    if (o.inject == "size-off-by-one") ++expect_size;
    final_size = sess.size();
    if (final_size != expect_size) {
      rep.fail("size " + std::to_string(final_size) + " != pre-fill + " +
               "inserts - erases = " + std::to_string(expect_size));
    }
    const bool inv = sess.read_cut([](const auto& cut) {
      bool ok = true;
      for (std::size_t s = 0; s < cut.shards(); ++s) {
        ok = ok && cut.snapshot(s).check_invariants();
      }
      return ok;
    });
    if (!inv) rep.fail("treap invariants violated");
    inject_malformed_treap(o, rep);
    Key next = 0;  // next domain key whose record is checked
    bool members_ok = true;
    auto expect_present = [&](Key k) {
      const std::size_t c = static_cast<std::size_t>(k) % shape.clients;
      return clients[c].present[static_cast<std::size_t>(k) / shape.clients] != 0;
    };
    sess.for_each_ordered([&](const Key& k, const Val& v) {
      if (band_write && k == kStoreDomain && v == value_of(k)) return;
      if (v != value_of(k) || k >= kStoreDomain || k < next) {
        members_ok = false;
        return;
      }
      for (; next < k; ++next) members_ok = members_ok && !expect_present(next);
      members_ok = members_ok && expect_present(k);
      next = k + 1;
    });
    for (; next < kStoreDomain; ++next) {
      members_ok = members_ok && !expect_present(next);
    }
    if (!members_ok) rep.fail("final membership differs from the clients' records");
    std::vector<Key> band(kBand);
    for (std::size_t i = 0; i < kBand; ++i) band[i] = kStoreDomain + static_cast<Key>(i);
    std::vector<Outcome> outs(kBand);
    sess.multi_get(band, outs);
    for (const auto& out : outs) {
      if (out.present()) {
        rep.fail("never-written band key present");
        break;
      }
    }
  }
  for (std::size_t s = 0; s < shape.shards; ++s) map.shard(s).reclaimer().drain_all();

  Summary sum(res);
  add_end_to_end(rep, sum, setup_s, rss_mb);
  Layer layer;
  core::OpStats st = sum.stats_traced;
  st += worker;
  layer.set("store.execute_batch_us", sum.trace.mean_ns(kStoreExecuteBatch) / 1000.0);
  layer.set("store.multi_get_us", sum.trace.mean_ns(kStoreMultiGet) / 1000.0);
  if (exec) {
    layer.set("store.tickets_per_wake", worker.tickets_per_wake());
    layer.set("store.read_tickets_per_sweep", worker.read_tickets_per_wake());
    layer.set("store.parks_per_wake",
              ratio(static_cast<double>(worker.exec_parks),
                    static_cast<double>(worker.exec_wakes)));
    layer.set("store.task_us", worker.mean_task_us());
  }
  fill_common_layers(layer, sum, st, g0, g1, pending_end,
                     live_bytes(pool, caches), final_size);
  rep.per_layer = layer.m;
  write_spans(o, res);
  return rep;
}

// ------------------------------------------------------------- reference

/// Sequential treap on the paper-batch / paper-random inputs, one thread,
/// no oracle (the reference row of the paper's tables).
double seq_ops_per_sec(Paper kind, const Options& o) {
  const PaperInputs in = make_paper_inputs(kind, o.seed);
  seq::SeqTreap<Key, Val> t;
  for (const auto& kv : in.prefill) t.insert(kv.first, kv.second);
  PaperClient cl(kind, 0, 1, in, o.seed);
  const std::int64_t start = now_ns();
  const Phases ph = Phases::make(o, start);
  std::uint64_t ops = 0;
  std::uint64_t sink = 0;
  for (;;) {
    const std::int64_t t0 = now_ns();
    if (t0 >= ph.end) break;
    const auto [ins, k, slot] = cl.next();
    (void)slot;
    sink += ins ? t.insert(k, value_of(k)) : t.erase(k);
    if (t0 >= ph.measure) ++ops;
  }
  if (sink == 0) std::fprintf(stderr, "(no op landed)\n");
  return static_cast<double>(ops) / o.seconds;
}

int run_reference(Options o) {
  struct PaperRow {
    const char* name;
    Paper kind;
    double paper_seq;
    double paper_1;
    double paper_4;
  };
  // Published rows, Xeon Gold 5220 table (1 and 4 threads).
  const PaperRow rows[] = {{"paper-batch", Paper::kBatch, 451940, 0.89, 1.23},
                           {"paper-random", Paper::kRandom, 419736, 1.48, 2.38}};
  std::printf("%-13s %12s %12s %7s %12s %7s   paper: %9s %6s %6s\n", "workload",
              "seq ops/s", "UC@1 ops/s", "x seq", "UC@4 ops/s", "x seq",
              "seq ops/s", "x@1", "x@4");
  for (const auto& row : rows) {
    const double seq = seq_ops_per_sec(row.kind, o);
    o.threads = 1;
    const Report r1 = run_paper(o, row.kind);
    o.threads = 4;
    const Report r4 = run_paper(o, row.kind);
    const double u1 = r1.end_to_end[0].value;
    const double u4 = r4.end_to_end[0].value;
    std::printf("%-13s %12.0f %12.0f %7.2f %12.0f %7.2f   paper: %9.0f %6.2f %6.2f\n",
                row.name, seq, u1, u1 / seq, u4, u4 / seq, row.paper_seq,
                row.paper_1, row.paper_4);
    if (!r1.correct || !r4.correct || r1.failed + r4.failed != 0) {
      std::printf("  (outputs failed a check)\n");
      return 1;
    }
  }
  return 0;
}

// ------------------------------------------------------------------ main

void print_report(const Options& o, const Report& r) {
  std::printf("workload %s seed %" PRIu64 " seconds %.3f trace %d\n",
              o.workload.c_str(), o.seed, o.seconds, o.trace ? 1 : 0);
  for (const auto& m : r.end_to_end) {
    std::printf("  %-34s %14.4f %s\n", m.name, m.value, m.unit);
  }
  if (o.trace) {
    for (const auto& m : r.per_layer) {
      std::printf("  %-34s %14.4f %s\n", m.name, m.value, m.unit);
    }
  }
  for (const auto& n : r.notes) std::printf("  %s\n", n.c_str());
  std::printf("  attempted %" PRIu64 " failed %" PRIu64 "\n", r.attempted,
              r.failed);
  for (const auto& p : r.problems) std::printf("  CHECK FAILED: %s\n", p.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": {",
              r.correct ? "true" : "false", r.attempted, r.failed);
  const auto& ms = o.trace ? r.per_layer : r.end_to_end;
  for (std::size_t i = 0; i < ms.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", ms[i].name, ms[i].value, ms[i].unit);
  }
  std::printf("}}\n");
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "ucbench: %s\nusage: ucbench --workload "
               "paper-batch|paper-random|store-async|store-sync --seed N "
               "--seconds S --trace 0|1 [--warmup S] [--trace-out FILE] "
               "[--threads N] [--inject MODE] | --reference\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    if (a == "--workload") {
      o.workload = value();
    } else if (a == "--seed") {
      o.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      o.seconds = std::strtod(value().c_str(), nullptr);
    } else if (a == "--warmup") {
      o.warmup = std::strtod(value().c_str(), nullptr);
    } else if (a == "--trace") {
      o.trace = value() == "1";
    } else if (a == "--trace-out") {
      o.trace_out = value();
    } else if (a == "--threads") {
      o.threads = static_cast<unsigned>(std::strtoul(value().c_str(), nullptr, 10));
    } else if (a == "--inject") {
      o.inject = value();
    } else if (a == "--reference") {
      o.reference = true;
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }
  if (!(o.seconds > 0.0) || o.seconds > 600.0) usage("--seconds out of range");
  if (o.warmup < 0.0 || o.warmup > 60.0) usage("--warmup out of range");
  if (o.threads > kMaxPaperThreads) usage("--threads must be 1..4");
  static const char* const kInjects[] = {
      "",           "flip-result",  "size-off-by-one", "drop-record",
      "bad-invariants", "band-write", "probe-flip",     "probe-value",
      "probe-band"};
  if (std::find_if(std::begin(kInjects), std::end(kInjects), [&](const char* s) {
        return o.inject == s;
      }) == std::end(kInjects)) {
    usage("unknown --inject mode");
  }
  if (o.inject.rfind("probe-", 0) == 0 && o.workload.rfind("store-", 0) != 0) {
    usage("probe-* controls apply to store-* only");
  }
  if (o.reference) {
    o.trace = false;
    return run_reference(o);
  }

  Report r;
  if (o.workload == "paper-batch") {
    r = run_paper(o, Paper::kBatch);
  } else if (o.workload == "paper-random") {
    r = run_paper(o, Paper::kRandom);
  } else if (o.workload == "store-async") {
    if (o.threads != 0) usage("--threads applies to paper-* only");
    r = run_store(o, {2, 2, true});
  } else if (o.workload == "store-sync") {
    if (o.threads != 0) usage("--threads applies to paper-* only");
    r = run_store(o, {4, 4, false});
  } else {
    usage("unknown --workload");
  }
  print_report(o, r);
  return 0;
}
