// ndq_perfbench: the repository benchmark. One process runs one workload
// against the engine's public API (Engine, Session::Run, Session::Apply),
// checks every result, and prints one JSON line of metrics last. See
// README.md in this directory for the workloads, metrics and method.
//
// Usage: ndq_perfbench --workload local_read|fleet_read|online_update
//          --seed N --seconds S --trace 0|1
//          [--scale full|check] [--tamper digest|count]
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the same
// workload with per-layer probes and reports the per-layer metrics.
// --scale check runs a reduced directory through the same code path.
// --tamper corrupts one expected value so that a run must report
// "correct": false; the check mode uses it to prove each check can fail.

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <sys/resource.h>

#include "core/dn.h"
#include "engine/engine.h"
#include "exec/trace.h"
#include "gen/dif_gen.h"
#include "gen/paper_data.h"
#include "query/optimize.h"
#include "query/parser.h"
#include "query/reference.h"
#include "query/rewrite.h"
#include "storage/serde.h"

using namespace ndq;

namespace {

using Clock = std::chrono::steady_clock;

// Set-up time runs from here: static initialization happens at process
// start, before main.
const Clock::time_point kProcessStart = Clock::now();

double Micros(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

double SecondsSince(Clock::time_point a) {
  return std::chrono::duration<double>(Clock::now() - a).count();
}

// Marks the start of a stage of the run on standard output.
void Stage(const char* name) {
  std::printf("# t=%.2fs %s\n", SecondsSince(kProcessStart), name);
}

// ---------------------------------------------------------------------------
// Arguments
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  uint32_t seed = 1;
  double seconds = 0;
  bool trace = false;
  bool check_scale = false;
  std::string tamper;  // "", "digest" or "count"
};

bool ParseArgs(int argc, char** argv, Args* a) {
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    std::string k = argv[i];
    if (i + 1 >= argc) return false;
    std::string v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      unsigned long long s = std::strtoull(v.c_str(), &end, 10);
      if (*end != '\0' || v.empty()) return false;
      a->seed = static_cast<uint32_t>(s);
      have_seed = true;
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v.c_str(), &end);
      if (*end != '\0' || !(a->seconds > 0) || a->seconds > 3600) return false;
      have_seconds = true;
    } else if (k == "--trace") {
      if (v != "0" && v != "1") return false;
      a->trace = v == "1";
      have_trace = true;
    } else if (k == "--scale") {
      if (v != "full" && v != "check") return false;
      a->check_scale = v == "check";
    } else if (k == "--tamper") {
      if (v != "digest" && v != "count") return false;
      a->tamper = v;
    } else {
      return false;
    }
  }
  return have_seed && have_seconds && have_trace &&
         (a->workload == "local_read" || a->workload == "fleet_read" ||
          a->workload == "online_update");
}

// ---------------------------------------------------------------------------
// Small statistics helpers
// ---------------------------------------------------------------------------

// Linear interpolation between order statistics.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double PeakRssMb() {
  struct rusage ru;
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// ---------------------------------------------------------------------------
// Correctness: digests, properties, and the record of failed checks
// ---------------------------------------------------------------------------

std::string g_tamper;

// FNV-1a over each entry's serialized bytes, plus the entry count.
struct Digest {
  uint64_t hash = 1469598103934665603ull;
  uint64_t count = 0;

  void Add(const Entry& e) {
    std::string bytes;
    SerializeEntry(e, &bytes);
    for (unsigned char c : bytes) {
      hash ^= c;
      hash *= 1099511628211ull;
    }
    ++count;
  }
  bool operator==(const Digest& o) const {
    return hash == o.hash && count == o.count;
  }
};

Digest DigestOf(const std::vector<Entry>& entries) {
  Digest d;
  for (const Entry& e : entries) d.Add(e);
  return d;
}

Digest DigestOf(const std::vector<const Entry*>& entries) {
  Digest d;
  for (const Entry* e : entries) d.Add(*e);
  return d;
}

// An expected digest as the checks use it; --tamper digest corrupts it.
Digest Expected(Digest d) {
  if (g_tamper == "digest") d.hash ^= 1;
  return d;
}

// An expected count as the checks use it; --tamper count corrupts it.
int64_t ExpectedCount(int64_t n) { return g_tamper == "count" ? n + 1 : n; }

class Checks {
 public:
  void Fail(const std::string& what) {
    std::lock_guard<std::mutex> lock(mu_);
    if (failures_++ < 5) std::printf("# check failed: %s\n", what.c_str());
  }
  bool ok() const {
    std::lock_guard<std::mutex> lock(mu_);
    return failures_ == 0;
  }

 private:
  mutable std::mutex mu_;
  uint64_t failures_ = 0;
};

// The scope every result entry of `q` must lie in: a leaf's own scope,
// and for operators whose output is a subset of their first operand's,
// that operand's. A union has no single scope (known = false).
struct ResultScope {
  bool known = false;
  std::string base_key;
  Scope scope = Scope::kSub;
};

ResultScope ScopeOf(const Query& q) {
  switch (q.op()) {
    case QueryOp::kAtomic:
    case QueryOp::kLdap:
      return {true, q.base().HierKey(), q.scope()};
    case QueryOp::kOr:
      return {};
    default:
      return ScopeOf(*q.q1());
  }
}

bool InScope(const ResultScope& s, std::string_view key) {
  switch (s.scope) {
    case Scope::kBase:
      return key == s.base_key;
    case Scope::kOne:
      return key == s.base_key || KeyIsParent(s.base_key, key);
    case Scope::kSub:
      return KeyInSubtree(s.base_key, key);
  }
  return false;
}

// One query of a stream with what its result must satisfy.
struct StreamQuery {
  int cls = 0;
  std::string text;
  int64_t expect_count = -1;  // closed-form result size, or -1
  ResultScope scope;
};

// Checks one successful outcome: HierKey order, scope, closed-form count,
// the reference digest (when given) and the theorem bounds of its trace.
void CheckOutcome(const QueryOutcome& out, const StreamQuery& q,
                  const Digest* expected, Checks* checks) {
  for (size_t i = 1; i < out.entries.size(); ++i) {
    if (!(out.entries[i - 1].HierKey() < out.entries[i].HierKey())) {
      checks->Fail("result not in strictly increasing HierKey order: " +
                   q.text);
      break;
    }
  }
  if (q.scope.known) {
    for (const Entry& e : out.entries) {
      if (!InScope(q.scope, e.HierKey())) {
        checks->Fail("entry " + e.dn().ToString() + " outside scope: " +
                     q.text);
        break;
      }
    }
  }
  if (q.expect_count >= 0 &&
      static_cast<int64_t>(out.entries.size()) !=
          ExpectedCount(q.expect_count)) {
    checks->Fail("count " + std::to_string(out.entries.size()) +
                 " != closed form " + std::to_string(q.expect_count) + ": " +
                 q.text);
  }
  if (expected != nullptr && !(DigestOf(out.entries) == Expected(*expected))) {
    checks->Fail("result differs from the reference evaluator: " + q.text);
  }
  std::vector<std::string> violations = VerifyTheoremBounds(out.trace);
  if (!violations.empty()) {
    checks->Fail("theorem bound: " + violations[0] + ": " + q.text);
  }
}

Result<Digest> ReferenceDigest(const std::string& text,
                               const DirectoryInstance& inst) {
  NDQ_ASSIGN_OR_RETURN(QueryPtr q, ParseQuery(text));
  NDQ_ASSIGN_OR_RETURN(std::vector<const Entry*> r,
                       EvaluateReference(*q, inst));
  return DigestOf(r);
}

// ---------------------------------------------------------------------------
// Per-layer accounting (--trace 1)
// ---------------------------------------------------------------------------

struct ExecSums {
  double atomic_us = 0, boolean_us = 0, hierarchy_us = 0, embedded_us = 0;
  uint64_t scanned = 0, scanned_output = 0;
};

void Harvest(const OpTrace& t, ExecSums* s) {
  double child = 0;
  for (const OpTrace& c : t.children) {
    child += c.wall_micros;
    Harvest(c, s);
  }
  double self = std::max(0.0, t.wall_micros - child);
  switch (t.op) {
    case QueryOp::kAtomic:
    case QueryOp::kLdap:
      s->atomic_us += self;
      s->scanned += t.scanned_records;
      if (t.scanned_records > 0) s->scanned_output += t.output_records;
      break;
    case QueryOp::kAnd:
    case QueryOp::kOr:
    case QueryOp::kDiff:
      s->boolean_us += self;
      break;
    case QueryOp::kValueDn:
    case QueryOp::kDnValue:
      s->embedded_us += self;
      break;
    default:
      s->hierarchy_us += self;
      break;
  }
}

// Everything the traced run reports. Per-query figures are divided by
// `queries` at the end; the dist figures stay zero on workloads without a
// fleet (README.md lists every figure that is zero by construction).
struct LayerStats {
  std::mutex mu;  // guards the vectors below under two fleet sessions
  std::vector<double> parse_us, plan_us, overhead_us;
  ExecSums exec;
  uint64_t queries = 0;
  std::map<std::string, std::vector<double>> latency_by_text;

  uint64_t cache_hits = 0, cache_misses = 0;
  std::vector<double> invalidate_us;
  uint64_t store_reads = 0, scratch_writes = 0;
  double scan_ns = 0, decode_ns = 0, dn_ns = 0, match_ns = 0;
  uint64_t probe_records = 0;

  uint64_t messages = 0, records_shipped = 0, bytes_shipped = 0,
           servers_contacted = 0;
  std::vector<double> dist_overhead_ms;

  std::vector<double> put_us, remove_us;
  uint64_t data_page_writes = 0, updates = 0;
  size_t segments = 0;
  std::vector<double> merged_scan_ns;
};

// Times ParseQuery and RewriteQuery + OptimizeQuery of `text` against the
// engine's store, the two planning steps Session::Run performs.
void ProbePlanning(const Engine& engine, const std::string& text,
                   LayerStats* ls) {
  Clock::time_point t0 = Clock::now();
  Result<QueryPtr> parsed = ParseQuery(text);
  Clock::time_point t1 = Clock::now();
  if (!parsed.ok()) return;
  std::shared_ptr<const EntrySource> pinned = engine.store().PinSnapshot();
  const EntrySource& src = pinned != nullptr ? *pinned : engine.store();
  Clock::time_point t2 = Clock::now();
  QueryPtr plan = OptimizeQuery(src, RewriteQuery(*parsed)).plan;
  Clock::time_point t3 = Clock::now();
  (void)plan;
  std::lock_guard<std::mutex> lock(ls->mu);
  ls->parse_us.push_back(Micros(t0, t1));
  ls->plan_us.push_back(Micros(t2, t3));
}

void RecordOutcome(const QueryOutcome& out, double latency_us,
                   const std::string& text, LayerStats* ls) {
  ExecSums sums;
  Harvest(out.trace, &sums);
  std::lock_guard<std::mutex> lock(ls->mu);
  ls->overhead_us.push_back(latency_us - out.trace.wall_micros);
  ls->exec.atomic_us += sums.atomic_us;
  ls->exec.boolean_us += sums.boolean_us;
  ls->exec.hierarchy_us += sums.hierarchy_us;
  ls->exec.embedded_us += sums.embedded_us;
  ls->exec.scanned += sums.scanned;
  ls->exec.scanned_output += sums.scanned_output;
  ++ls->queries;
  ls->latency_by_text[text].push_back(latency_us);
}

// Times, over one atomic leaf's key range: the store's ScanRange with a
// no-op callback, DeserializeEntry, Dn::FromHierKey and the leaf filter's
// Matches, each over the same records.
void ProbeLeaf(const EntrySource& store, const Query& leaf, LayerStats* ls) {
  const std::string& base = leaf.base().HierKey();
  std::string end = leaf.scope() == Scope::kBase ? KeyExactEnd(base)
                                                 : KeySubtreeEnd(base);
  uint64_t n = 0;
  Clock::time_point t0 = Clock::now();
  Status s = store.ScanRange(base, end, [&](std::string_view) {
    ++n;
    return Status::OK();
  });
  Clock::time_point t1 = Clock::now();
  if (!s.ok() || n == 0) return;
  std::vector<std::string> records;
  records.reserve(n);
  s = store.ScanRange(base, end, [&](std::string_view r) {
    records.emplace_back(r);
    return Status::OK();
  });
  if (!s.ok()) return;
  std::vector<Entry> entries;
  entries.reserve(records.size());
  Clock::time_point t2 = Clock::now();
  for (const std::string& r : records) {
    Result<Entry> e = DeserializeEntry(r);
    if (e.ok()) entries.push_back(e.TakeValue());
  }
  Clock::time_point t3 = Clock::now();
  std::vector<std::string_view> keys;
  keys.reserve(records.size());
  for (const std::string& r : records) {
    Result<std::string_view> key = PeekEntryKey(r);
    if (key.ok()) keys.push_back(*key);
  }
  size_t dns = 0;
  Clock::time_point t3b = Clock::now();
  for (std::string_view key : keys) {
    if (Dn::FromHierKey(key).ok()) ++dns;
  }
  Clock::time_point t4 = Clock::now();
  size_t matched = 0;
  for (const Entry& e : entries) {
    bool m = leaf.op() == QueryOp::kLdap ? leaf.ldap_filter()->Matches(e)
                                         : leaf.filter().Matches(e);
    matched += m ? 1 : 0;
  }
  Clock::time_point t5 = Clock::now();
  (void)dns;
  (void)matched;
  ls->scan_ns += Micros(t0, t1) * 1e3;
  ls->decode_ns += Micros(t2, t3) * 1e3;
  ls->dn_ns += Micros(t3b, t4) * 1e3;
  ls->match_ns += Micros(t4, t5) * 1e3;
  ls->probe_records += records.size();
}

// ---------------------------------------------------------------------------
// Workload shapes
// ---------------------------------------------------------------------------

constexpr int kRoundsPerCycle = 64;
constexpr int kProbeRounds = 8;

enum ReadClass {
  kPoint,
  kSubQhp,
  kOrgPolicy,
  kChildren,
  kEmbeddedRef,
  kDiff,
  kNumReadClasses
};
const char* const kReadClassNames[kNumReadClasses] = {
    "point", "sub_qhp", "org_policy", "children_count", "vd_tpref", "diff"};
// A round is seven queries in this fixed order: every class once and a
// second point lookup. With an even number of equal shares the median
// would fall on the edge between the three cheaper classes and the three
// dearer ones, where it is the mean of two extreme samples; with seven
// slots it falls inside one class. The order is fixed so that which
// operand lists the engine's cache can serve does not depend on the seed.
const ReadClass kRoundSlots[] = {kPoint, kSubQhp,      kOrgPolicy, kChildren,
                                 kPoint, kEmbeddedRef, kDiff};
constexpr int kSlotsPerRound = sizeof(kRoundSlots) / sizeof(kRoundSlots[0]);

gen::DifOptions ReadShape(uint32_t seed, bool check) {
  gen::DifOptions d;
  d.seed = seed;
  d.num_orgs = check ? 4 : 16;
  d.subdomains_per_org = check ? 2 : 4;
  d.subscribers_per_domain = check ? 40 : 400;
  return d;
}

gen::DifOptions UpdateShape(uint32_t seed, bool check) {
  gen::DifOptions d;
  d.seed = seed;
  d.num_orgs = check ? 2 : 4;
  d.subdomains_per_org = 2;
  d.subscribers_per_domain = check ? 20 : 116;
  return d;
}

// The write probe's fixed small directory (read workloads only).
gen::DifOptions ProbeShape(uint32_t seed) {
  gen::DifOptions d;
  d.seed = seed;
  d.num_orgs = 1;
  d.subdomains_per_org = 1;
  d.subscribers_per_domain = 40;
  return d;
}

std::string OrgDn(int o) { return "dc=org" + std::to_string(o) + ", dc=com"; }

std::string SubDn(const gen::DifOptions& d, int s) {
  return "dc=sub" + std::to_string(s) + ", " +
         OrgDn(s / d.subdomains_per_org);
}

StreamQuery MakeStreamQuery(int cls, std::string text, int64_t expect) {
  StreamQuery q;
  q.cls = cls;
  q.text = std::move(text);
  q.expect_count = expect;
  Result<QueryPtr> parsed = ParseQuery(q.text);
  if (parsed.ok()) q.scope = ScopeOf(**parsed);
  return q;
}

// One cycle of the read stream: kRoundsPerCycle rounds. Round r runs its
// subdomain classes on subdomain sub[r % subdomains] and its org classes
// on org org[r % orgs], for seeded permutations sub and org, so the
// cycle's work and the distance between repeats of an operand are the
// same for every seed; the seed changes which subdomain and org take which
// place, the subscriber of each point lookup, and the generated values.
std::vector<StreamQuery> MakeReadCycle(const gen::DifOptions& d,
                                       uint32_t seed) {
  std::mt19937 rng(seed * 2654435761u + 17);
  const int nsub = d.num_orgs * d.subdomains_per_org;
  auto perm = [&](int n) {
    std::vector<int> p(n);
    for (int i = 0; i < n; ++i) p[i] = i;
    std::shuffle(p.begin(), p.end(), rng);
    return p;
  };
  const std::vector<int> subs = perm(nsub), orgs = perm(d.num_orgs);
  std::vector<StreamQuery> cycle;
  for (int r = 0; r < kRoundsPerCycle; ++r) {
    const std::string sub = SubDn(d, subs[r % nsub]);
    const std::string org = OrgDn(orgs[r % d.num_orgs]);
    for (ReadClass cls : kRoundSlots) {
      switch (cls) {
        case kPoint: {
          int s = static_cast<int>(rng() % nsub);
          int u = static_cast<int>(rng() % d.subscribers_per_domain);
          cycle.push_back(MakeStreamQuery(
              cls,
              "(uid=user" + std::to_string(u) + ", ou=userProfiles, " +
                  SubDn(d, s) + " ? base ? objectClass=TOPSSubscriber)",
              1));
          break;
        }
        case kSubQhp:
          cycle.push_back(MakeStreamQuery(
              cls, "(" + sub + " ? sub ? objectClass=QHP)",
              int64_t{d.subscribers_per_domain} * d.qhps_per_subscriber));
          break;
        case kOrgPolicy:
          cycle.push_back(MakeStreamQuery(
              cls, "(" + org + " ? sub ? objectClass=SLAPolicyRules)",
              int64_t{d.subdomains_per_org} * d.policies_per_domain));
          break;
        case kChildren:
          cycle.push_back(MakeStreamQuery(
              cls, "(c (" + sub + " ? sub ? objectClass=TOPSSubscriber) (" +
                       sub + " ? sub ? objectClass=QHP) count($2)>=3)",
              d.qhps_per_subscriber >= 3 ? d.subscribers_per_domain : 0));
          break;
        case kEmbeddedRef:
          cycle.push_back(MakeStreamQuery(
              cls, "(vd (" + org + " ? sub ? objectClass=SLAPolicyRules) (" +
                       org + " ? sub ? sourcePort=25) SLATPRef)",
              -1));
          break;
        case kDiff:
          cycle.push_back(MakeStreamQuery(
              cls, "(- (" + sub + " ? sub ? objectClass=callAppearance) (" +
                       sub + " ? sub ? timeOut>=20))",
              -1));
          break;
        case kNumReadClasses:
          break;
      }
    }
  }
  return cycle;
}

std::string FleetTopology(const gen::DifOptions& d) {
  std::string text = "replicas 2\nshard root dc=com\n";
  for (int o = 0; o < d.num_orgs; ++o) {
    text += "shard org" + std::to_string(o) + " " + OrgDn(o) + "\n";
  }
  return text;
}

EngineOptions PinnedOptions() {
  EngineOptions opt;
  opt.disk_backend = "sim";
  opt.optimize = true;
  opt.exec.parallelism = 1;
  return opt;
}

size_t DiskBytes(const Disk* disk) {
  return disk == nullptr ? 0 : disk->live_pages() * disk->page_size();
}

// ---------------------------------------------------------------------------
// The run's result
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct RunReport {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
};

// ---------------------------------------------------------------------------
// Timing repeated work
// ---------------------------------------------------------------------------

// The host's slow windows last from a fraction of a second to a few seconds
// and slow everything in them by up to 1.8x (README.md). Both streams
// repeat the same units of work many times in a run: the read stream each
// slot of its cycle, the update stream its batch and its two queries at
// each subdomain position. Each unit is timed at the lower quartile of its
// repetitions, which passes over slow windows unless they catch three in
// four of them, and the rates and latency quantiles are taken over these
// unit times. A whole-phase mean takes every slow window in, and a
// quantile pooled over all samples moves with the share of the run that
// fell into them.
using UnitReps = std::map<int, std::vector<double>>;  // unit -> latencies

std::vector<double> UnitTimes(const UnitReps& reps) {
  std::vector<double> out;
  for (const auto& [unit, v] : reps) out.push_back(Quantile(v, 0.25));
  return out;
}

double Sum(const std::vector<double>& v) {
  double total = 0;
  for (double x : v) total += x;
  return total;
}

// ---------------------------------------------------------------------------
// The read stream (local_read, fleet_read)
// ---------------------------------------------------------------------------

struct ReadPhase {
  std::vector<double> latency_us;
  std::vector<int> latency_cls;
  UnitReps slot_us;  // cycle slot -> latencies, every session's
  int sessions = 1;
  double mean_qps = 0;  // summed over sessions: queries / time inside Run
  uint64_t attempted = 0, failed = 0;

  // Summed over sessions: slots over the sum of their unit times.
  double Qps() const {
    std::vector<double> t = UnitTimes(slot_us);
    double total = Sum(t);
    return total > 0 ? sessions * static_cast<double>(t.size()) / (total / 1e6)
                     : 0;
  }
};

// Runs rounds of `cycle` on one session, starting at round `first_round`,
// until `rounds` rounds ran (rounds > 0) or the deadline passed (checked
// between rounds). Every outcome is checked.
struct SessionLoop {
  Session session;
  const std::vector<StreamQuery>* cycle;
  const std::map<std::string, Digest>* reference;
  Checks* checks;
  LayerStats* layers;  // null unless traced
  const Engine* engine;
  std::function<void()> after_round;  // after each measured round

  std::vector<double> latency_us;
  std::vector<int> latency_cls;
  UnitReps slot_us;
  double busy_us = 0;
  uint64_t attempted = 0, failed = 0;
  std::map<std::string, Digest> seen;  // first digest per text

  void Run(int first_round, int rounds, Clock::time_point deadline,
           bool record) {
    const int per_round = kSlotsPerRound;
    const int ncycle = static_cast<int>(cycle->size()) / per_round;
    for (int r = first_round;; ++r) {
      if (rounds > 0 ? r - first_round >= rounds : Clock::now() >= deadline) {
        break;
      }
      for (int i = 0; i < per_round; ++i) {
        const int slot = (r % ncycle) * per_round + i;
        const StreamQuery& q = (*cycle)[slot];
        Clock::time_point t0 = Clock::now();
        QueryOutcome out = session.Run(q.text);
        Clock::time_point t1 = Clock::now();
        double us = Micros(t0, t1);
        ++attempted;
        if (!out.ok()) {
          ++failed;
          checks->Fail("query failed: " + out.status.ToString() + ": " +
                       q.text);
          continue;
        }
        if (record) {
          latency_us.push_back(us);
          latency_cls.push_back(q.cls);
          busy_us += us;
          slot_us[slot].push_back(us);
        }
        auto ref = reference->find(q.text);
        CheckOutcome(out, q, ref == reference->end() ? nullptr : &ref->second,
                     checks);
        if (seen.find(q.text) == seen.end()) {
          seen[q.text] = DigestOf(out.entries);
        }
        if (layers != nullptr && record) {
          RecordOutcome(out, us, q.text, layers);
          ProbePlanning(*engine, q.text, layers);
        }
      }
      if (record && after_round) after_round();
    }
  }
};

// Warm-up pass plus measured phase with `sessions` concurrent sessions,
// each on its own thread. The sessions start at evenly spread rounds of
// the cycle, and the warm-up covers the whole cycle once in total. The
// first session calls `after_round` after each of its measured rounds.
ReadPhase RunReadPhase(Engine* engine, const std::vector<StreamQuery>& cycle,
                       const std::map<std::string, Digest>& reference,
                       int sessions, double seconds, Checks* checks,
                       LayerStats* layers,
                       const std::function<void()>& on_measure_start,
                       const std::function<void()>& after_round,
                       std::map<std::string, Digest>* seen) {
  std::vector<SessionLoop> loops(sessions);
  const int stride = kRoundsPerCycle / sessions;
  for (int s = 0; s < sessions; ++s) {
    loops[s] = SessionLoop{engine->OpenSession(),
                           &cycle,
                           &reference,
                           checks,
                           layers,
                           engine,
                           s == 0 ? after_round : nullptr,
                           {},
                           {},
                           {},
                           0,
                           0,
                           0,
                           {}};
  }
  auto run_all = [&](bool warm, Clock::time_point deadline) {
    std::vector<std::thread> threads;
    for (int s = 0; s < sessions; ++s) {
      threads.emplace_back([&, s] {
        loops[s].Run(s * stride, warm ? stride : 0, deadline, !warm);
      });
    }
    for (std::thread& t : threads) t.join();
  };
  run_all(true, Clock::now());
  on_measure_start();
  Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  run_all(false, deadline);

  ReadPhase phase;
  phase.sessions = sessions;
  for (SessionLoop& l : loops) {
    phase.latency_us.insert(phase.latency_us.end(), l.latency_us.begin(),
                            l.latency_us.end());
    phase.latency_cls.insert(phase.latency_cls.end(), l.latency_cls.begin(),
                             l.latency_cls.end());
    for (auto& [slot, v] : l.slot_us) {
      std::vector<double>& all = phase.slot_us[slot];
      all.insert(all.end(), v.begin(), v.end());
    }
    if (l.busy_us > 0) {
      phase.mean_qps += static_cast<double>(l.latency_us.size()) /
                        (l.busy_us / 1e6);
    }
    phase.attempted += l.attempted;
    phase.failed += l.failed;
    for (auto& [text, d] : l.seen) seen->emplace(text, d);
  }
  return phase;
}

std::map<std::string, Digest> ReferenceDigests(
    const std::vector<StreamQuery>& cycle, const DirectoryInstance& inst,
    Checks* checks) {
  std::map<std::string, Digest> ref;
  for (const StreamQuery& q : cycle) {
    if (ref.count(q.text) != 0) continue;
    Result<Digest> d = ReferenceDigest(q.text, inst);
    if (!d.ok()) {
      checks->Fail("reference evaluation failed: " + q.text);
      continue;
    }
    ref.emplace(q.text, *d);
  }
  return ref;
}

// The distinct queries of the cycle's first kProbeRounds rounds: the set
// the post-phase comparisons and per-layer probes run over.
std::vector<const StreamQuery*> ProbeSet(
    const std::vector<StreamQuery>& cycle) {
  std::vector<const StreamQuery*> out;
  std::map<std::string, bool> seen;
  for (int i = 0; i < kProbeRounds * kSlotsPerRound; ++i) {
    if (seen.emplace(cycle[i].text, true).second) out.push_back(&cycle[i]);
  }
  return out;
}

// Runs the probe set on `engine`, refilling its operand cache, and times
// InvalidateCaches after each round.
void ProbeInvalidate(Engine* engine, const std::vector<StreamQuery>& cycle,
                     LayerStats* ls) {
  Session s = engine->OpenSession();
  for (int r = 0; r < kProbeRounds; ++r) {
    for (int i = 0; i < kSlotsPerRound; ++i) {
      s.Run(cycle[r * kSlotsPerRound + i].text);
    }
    Clock::time_point t0 = Clock::now();
    engine->InvalidateCaches();
    ls->invalidate_us.push_back(Micros(t0, Clock::now()));
  }
}

// Storage/core/filter probes over every atomic leaf of the probe set's
// canonical plans. `store_for` maps a leaf to the store it reads from.
template <typename StoreFor>
void ProbeLeaves(const std::vector<const StreamQuery*>& probe,
                 const StoreFor& store_for, LayerStats* ls) {
  for (const StreamQuery* q : probe) {
    Result<QueryPtr> parsed = ParseQuery(q->text);
    if (!parsed.ok()) continue;
    QueryPtr plan = RewriteQuery(*parsed);
    for (const Query* leaf : plan->Leaves()) {
      for (const EntrySource* src : store_for(*leaf)) {
        ProbeLeaf(*src, *leaf, ls);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// The update stream (online_update and the read workloads' write probe)
// ---------------------------------------------------------------------------

constexpr int kPutsPerBatch = 8;
constexpr int kAddsPerBatch = 2;  // and as many removes, once warm
constexpr int kLoadBatch = 512;

struct UpdateState {
  std::mt19937 rng;
  std::vector<Dn> cas;   // the generated callAppearance entries
  std::vector<Dn> qhps;  // parents of the added leaves
  std::deque<Dn> added;  // live leaves added by the stream, oldest first
  std::map<std::string, std::pair<Dn, int64_t>> last_put;  // key -> timeOut
  uint64_t serial = 0;
  uint64_t adds = 0, removes = 0;
};

Entry WithTimeOut(const Entry& e, int64_t timeout) {
  Entry out = e;
  out.RemoveAttribute("timeOut");
  out.AddInt("timeOut", timeout);
  return out;
}

// The next batch: kPutsPerBatch Puts of a new timeOut on generated
// callAppearance entries, kAddsPerBatch Adds of new callAppearance leaves
// and, once that many stream-added leaves exist, as many Removes of the
// oldest ones.
UpdateBatch NextBatch(UpdateState* st, const DirectoryInstance& mirror) {
  UpdateBatch b;
  for (int i = 0; i < kPutsPerBatch; ++i) {
    const Dn& dn = st->cas[st->rng() % st->cas.size()];
    const Entry* cur = mirror.Find(dn);
    if (cur == nullptr) continue;
    b.Put(WithTimeOut(*cur, 10 + static_cast<int64_t>(st->rng() % 30)));
  }
  for (int i = 0; i < kAddsPerBatch; ++i) {
    const Dn& parent = st->qhps[st->rng() % st->qhps.size()];
    std::string number = std::to_string(8000000000ull + st->serial++);
    Entry e(parent.Child(Rdn::Single("CANumber", number).TakeValue()));
    e.AddClass("callAppearance");
    e.AddString("CANumber", number);
    e.AddInt("priority", 1 + static_cast<int64_t>(st->rng() % 3));
    e.AddInt("timeOut", 10 + static_cast<int64_t>(st->rng() % 30));
    b.Add(std::move(e));
  }
  if (st->added.size() >= static_cast<size_t>(kAddsPerBatch)) {
    for (int i = 0; i < kAddsPerBatch; ++i) {
      b.Remove(st->added[i]);
    }
  }
  return b;
}

// Mirrors the ops the engine applied into the reference instance and the
// stream's bookkeeping.
void MirrorApplied(const UpdateBatch& b, const UpdateResult& res,
                   UpdateState* st, DirectoryInstance* mirror,
                   Checks* checks) {
  for (size_t i = 0; i < b.ops.size(); ++i) {
    if (i >= res.op_status.size() || !res.op_status[i].ok()) continue;
    const UpdateOp& op = b.ops[i];
    Status s;
    switch (op.kind) {
      case UpdateOp::Kind::kPut:
        s = mirror->Put(op.entry);
        st->last_put[op.entry.HierKey()] = {
            op.entry.dn(), (*op.entry.Values("timeOut"))[0].AsInt()};
        break;
      case UpdateOp::Kind::kAdd:
        s = mirror->Add(op.entry);
        st->added.push_back(op.entry.dn());
        ++st->adds;
        break;
      case UpdateOp::Kind::kRemove:
        s = mirror->Remove(op.dn);
        if (!st->added.empty() && st->added.front() == op.dn) {
          st->added.pop_front();
        }
        ++st->removes;
        break;
    }
    if (!s.ok()) checks->Fail("mirror rejected an applied op: " + s.ToString());
  }
}

struct UpdatePhase {
  std::vector<double> apply_us, query_us;
  // Units: the batch at subdomain position p, and query j of the round at
  // position p (unit 2p + j).
  UnitReps apply_by_pos, query_by_unit;
  uint64_t applied = 0, attempted = 0, failed = 0;
  double busy_us = 0;

  // Seconds inside Apply and Run for one round at every position.
  double PassSeconds() const {
    return (Sum(UnitTimes(apply_by_pos)) + Sum(UnitTimes(query_by_unit))) /
           1e6;
  }
  double OpsPerS() const {
    double pass = PassSeconds();
    if (pass <= 0 || apply_us.empty()) return 0;
    double per_batch = static_cast<double>(applied) /
                       static_cast<double>(apply_us.size());
    return per_batch * static_cast<double>(apply_by_pos.size()) / pass;
  }
  double Qps() const {
    double pass = PassSeconds();
    return pass > 0 ? static_cast<double>(query_by_unit.size()) / pass : 0;
  }
};

// One owning-mode engine with its mirror instance and update stream.
struct Updatable {
  std::unique_ptr<Engine> engine;
  Session session;
  DirectoryInstance mirror;
  UpdateState st;
  uint64_t loaded = 0;
  std::vector<int> subs;  // query subdomains, seeded order
  gen::DifOptions shape;
  int round = 0;

  explicit Updatable(DirectoryInstance inst) : mirror(std::move(inst)) {}
};

// Loads `u->mirror` into a fresh owning-mode engine through Session::Apply.
Status LoadUpdatable(Updatable* u, uint32_t seed) {
  u->engine = std::make_unique<Engine>(gen::PaperSchema(), PinnedOptions());
  u->session = u->engine->OpenSession();
  UpdateBatch batch;
  auto flush = [&]() -> Status {
    if (batch.empty()) return Status::OK();
    UpdateResult r = u->session.Apply(batch);
    if (!r.ok() || r.applied != batch.size()) {
      return r.ok() ? Status::Internal("load applied a partial batch")
                    : r.status;
    }
    u->loaded += r.applied;
    batch = UpdateBatch();
    return Status::OK();
  };
  for (const auto& [key, e] : u->mirror) {
    batch.Add(e);
    if (e.HasClass("callAppearance")) u->st.cas.push_back(e.dn());
    if (e.HasClass("QHP")) u->st.qhps.push_back(e.dn());
    if (batch.size() >= static_cast<size_t>(kLoadBatch)) {
      NDQ_RETURN_IF_ERROR(flush());
    }
  }
  NDQ_RETURN_IF_ERROR(flush());
  u->st.rng.seed(seed * 2246822519u + 3);
  int nsub = u->shape.num_orgs * u->shape.subdomains_per_org;
  for (int i = 0; i < nsub; ++i) u->subs.push_back(i);
  std::shuffle(u->subs.begin(), u->subs.end(), u->st.rng);
  return Status::OK();
}

// The two subdomain queries of round `r`, both filtering on timeOut.
std::vector<StreamQuery> UpdateQueries(const Updatable& u, int r) {
  std::string sub = SubDn(u.shape, u.subs[r % u.subs.size()]);
  return {MakeStreamQuery(0, "(" + sub + " ? sub ? timeOut>=36)", -1),
          MakeStreamQuery(1, "(p (" + sub + " ? sub ? objectClass=QHP) (" +
                                 sub + " ? sub ? timeOut<=12))",
                          -1)};
}

// Runs update rounds (one batch, then the two queries) until `rounds`
// rounds ran (rounds > 0) or the deadline passed, checking each query
// against the reference evaluator over the mirror. With `layers`, the
// store's page writes are counted, and with `query_layers` also the
// queries' per-layer figures.
void RunUpdateRounds(Updatable* u, int rounds, Clock::time_point deadline,
                     bool record, UpdatePhase* ph, Checks* checks,
                     LayerStats* layers, bool query_layers) {
  Disk* data = u->engine->data_disk();
  for (int n = 0;; ++n) {
    if (rounds > 0 ? n >= rounds : Clock::now() >= deadline) break;
    const int r = u->round++;
    UpdateBatch b = NextBatch(&u->st, u->mirror);
    uint64_t writes0 = data->stats().page_writes;
    Clock::time_point t0 = Clock::now();
    UpdateResult res = u->session.Apply(b);
    Clock::time_point t1 = Clock::now();
    uint64_t writes1 = data->stats().page_writes;
    ph->attempted += b.size();
    for (const Status& s : res.op_status) {
      if (!s.ok()) {
        ++ph->failed;
        checks->Fail("update op failed: " + s.ToString());
      }
    }
    MirrorApplied(b, res, &u->st, &u->mirror, checks);
    const int pos = r % static_cast<int>(u->subs.size());
    if (record) {
      ph->apply_us.push_back(Micros(t0, t1));
      ph->apply_by_pos[pos].push_back(Micros(t0, t1));
      ph->busy_us += Micros(t0, t1);
      ph->applied += res.applied;
      if (layers != nullptr) {
        layers->data_page_writes += writes1 - writes0;
        layers->updates += res.applied;
      }
    }
    const std::vector<StreamQuery> queries = UpdateQueries(*u, r);
    for (size_t j = 0; j < queries.size(); ++j) {
      const StreamQuery& q = queries[j];
      const IoStats before_data = data->stats();
      const IoStats before_scratch = u->engine->scratch()->stats();
      Clock::time_point q0 = Clock::now();
      QueryOutcome out = u->session.Run(q.text);
      Clock::time_point q1 = Clock::now();
      ++ph->attempted;
      if (!out.ok()) {
        ++ph->failed;
        checks->Fail("query failed: " + out.status.ToString() + ": " + q.text);
        continue;
      }
      double us = Micros(q0, q1);
      if (record) {
        ph->query_us.push_back(us);
        ph->busy_us += us;
        ph->query_by_unit[pos * 2 + static_cast<int>(j)].push_back(us);
      }
      Result<Digest> ref = ReferenceDigest(q.text, u->mirror);
      if (!ref.ok()) checks->Fail("reference evaluation failed: " + q.text);
      CheckOutcome(out, q, ref.ok() ? &*ref : nullptr, checks);
      if (query_layers && record) {
        layers->store_reads +=
            data->stats().page_reads - before_data.page_reads;
        layers->scratch_writes += u->engine->scratch()->stats().page_writes -
                                  before_scratch.page_writes;
        RecordOutcome(out, us, q.text, layers);
        ProbePlanning(*u->engine, q.text, layers);
      }
    }
    if (query_layers && record) {
      // The next batch invalidates the cache anyway, so timing the call
      // here changes no later result.
      Clock::time_point i0 = Clock::now();
      u->engine->InvalidateCaches();
      layers->invalidate_us.push_back(Micros(i0, Clock::now()));
    }
  }
}

// The end-of-run state checks: the live entry count, and the last value
// written to every Put target.
void CheckFinalState(Updatable* u, Checks* checks) {
  DirectoryStore* store = u->engine->mutable_store();
  int64_t expect = static_cast<int64_t>(u->loaded + u->st.adds -
                                        u->st.removes);
  if (static_cast<int64_t>(store->num_entries()) != ExpectedCount(expect) ||
      static_cast<int64_t>(u->mirror.size()) != expect) {
    checks->Fail("live entries " + std::to_string(store->num_entries()) +
                 " != loaded + adds - removes = " + std::to_string(expect));
  }
  for (const auto& [key, put] : u->st.last_put) {
    Result<std::optional<Entry>> got = store->Get(put.first);
    const std::vector<Value>* v =
        got.ok() && got->has_value() ? (*got)->Values("timeOut") : nullptr;
    if (v == nullptr || v->size() != 1 || (*v)[0].AsInt() != put.second) {
      checks->Fail("Get does not return the last Put of " +
                   put.first.ToString());
      break;
    }
  }
}

// Direct DirectoryStore::Put/Remove probes on the engine's mutable store
// (each Put adds a fresh leaf that the following Remove deletes again, so
// the live state is unchanged), then the merged-view full scan.
void ProbeStore(Updatable* u, LayerStats* ls) {
  DirectoryStore* store = u->engine->mutable_store();
  for (int i = 0; i < 64; ++i) {
    const Dn& parent = u->st.qhps[u->st.rng() % u->st.qhps.size()];
    std::string number = std::to_string(7000000000ll + i);
    Entry e(parent.Child(Rdn::Single("CANumber", number).TakeValue()));
    e.AddClass("callAppearance");
    e.AddString("CANumber", number);
    e.AddInt("timeOut", 10 + i % 30);
    Dn dn = e.dn();
    Clock::time_point t0 = Clock::now();
    Status put = store->Put(std::move(e));
    Clock::time_point t1 = Clock::now();
    Status rem = store->Remove(dn);
    Clock::time_point t2 = Clock::now();
    if (put.ok() && rem.ok()) {
      ls->put_us.push_back(Micros(t0, t1));
      ls->remove_us.push_back(Micros(t1, t2));
    }
  }
  u->engine->InvalidateCaches();
  for (int i = 0; i < 5; ++i) {
    uint64_t n = 0;
    Clock::time_point t0 = Clock::now();
    Status s = store->ScanRange("", "", [&](std::string_view) {
      ++n;
      return Status::OK();
    });
    if (s.ok() && n > 0) {
      ls->merged_scan_ns.push_back(Micros(t0, Clock::now()) * 1e3 /
                                   static_cast<double>(n));
    }
  }
}

// ---------------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------------

double PerUnit(double total, uint64_t units) {
  return units == 0 ? 0 : total / static_cast<double>(units);
}

void AddLayerMetrics(LayerStats& ls, RunReport* rep) {
  const uint64_t q = ls.queries;
  rep->Add("query.parse_us", Quantile(ls.parse_us, 0.5), "us");
  rep->Add("query.plan_us", Quantile(ls.plan_us, 0.5), "us");
  rep->Add("engine.overhead_us", Quantile(ls.overhead_us, 0.5), "us");
  uint64_t lookups = ls.cache_hits + ls.cache_misses;
  rep->Add("engine.cache_hit_ratio",
           lookups == 0 ? 0
                        : static_cast<double>(ls.cache_hits) /
                              static_cast<double>(lookups),
           "ratio");
  rep->Add("engine.cache_hits", static_cast<double>(ls.cache_hits), "count");
  rep->Add("engine.cache_misses", static_cast<double>(ls.cache_misses),
           "count");
  rep->Add("engine.invalidate_us", Quantile(ls.invalidate_us, 0.5), "us");
  rep->Add("exec.atomic_self_ms", PerUnit(ls.exec.atomic_us, q) / 1e3, "ms");
  rep->Add("exec.boolean_self_ms", PerUnit(ls.exec.boolean_us, q) / 1e3,
           "ms");
  rep->Add("exec.hierarchy_self_ms", PerUnit(ls.exec.hierarchy_us, q) / 1e3,
           "ms");
  rep->Add("exec.embedded_ref_self_ms",
           PerUnit(ls.exec.embedded_us, q) / 1e3, "ms");
  rep->Add("exec.scanned_records",
           PerUnit(static_cast<double>(ls.exec.scanned), q), "count");
  rep->Add("exec.scan_yield",
           ls.exec.scanned == 0
               ? 0
               : static_cast<double>(ls.exec.scanned_output) /
                     static_cast<double>(ls.exec.scanned),
           "ratio");
  rep->Add("storage.store_page_reads_per_query",
           PerUnit(static_cast<double>(ls.store_reads), q), "count");
  rep->Add("storage.scratch_page_writes_per_query",
           PerUnit(static_cast<double>(ls.scratch_writes), q), "count");
  double recs = static_cast<double>(std::max<uint64_t>(ls.probe_records, 1));
  rep->Add("storage.scan_ns_per_record", ls.scan_ns / recs, "ns");
  rep->Add("storage.decode_ns_per_record", ls.decode_ns / recs, "ns");
  rep->Add("core.dn_from_key_ns_per_record", ls.dn_ns / recs, "ns");
  rep->Add("filter.match_ns_per_record", ls.match_ns / recs, "ns");
  rep->Add("dist.messages_per_query",
           PerUnit(static_cast<double>(ls.messages), q), "count");
  rep->Add("dist.records_shipped_per_query",
           PerUnit(static_cast<double>(ls.records_shipped), q), "count");
  rep->Add("dist.bytes_shipped_per_query",
           PerUnit(static_cast<double>(ls.bytes_shipped), q), "B");
  rep->Add("dist.servers_contacted_per_query",
           PerUnit(static_cast<double>(ls.servers_contacted), q), "count");
  rep->Add("dist.overhead_ms", Quantile(ls.dist_overhead_ms, 0.5), "ms");
  rep->Add("store.put_us", Quantile(ls.put_us, 0.5), "us");
  rep->Add("store.remove_us", Quantile(ls.remove_us, 0.5), "us");
  rep->Add("store.data_page_writes_per_update",
           PerUnit(static_cast<double>(ls.data_page_writes), ls.updates),
           "count");
  rep->Add("store.segments", static_cast<double>(ls.segments), "count");
  rep->Add("store.merged_scan_ns_per_record", Quantile(ls.merged_scan_ns, 0.5),
           "ns");
}

void PrintReport(bool correct, const RunReport& rep) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(rep.attempted);
  out += ", \"failed\": " + std::to_string(rep.failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < rep.metrics.size(); ++i) {
    char num[64];
    double v = std::isfinite(rep.metrics[i].value) ? rep.metrics[i].value : 0;
    std::snprintf(num, sizeof(num), "%.17g", v);
    if (i > 0) out += ", ";
    out += "\"" + rep.metrics[i].name + "\": {\"value\": " + num +
           ", \"unit\": \"" + rep.metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

void AddLatencyMetrics(double qps, const UnitReps& query_units,
                       RunReport* rep) {
  const std::vector<double> t = UnitTimes(query_units);
  rep->Add("queries_per_s", qps, "1/s");
  rep->Add("query_p50_ms", Quantile(t, 0.5) / 1e3, "ms");
  rep->Add("query_p90_ms", Quantile(t, 0.9) / 1e3, "ms");
}

void AddUpdateMetrics(const UpdatePhase& ph, RunReport* rep) {
  rep->Add("update_ops_per_s", ph.OpsPerS(), "1/s");
  rep->Add("update_p50_ms", Quantile(UnitTimes(ph.apply_by_pos), 0.5) / 1e3,
           "ms");
}

// The metrics next to the whole-phase means and the quantiles pooled over
// all samples, which slow windows of the host move.
void PrintUpdateRates(const UpdatePhase& ph) {
  const double busy_s = ph.busy_us > 0 ? ph.busy_us / 1e6 : 1;
  std::printf(
      "# update stream: ops_per_s=%.1f (mean %.1f) queries_per_s=%.2f "
      "(mean %.2f) query_p50_ms=%.3f (pooled %.3f) update_p50_ms=%.3f "
      "(pooled %.3f)\n",
      ph.OpsPerS(), static_cast<double>(ph.applied) / busy_s, ph.Qps(),
      static_cast<double>(ph.query_us.size()) / busy_s,
      Quantile(UnitTimes(ph.query_by_unit), 0.5) / 1e3,
      Quantile(ph.query_us, 0.5) / 1e3,
      Quantile(UnitTimes(ph.apply_by_pos), 0.5) / 1e3,
      Quantile(ph.apply_us, 0.5) / 1e3);
}

void PrintClassMedians(const ReadPhase& ph) {
  const std::vector<double> t = UnitTimes(ph.slot_us);
  std::printf(
      "# queries=%zu slots=%zu queries_per_s=%.2f (mean %.2f) p50_ms=%.3f "
      "(pooled %.3f) p90_ms=%.3f (pooled %.3f)\n",
      ph.latency_us.size(), t.size(), ph.Qps(), ph.mean_qps,
      Quantile(t, 0.5) / 1e3, Quantile(ph.latency_us, 0.5) / 1e3,
      Quantile(t, 0.9) / 1e3, Quantile(ph.latency_us, 0.9) / 1e3);
  for (int c = 0; c < kNumReadClasses; ++c) {
    std::vector<double> v;
    for (size_t i = 0; i < ph.latency_us.size(); ++i) {
      if (ph.latency_cls[i] == c) v.push_back(ph.latency_us[i]);
    }
    std::printf("#   %-14s n=%zu p50_ms=%.3f p90_ms=%.3f\n",
                kReadClassNames[c], v.size(), Quantile(v, 0.5) / 1e3,
                Quantile(v, 0.9) / 1e3);
  }
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

constexpr int kUpdateWarmRounds = 20;

// The read workloads' write probe: the online_update stream over a small
// owning-mode engine, one round after each measured read round, so that
// its samples spread over the whole measured phase.
std::unique_ptr<Updatable> StartWriteProbe(uint32_t seed, RunReport* rep,
                                           Checks* checks) {
  gen::DifOptions shape = ProbeShape(seed);
  auto u = std::make_unique<Updatable>(gen::GenerateDif(shape));
  u->shape = shape;
  Status s = LoadUpdatable(u.get(), seed);
  if (!s.ok()) {
    checks->Fail("write probe load failed: " + s.ToString());
    ++rep->failed;
    return nullptr;
  }
  UpdatePhase warm;
  RunUpdateRounds(u.get(), kUpdateWarmRounds, Clock::now(), false, &warm,
                  checks, nullptr, false);
  rep->attempted += warm.attempted;
  rep->failed += warm.failed;
  return u;
}

int RunRead(const Args& a, bool fleet, RunReport* rep, Checks* checks) {
  gen::DifOptions shape = ReadShape(a.seed, a.check_scale);
  DirectoryInstance inst = gen::GenerateDif(shape);
  EngineOptions opt = PinnedOptions();
  if (fleet) {
    opt.backend = EngineBackend::kDistributed;
    Result<TopologyConfig> topo = TopologyConfig::Parse(FleetTopology(shape));
    if (!topo.ok()) {
      std::fprintf(stderr, "bad topology: %s\n",
                   topo.status().ToString().c_str());
      return 1;
    }
    opt.topology = topo.TakeValue();
  }
  Engine engine(inst, opt);
  const double setup_s = SecondsSince(kProcessStart);
  if (!engine.init_status().ok()) {
    std::fprintf(stderr, "engine build failed: %s\n",
                 engine.init_status().ToString().c_str());
    return 1;
  }
  std::printf("# entries=%zu setup_s=%.3f\n", inst.size(), setup_s);

  Stage("reference");
  std::vector<StreamQuery> cycle = MakeReadCycle(shape, a.seed);
  std::map<std::string, Digest> reference =
      ReferenceDigests(cycle, inst, checks);

  std::unique_ptr<LayerStats> layers;
  if (a.trace) layers = std::make_unique<LayerStats>();
  auto disk_reads = [&]() {
    uint64_t n = 0;
    if (fleet) {
      for (DirectoryServer* s : engine.fleet()->servers()) {
        n += s->disk()->stats().page_reads;
      }
    } else {
      n = engine.data_disk()->stats().page_reads;
    }
    return n;
  };
  OperandCacheStats cache0;
  uint64_t reads0 = 0, scratch0 = 0;
  NetStats net0;
  auto snapshot = [&]() {
    cache0 = engine.cache()->stats();
    reads0 = disk_reads();
    scratch0 = engine.scratch()->stats().page_writes;
    if (fleet) net0 = engine.fleet()->net_stats();
  };

  Stage("write probe load");
  std::unique_ptr<Updatable> probe_u = StartWriteProbe(a.seed, rep, checks);
  if (probe_u == nullptr) return 1;
  UpdatePhase probe_ph;
  auto write_round = [&]() {
    RunUpdateRounds(probe_u.get(), 1, Clock::now(), true, &probe_ph, checks,
                    layers.get(), false);
  };

  std::map<std::string, Digest> seen;
  Stage("warm-up and measured phase");
  ReadPhase ph = RunReadPhase(&engine, cycle, reference, fleet ? 2 : 1,
                              a.seconds, checks, layers.get(), snapshot,
                              write_round, &seen);
  CheckFinalState(probe_u.get(), checks);
  rep->attempted += probe_ph.attempted;
  rep->failed += probe_ph.failed;
  rep->attempted += ph.attempted;
  rep->failed += ph.failed;
  PrintClassMedians(ph);
  PrintUpdateRates(probe_ph);

  if (layers != nullptr) {
    const OperandCacheStats cache1 = engine.cache()->stats();
    layers->cache_hits = cache1.hits - cache0.hits;
    layers->cache_misses = cache1.misses - cache0.misses;
    layers->store_reads = disk_reads() - reads0;
    layers->scratch_writes = engine.scratch()->stats().page_writes - scratch0;
    if (fleet) {
      const NetStats& net1 = engine.fleet()->net_stats();
      layers->messages = net1.messages - net0.messages;
      layers->records_shipped = net1.records_shipped - net0.records_shipped;
      layers->bytes_shipped = net1.bytes_shipped - net0.bytes_shipped;
      layers->servers_contacted =
          net1.servers_contacted - net0.servers_contacted;
    }
  }

  const double rss_mb = PeakRssMb();
  double store_bytes = 0;
  if (fleet) {
    for (DirectoryServer* s : engine.fleet()->servers()) {
      store_bytes += static_cast<double>(DiskBytes(s->disk()));
    }
  } else {
    store_bytes = static_cast<double>(DiskBytes(engine.data_disk()));
  }

  Stage("post-phase checks");
  std::vector<const StreamQuery*> probe = ProbeSet(cycle);
  if (fleet) {
    // The same queries on a local engine over the same directory: results
    // must be identical, and the traced run takes the latency difference.
    EngineOptions lopt = PinnedOptions();
    lopt.cache_capacity_pages = 0;
    Engine local(inst, lopt);
    Session s = local.OpenSession();
    for (const StreamQuery* q : probe) {
      Clock::time_point t0 = Clock::now();
      QueryOutcome out = s.Run(q->text);
      double us = Micros(t0, Clock::now());
      ++rep->attempted;
      if (!out.ok()) {
        ++rep->failed;
        checks->Fail("local query failed: " + q->text);
        continue;
      }
      auto f = seen.find(q->text);
      if (f != seen.end() && !(f->second == DigestOf(out.entries))) {
        checks->Fail("fleet result differs from the local engine's: " +
                     q->text);
      }
      if (layers != nullptr) {
        auto lat = layers->latency_by_text.find(q->text);
        if (lat != layers->latency_by_text.end()) {
          for (double fleet_us : lat->second) {
            layers->dist_overhead_ms.push_back((fleet_us - us) / 1e3);
          }
        }
      }
    }
  }

  if (layers != nullptr) {
    ProbeInvalidate(&engine, cycle, layers.get());
    if (fleet) {
      DistributedDirectory* dd = engine.fleet();
      ProbeLeaves(probe,
                  [&](const Query& leaf) {
                    std::vector<const EntrySource*> out;
                    for (const std::string& name :
                         dd->OwnersFor(leaf.base(), leaf.scope())) {
                      Shard* sh = dd->FindShard(name);
                      if (sh != nullptr) out.push_back(&sh->replica(0)->store());
                    }
                    return out;
                  },
                  layers.get());
    } else {
      ProbeLeaves(probe,
                  [&](const Query&) {
                    return std::vector<const EntrySource*>{&engine.store()};
                  },
                  layers.get());
    }
  }

  Stage("done");

  if (layers != nullptr) {
    layers->segments = probe_u->engine->mutable_store()->num_segments();
    ProbeStore(probe_u.get(), layers.get());
    std::printf("# traced query_p50_ms=%.4f\n",
                Quantile(UnitTimes(ph.slot_us), 0.5) / 1e3);
    AddLayerMetrics(*layers, rep);
    return 0;
  }
  rep->Add("setup_s", setup_s, "s");
  AddLatencyMetrics(ph.Qps(), ph.slot_us, rep);
  AddUpdateMetrics(probe_ph, rep);
  rep->Add("peak_rss_mb", rss_mb, "MB");
  rep->Add("store_mb", store_bytes / (1024.0 * 1024.0), "MB");
  return 0;
}

int RunOnlineUpdate(const Args& a, RunReport* rep, Checks* checks) {
  gen::DifOptions shape = UpdateShape(a.seed, a.check_scale);
  Updatable u(gen::GenerateDif(shape));
  u.shape = shape;
  Status s = LoadUpdatable(&u, a.seed);
  const double setup_s = SecondsSince(kProcessStart);
  if (!s.ok()) {
    std::fprintf(stderr, "load failed: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("# entries=%" PRIu64 " setup_s=%.3f\n", u.loaded, setup_s);

  std::unique_ptr<LayerStats> layers;
  if (a.trace) layers = std::make_unique<LayerStats>();
  UpdatePhase warm, ph;
  RunUpdateRounds(&u, kUpdateWarmRounds, Clock::now(), false, &warm, checks,
                  nullptr, false);
  const OperandCacheStats cache0 = u.engine->cache()->stats();
  Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(a.seconds));
  RunUpdateRounds(&u, 0, deadline, true, &ph, checks, layers.get(),
                  layers != nullptr);
  // The store is measured compacted: the live data is the same size after
  // any number of rounds, while the segments a run leaves behind depend on
  // how many rounds it managed (store.segments reports those).
  DirectoryStore* store = u.engine->mutable_store();
  if (layers != nullptr) layers->segments = store->num_segments();
  Status compacted = store->Compact();
  if (!compacted.ok()) {
    checks->Fail("compaction failed: " + compacted.ToString());
  }
  u.engine->InvalidateCaches();
  CheckFinalState(&u, checks);
  rep->attempted = warm.attempted + ph.attempted;
  rep->failed = warm.failed + ph.failed;
  const double rss_mb = PeakRssMb();
  const double store_mb =
      static_cast<double>(DiskBytes(u.engine->data_disk())) /
      (1024.0 * 1024.0);
  std::printf("# rounds=%zu queries=%zu update_p50_ms=%.3f\n",
              ph.apply_us.size(), ph.query_us.size(),
              Quantile(ph.apply_us, 0.5) / 1e3);
  PrintUpdateRates(ph);

  if (layers != nullptr) {
    const OperandCacheStats cache1 = u.engine->cache()->stats();
    layers->cache_hits = cache1.hits - cache0.hits;
    layers->cache_misses = cache1.misses - cache0.misses;
    std::vector<StreamQuery> probe;
    for (int r = 0; r < kProbeRounds; ++r) {
      for (StreamQuery& q : UpdateQueries(u, r)) probe.push_back(q);
    }
    std::vector<const StreamQuery*> ptrs;
    for (const StreamQuery& q : probe) ptrs.push_back(&q);
    ProbeLeaves(ptrs,
                [&](const Query&) {
                  return std::vector<const EntrySource*>{store};
                },
                layers.get());
    ProbeStore(&u, layers.get());
    std::printf("# traced query_p50_ms=%.4f\n",
                Quantile(UnitTimes(ph.query_by_unit), 0.5) / 1e3);
    AddLayerMetrics(*layers, rep);
    return 0;
  }
  rep->Add("setup_s", setup_s, "s");
  AddLatencyMetrics(ph.Qps(), ph.query_by_unit, rep);
  AddUpdateMetrics(ph, rep);
  rep->Add("peak_rss_mb", rss_mb, "MB");
  rep->Add("store_mb", store_mb, "MB");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: ndq_perfbench --workload "
                 "local_read|fleet_read|online_update --seed N --seconds S "
                 "--trace 0|1 [--scale full|check] [--tamper digest|count]\n");
    return 2;
  }
  g_tamper = args.tamper;
  RunReport rep;
  Checks checks;
  int rc = args.workload == "online_update"
               ? RunOnlineUpdate(args, &rep, &checks)
               : RunRead(args, args.workload == "fleet_read", &rep, &checks);
  if (rc != 0) return rc;
  PrintReport(checks.ok(), rep);
  return 0;
}
