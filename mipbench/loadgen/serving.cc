// `dashboard` and `explore`: the serving stack (one gateway, three
// disk-backed sites) under closed-loop load, every read checked against a
// single-node reference over the pooled data.
//
// Untraced runs drive the shipped daemons as child processes. The traced run
// builds the same stack in-process from the same public classes, with
// timing decorators around the transports, the gateway handler and the site
// storage, and sends the same operations one at a time.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <thread>

#include "common/bytes.h"
#include "data.h"
#include "engine/database.h"
#include "engine/sql_parser.h"
#include "federation/gateway.h"
#include "federation/master.h"
#include "federation/worker.h"
#include "federation/worker_steps.h"
#include "net/tcp_transport.h"
#include "procs.h"
#include "storage/store.h"
#include "trace.h"
#include "workloads.h"

namespace mipbench {

using mip::Result;
using mip::Rng;
using mip::Status;
using mip::engine::Table;

namespace {

constexpr int kTenants = 2;        // dashboard connections
constexpr int kReaders = 3;        // explore read connections (+1 writer)
constexpr int kSetups = 5;         // set-ups per run; setup_s is their median
constexpr int kCatalogue = 48;     // dashboard panels (cache holds 128)
constexpr int kEtlSites = 1;       // sites the ETL writer feeds
constexpr size_t kEtlBatch = 1000; // visits (and notes) per ETL batch
/// One ETL batch per period: about 4 MB/s of memtable growth, enough for
/// the seven flushes that two background compactions of visits take.
constexpr double kEtlPeriodMs = 150;
constexpr int kDaemonThreads = 2;  // MIP_THREADS for every node
constexpr int kServeThreads = 4;   // gateway --serve-threads
constexpr int kMallocArenas = 2;   // MALLOC_ARENA_MAX for every daemon
constexpr double kTracedExploreCapS = 90;

enum Kind { kPanel = 0, kAgg, kFetch, kJoin, kWrite, kNumKinds };
const char* KindName(int kind) {
  static const char* names[] = {"panel", "agg", "fetch", "join", "write"};
  return names[kind];
}

std::string Fmt(const char* fmt, ...) __attribute__((format(printf, 1, 2)));
std::string Fmt(const char* fmt, ...) {
  char buf[1024];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  return buf;
}

// One connection of the load generator.
class Client {
 public:
  Client(std::string tenant, std::string to, int port)
      : tenant_(std::move(tenant)), to_(std::move(to)) {
    mip::net::TcpTransportOptions options;
    options.io_timeout_ms = 60000;
    options.max_idle_per_peer = 1;
    transport_ = std::make_unique<mip::net::TcpTransport>(options);
    transport_->AddPeer(to_, "127.0.0.1", port);
  }

  Result<std::vector<uint8_t>> RunSql(const std::string& sql) {
    mip::net::Envelope envelope{tenant_, to_, "run_sql", "", SqlPayload(sql)};
    envelope.deadline_ms = 60000;
    return transport_->Send(std::move(envelope));
  }

  Result<Table> Sql(const std::string& sql) {
    MIP_ASSIGN_OR_RETURN(std::vector<uint8_t> bytes, RunSql(sql));
    return DecodeTable(bytes);
  }

 private:
  std::string tenant_, to_;
  std::unique_ptr<mip::net::TcpTransport> transport_;
};

// ---------------------------------------------------------------------------
// Stacks

class Stack {
 public:
  Stack() = default;
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;
  virtual ~Stack() = default;
  int gateway_port = 0;
  std::vector<int> site_ports;
};

// The shipped daemons, one OS process each.
class DaemonStack : public Stack {
 public:
  Status Boot(const RunConfig& config, const std::string& dir) {
    const std::vector<std::string> env = {
        "MIP_THREADS=" + std::to_string(kDaemonThreads),
        "MALLOC_ARENA_MAX=" + std::to_string(kMallocArenas)};
    for (int k = 0; k < kServingSites; ++k) {
      MIP_RETURN_NOT_OK(sites_[k].Start(
          {config.bin_dir + "/mip_worker", "--id=" + SiteId(k), "--port=0",
           "--dataset=cohort", "--data-dir=" + dir + "/" + SiteId(k)},
          env, dir + "/daemons.log"));
    }
    std::vector<std::string> gateway_argv = {
        config.bin_dir + "/mip_gateway", "--port=0", "--dataset=cohort",
        "--serve-threads=" + std::to_string(kServeThreads)};
    for (int k = 0; k < kServingSites; ++k) {
      MIP_ASSIGN_OR_RETURN(std::string line,
                           sites_[k].WaitForLine("MIP_WORKER READY", 30000));
      const int port = ReadyField(line, "port");
      site_ports.push_back(port);
      gateway_argv.push_back("--worker=" + SiteId(k) + ":127.0.0.1:" +
                             std::to_string(port));
    }
    MIP_RETURN_NOT_OK(gateway_.Start(gateway_argv, env, dir + "/daemons.log"));
    MIP_ASSIGN_OR_RETURN(std::string line,
                         gateway_.WaitForLine("MIP_GATEWAY READY", 30000));
    gateway_port = ReadyField(line, "port");
    return Status::OK();
  }

  double PeakRssMb() const {
    double mb = gateway_.PeakRssMb();
    for (const Child& c : sites_) mb += c.PeakRssMb();
    return mb;
  }

  std::string RssBreakdown() const {
    std::string out = Fmt("peak rss (MiB): gateway=%.1f", gateway_.PeakRssMb());
    for (int k = 0; k < kServingSites; ++k) {
      out += Fmt(" %s=%.1f", SiteId(k).c_str(), sites_[k].PeakRssMb());
    }
    return out;
  }

 private:
  Child sites_[kServingSites];
  Child gateway_;
};

// The same nodes built in this process (as mip_worker / mip_gateway build
// them), each layer wrapped in a timing decorator.
class InProcStack : public Stack {
 public:
  struct Site {
    std::unique_ptr<mip::storage::StorageEngine> store;
    std::unique_ptr<TimingStorage> timed_store;
    std::unique_ptr<mip::net::TcpTransport> tcp;
    std::unique_ptr<TimingTransport> timed_tcp;
    std::unique_ptr<mip::federation::WorkerNode> worker;
  };

  ~InProcStack() override {
    if (gateway_tcp) gateway_tcp->Shutdown();
    for (Site& s : sites) {
      if (s.tcp) s.tcp->Shutdown();
    }
    gateway.reset();
    master.reset();
    for (Site& s : sites) {
      s.worker.reset();
      if (s.store) s.store->StopBackgroundCompaction();
    }
  }

  Status Boot(const std::string& dir) {
    auto functions = std::make_shared<mip::federation::LocalFunctionRegistry>();
    MIP_RETURN_NOT_OK(mip::federation::RegisterPortableSteps(functions.get()));
    sites.resize(kServingSites);
    for (int k = 0; k < kServingSites; ++k) {
      Site& s = sites[k];
      s.worker = std::make_unique<mip::federation::WorkerNode>(SiteId(k),
                                                               functions, 1);
      MIP_ASSIGN_OR_RETURN(s.store, mip::storage::StorageEngine::Open(
                                        dir + "/" + SiteId(k)));
      s.timed_store = std::make_unique<TimingStorage>(s.store.get());
      MIP_RETURN_NOT_OK(s.worker->AttachDiskStorage(s.timed_store.get()));
      s.store->StartBackgroundCompaction();
      s.tcp = std::make_unique<mip::net::TcpTransport>();
      MIP_RETURN_NOT_OK(s.tcp->Listen(0));
      s.timed_tcp = std::make_unique<TimingTransport>(s.tcp.get(), kLayerSite);
      MIP_RETURN_NOT_OK(s.worker->AttachToBus(s.timed_tcp.get()));
      site_ports.push_back(s.tcp->port());
    }
    mip::net::TcpTransportOptions options;
    options.serve_threads = kServeThreads;
    gateway_tcp = std::make_unique<mip::net::TcpTransport>(options);
    MIP_RETURN_NOT_OK(gateway_tcp->Listen(0));
    timed_gateway_tcp =
        std::make_unique<TimingTransport>(gateway_tcp.get(), kLayerGateway);
    master = std::make_unique<mip::federation::MasterNode>();
    master->set_transport(timed_gateway_tcp.get());
    for (int k = 0; k < kServingSites; ++k) {
      gateway_tcp->AddPeer(SiteId(k), "127.0.0.1", site_ports[k]);
      MIP_RETURN_NOT_OK(master->AddRemoteWorker(SiteId(k), {"cohort"}));
    }
    MIP_RETURN_NOT_OK(master->CreateFederatedView("cohort").status());
    gateway = std::make_unique<mip::federation::Gateway>(&master->local_db());
    gateway->set_link_source(gateway_tcp.get());
    gateway->set_smpc_source(&master->smpc());
    MIP_RETURN_NOT_OK(gateway->Attach(timed_gateway_tcp.get()));
    gateway_port = gateway_tcp->port();
    return Status::OK();
  }

  std::vector<Site> sites;
  std::unique_ptr<mip::net::TcpTransport> gateway_tcp;
  std::unique_ptr<TimingTransport> timed_gateway_tcp;
  std::unique_ptr<mip::federation::MasterNode> master;
  std::unique_ptr<mip::federation::Gateway> gateway;
};

struct SetupTimes {
  double write_s = 0, flush_s = 0, boot_s = 0, ddl_s = 0, total_s = 0;
};

// From the first site-data write to the first answered query: site
// directories, daemon boot, site lab tables, gateway views and selections.
Result<std::unique_ptr<Stack>> SetUp(const ServingData& data,
                                     const RunConfig& config,
                                     const std::string& dir,
                                     SetupTimes* times) {
  RemoveTree(dir);
  std::filesystem::create_directories(dir);
  const double t0 = NowMs();
  WriteTimes wt;
  for (int k = 0; k < kServingSites; ++k) {
    MIP_RETURN_NOT_OK(
        WriteSiteDir(dir + "/" + SiteId(k), data.sites[k], &wt));
  }
  const double t1 = NowMs();
  std::unique_ptr<Stack> stack;
  if (config.trace) {
    auto inproc = std::make_unique<InProcStack>();
    MIP_RETURN_NOT_OK(inproc->Boot(dir));
    stack = std::move(inproc);
  } else {
    auto daemons = std::make_unique<DaemonStack>();
    MIP_RETURN_NOT_OK(daemons->Boot(config, dir));
    stack = std::move(daemons);
  }
  const double t2 = NowMs();
  for (int k = 0; k < kServingSites; ++k) {
    Client site("etl", SiteId(k), stack->site_ports[k]);
    for (const std::string& sql : LoadTableSql("labs", data.sites[k].labs, 4000)) {
      MIP_RETURN_NOT_OK(site.RunSql(sql).status());
    }
  }
  Client admin("admin", "gateway", stack->gateway_port);
  for (const char* table : {"visits", "labs"}) {
    std::string merge = std::string("CREATE MERGE TABLE ") + table +
                        "_federated (";
    for (int k = 0; k < kServingSites; ++k) {
      const std::string part = std::string(table) + "_" + SiteId(k);
      MIP_RETURN_NOT_OK(admin.RunSql("CREATE REMOTE TABLE " + part + " ON '" +
                                     SiteId(k) + "' AS " + table)
                            .status());
      merge += (k > 0 ? ", " : "") + part;
    }
    MIP_RETURN_NOT_OK(admin.RunSql(merge + ")").status());
  }
  for (const auto& [name, table] :
       {std::pair<const char*, const Table*>{"sel_small", &data.sel_small},
        {"sel_large", &data.sel_large}}) {
    for (const std::string& sql : LoadTableSql(name, *table, 4000)) {
      MIP_RETURN_NOT_OK(admin.RunSql(sql).status());
    }
  }
  const double t3 = NowMs();
  MIP_ASSIGN_OR_RETURN(Table first,
                       admin.Sql("SELECT COUNT(*) AS n FROM cohort_federated"));
  const double t4 = NowMs();
  if (first.num_rows() != 1 ||
      first.At(0, 0).AsInt() != int64_t{kPatientsPerSite} * kServingSites) {
    return Status::ExecutionError("first query returned a wrong count");
  }
  times->flush_s = wt.flush_s;
  times->write_s = (t1 - t0) / 1e3 - wt.flush_s;
  times->boot_s = (t2 - t1) / 1e3;
  times->ddl_s = (t3 - t2) / 1e3;
  times->total_s = (t4 - t0) / 1e3;
  return stack;
}

// ---------------------------------------------------------------------------
// Operations

struct Op {
  int kind = kPanel;
  int entry = -1;  ///< dashboard catalogue index
  std::string sql;
};

// Everything an operation needs checked after the timed window.
struct Recorded {
  int kind = 0;
  std::string sql;
  bool has_table = false;
  Table table;
  uint64_t digest = 0;
};

const char* const kDxNames[] = {"CN", "MCI", "AD"};

// The dashboard's panel catalogue, most popular first: descriptive and
// histogram SELECTs with seeded constants, all distinct. Panel shapes take
// turns down the popularity ranking, so every seed sees the same mix.
std::vector<std::string> DashboardCatalogue(uint64_t seed) {
  Rng rng(seed * 977 + 11);
  std::set<std::string> seen;
  std::vector<std::string> out;
  while (static_cast<int>(out.size()) < kCatalogue) {
    std::string sql;
    switch (out.size() % 6) {
      case 0:
        sql = Fmt("SELECT dx, COUNT(*) AS n, AVG(age) AS mean_age, "
                  "STDDEV(mmse) AS sd_mmse, MIN(p_tau) AS lo, MAX(p_tau) AS hi "
                  "FROM cohort_federated WHERE sex = '%s' AND age >= %d "
                  "GROUP BY dx ORDER BY dx",
                  rng.NextBounded(2) ? "F" : "M",
                  55 + static_cast<int>(rng.NextBounded(20)));
        break;
      case 1:
        sql = Fmt("SELECT floor(age / 5) AS bin, COUNT(*) AS n "
                  "FROM cohort_federated WHERE dx = '%s' AND mmse >= %d "
                  "GROUP BY floor(age / 5) ORDER BY bin",
                  kDxNames[rng.NextBounded(3)],
                  static_cast<int>(rng.NextBounded(15)));
        break;
      case 2:
        sql = Fmt("SELECT sex, COUNT(abeta42) AS n, AVG(abeta42) AS mean_ab, "
                  "VARIANCE(hippocampus) AS var_hc FROM cohort_federated "
                  "WHERE mmse <= %d GROUP BY sex ORDER BY sex",
                  10 + static_cast<int>(rng.NextBounded(21)));
        break;
      case 3:
        sql = Fmt("SELECT visit_type, COUNT(*) AS n, AVG(adas) AS mean_adas, "
                  "MAX(cdr) AS max_cdr FROM visits_federated "
                  "WHERE visit_year >= %d AND visit_year < 3000 "
                  "GROUP BY visit_type ORDER BY visit_type",
                  2005 + static_cast<int>(rng.NextBounded(20)));
        break;
      case 4:
        sql = Fmt("SELECT mmse, COUNT(*) AS n FROM cohort_federated "
                  "WHERE sex = '%s' AND age < %d GROUP BY mmse ORDER BY mmse",
                  rng.NextBounded(2) ? "F" : "M",
                  70 + static_cast<int>(rng.NextBounded(25)));
        break;
      case 5:
        sql = Fmt("SELECT lab_code, COUNT(*) AS n, AVG(lab_value) AS mean_v "
                  "FROM labs_federated WHERE lab_value > %d "
                  "GROUP BY lab_code ORDER BY lab_code",
                  static_cast<int>(rng.NextBounded(200)));
        break;
    }
    if (seen.insert(sql).second) out.push_back(sql);
  }
  return out;
}

// Zipf(1.1) popularity over the catalogue's ranks.
class PanelPicker {
 public:
  explicit PanelPicker(int n) {
    double total = 0;
    for (int r = 0; r < n; ++r) {
      total += 1.0 / std::pow(r + 1.0, 1.1);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) c /= total;
  }
  int Pick(Rng* rng) const {
    const double u = rng->NextDouble();
    const size_t r = std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin();
    return static_cast<int>(std::min(r, cdf_.size() - 1));
  }

 private:
  std::vector<double> cdf_;
};

// Shared registry of the explore SQL sent so far: no query text repeats.
class UniqueSql {
 public:
  bool Claim(const std::string& sql) {
    std::lock_guard<std::mutex> lock(mu_);
    return seen_.insert(sql).second;
  }

 private:
  std::mutex mu_;
  std::set<std::string> seen_;
};

// A never-repeating explore read. Each reader walks a fixed cycle of read
// shapes (so every run has the same mix) with seeded constants: filtered
// federated aggregates, selective row fetches (about 1k-20k rows, or one
// record by its scattered MRN), and joins with the gateway-local
// selections, small (broadcast) and large (collect).
constexpr int kExploreCycle = 8;

Op NextExploreRead(int shape, Rng* rng, UniqueSql* unique) {
  const int64_t max_id = int64_t{kPatientsPerSite} * kServingSites;
  for (;;) {
    Op op;
    switch (shape) {
      case 0: {
        op.kind = kAgg;
        const int64_t lo = static_cast<int64_t>(rng->NextBounded(max_id / 2));
        const int64_t hi = lo + 4000 + static_cast<int64_t>(rng->NextBounded(8000));
        op.sql = Fmt("SELECT visit_type, COUNT(*) AS n, SUM(visit_month) AS sm, "
                     "AVG(mmse) AS mean_mmse, MIN(adas) AS lo, MAX(adas) AS hi "
                     "FROM visits_federated WHERE patient_id >= %lld AND "
                     "patient_id < %lld AND visit_year >= %d AND "
                     "visit_year < 3000 GROUP BY visit_type ORDER BY visit_type",
                     static_cast<long long>(lo), static_cast<long long>(hi),
                     2005 + static_cast<int>(rng->NextBounded(15)));
        break;
      }
      case 3:
        op.kind = kAgg;
        op.sql = Fmt("SELECT dx, COUNT(*) AS n, AVG(hippocampus) AS mean_hc, "
                     "STDDEV(p_tau) AS sd_ptau FROM cohort_federated "
                     "WHERE age >= %.1f AND abeta42 < %d GROUP BY dx ORDER BY dx",
                     50.0 + 0.1 * static_cast<double>(rng->NextBounded(350)),
                     500 + static_cast<int>(rng->NextBounded(1500)));
        break;
      case 1:
      case 6: {
        // Patient range: zone maps prune the other segments.
        op.kind = kFetch;
        const int64_t width = 150 + static_cast<int64_t>(rng->NextBounded(2750));
        const int64_t lo = static_cast<int64_t>(
            rng->NextBounded(static_cast<uint64_t>(max_id - width)));
        op.sql = Fmt("SELECT patient_id, visit_year, mmse, cdr, adas, dx "
                     "FROM visits_federated WHERE patient_id >= %lld AND "
                     "patient_id < %lld AND visit_year < 3000",
                     static_cast<long long>(lo),
                     static_cast<long long>(lo + width));
        break;
      }
      case 4: {
        // One record by MRN: only the ordered index can skip segments.
        op.kind = kFetch;
        const int64_t patient =
            static_cast<int64_t>(rng->NextBounded(static_cast<uint64_t>(max_id)));
        op.sql = Fmt("SELECT patient_id, age, sex, dx, mmse, p_tau FROM "
                     "cohort_federated WHERE mrn = %lld",
                     static_cast<long long>(Mrn(patient)));
        break;
      }
      case 2:
      case 5: {
        op.kind = kJoin;
        // The cost model sees the filter as a fixed selectivity; the
        // large selection's threshold keeps its collected rows moderate.
        const char* sel = shape == 2 ? "sel_small" : "sel_large";
        const double lo = shape == 2 ? 0.0 : 150.0;
        op.sql = Fmt("SELECT arm, COUNT(*) AS n, AVG(lab_value) AS mean_v "
                     "FROM labs_federated JOIN %s ON "
                     "labs_federated.patient_id = %s.patient_id "
                     "WHERE lab_value > %.2f GROUP BY arm ORDER BY arm",
                     sel, sel,
                     lo + 0.01 * static_cast<double>(rng->NextBounded(10000)));
        break;
      }
      default: {
        // Disk-backed visits over a patient range: sites report no NDV for
        // disk tables, so the cost model collects.
        op.kind = kJoin;
        const int64_t lo = static_cast<int64_t>(rng->NextBounded(max_id / 2));
        op.sql = Fmt("SELECT arm, COUNT(*) AS n, AVG(mmse) AS mean_mmse "
                     "FROM visits_federated JOIN sel_large ON "
                     "visits_federated.patient_id = sel_large.patient_id "
                     "WHERE visits_federated.patient_id >= %lld AND "
                     "visits_federated.patient_id < %lld AND "
                     "visit_year < 3000 AND adas > %.2f GROUP BY arm ORDER BY arm",
                     static_cast<long long>(lo), static_cast<long long>(lo + 6000),
                     0.01 * static_cast<double>(rng->NextBounded(3000)));
        break;
      }
    }
    if (unique->Claim(op.sql)) return op;
  }
}

// Per-connection state of one closed-loop connection.
struct Conn {
  bool writer = false;
  Rng rng;
  std::unique_ptr<Client> client;  // reader: gateway connection
  int next_shape = 0;              // explore reader: place in the read cycle
  bool corrupt_next = false;       // self-test: corrupt the next reply
  std::vector<OpSample> samples;
  std::vector<Recorded> recorded;  // explore reads, checked after the run

  // Writer only.
  std::vector<std::unique_ptr<Client>> sites;  // site connections
  int next_site = 0;
  int64_t etl_batches = 0;                     // batches prepared so far
  int etl_site = 0;                            // the prepared batch: site,
  int64_t etl_year = 0;                        //   visit year and
  std::vector<std::string> etl_sql;            //   INSERT statements
  double due_ms = 0;                           // when the batch in hand was due
  double next_due_ms = 0;                      // when the next batch is due
  double etl_max_lag_ms = 0;                   // latest send after its due time
};

struct ServingRun {
  const RunConfig* config = nullptr;
  std::vector<std::string> catalogue;
  std::vector<Table> catalogue_ref;
  std::vector<std::vector<uint8_t>> catalogue_bytes;  // verified replies
  std::unique_ptr<PanelPicker> picker;
  UniqueSql unique;
  std::vector<std::string> failures;
  std::mutex failures_mu;
  /// Traced run: replies kept for the engine encode/decode replay.
  std::vector<std::vector<uint8_t>> reply_sample;
  std::vector<std::string> sql_sample;

  void Failure(const std::string& why) {
    std::lock_guard<std::mutex> lock(failures_mu);
    if (failures.size() < 8) failures.push_back(why);
  }
};

// Builds the writer's next ETL batch ahead of its due time, so that
// generating it never delays the send. Each batch is one import with its
// own visit year, which the read-your-writes check counts back.
void PrepareEtlBatch(Conn* conn) {
  conn->etl_site = conn->next_site;
  conn->next_site = (conn->next_site + 1) % kEtlSites;
  conn->etl_year = kEtlYear + conn->etl_batches++;
  conn->etl_sql = {
      InsertSql("visits", MakeEtlVisits(&conn->rng, conn->etl_site,
                                        conn->etl_year, kEtlBatch)),
      InsertSql("visit_notes", MakeEtlNotes(&conn->rng, conn->etl_site,
                                            conn->etl_year, kEtlBatch))};
}

// Runs one operation of `conn`; returns its sample. With `trace_op` >= 0
// the operation's spans are recorded under that id, rooted at the client
// request (checks made after the reply are not part of it).
OpSample RunOne(ServingRun* run, Conn* conn, int64_t trace_op = -1) {
  OpSample sample;
  const bool dashboard = run->config->workload == "dashboard";
  auto begin = [&] {
    if (trace_op >= 0) Tracer().BeginOp(trace_op);
    return NowMs();
  };
  auto end = [&](double sent_ms) {
    sample.end_ms = NowMs();
    if (trace_op >= 0) {
      Tracer().Record(kLayerClient, KindName(sample.kind), sent_ms,
                      sample.end_ms);
      Tracer().EndOp();
    }
  };
  if (conn->writer) {
    // Open loop: the writer's latency runs from when its batch was due.
    sample.kind = kWrite;
    Client& site = *conn->sites[conn->etl_site];
    const double sent = begin();
    Result<std::vector<uint8_t>> reply = site.RunSql(conn->etl_sql[0]);
    if (reply.ok()) reply = site.RunSql(conn->etl_sql[1]);
    end(sent);
    const double due = conn->due_ms > 0 ? std::min(conn->due_ms, sent) : sent;
    conn->etl_max_lag_ms = std::max(conn->etl_max_lag_ms, sent - due);
    sample.latency_ms = sample.end_ms - due;
    if (!reply.ok()) {
      run->Failure("ETL insert: " + reply.status().ToString());
      sample.ok = false;
    } else {
      Result<Table> count = site.Sql(
          "SELECT COUNT(*) AS n FROM visits WHERE visit_year = " +
          std::to_string(conn->etl_year));
      if (!count.ok() || count->num_rows() != 1 ||
          count->At(0, 0).AsInt() != static_cast<int64_t>(kEtlBatch)) {
        run->Failure("ETL read-your-writes count mismatch on " +
                     SiteId(conn->etl_site));
        sample.ok = false;
      }
    }
    PrepareEtlBatch(conn);
    return sample;
  }

  Op op;
  if (dashboard) {
    op.kind = kPanel;
    op.entry = run->picker->Pick(&conn->rng);
    op.sql = run->catalogue[op.entry];
  } else {
    op = NextExploreRead(conn->next_shape, &conn->rng, &run->unique);
    conn->next_shape = (conn->next_shape + 1) % kExploreCycle;
  }
  sample.kind = op.kind;
  const double sent = begin();
  Result<std::vector<uint8_t>> reply = conn->client->RunSql(op.sql);
  end(sent);
  sample.latency_ms = sample.end_ms - sent;
  if (!reply.ok()) {
    run->Failure(std::string(KindName(op.kind)) + ": " +
                 reply.status().ToString());
    sample.ok = false;
    return sample;
  }
  std::vector<uint8_t> bytes = std::move(reply).ValueOrDie();
  if (conn->corrupt_next) {
    conn->corrupt_next = false;
    bytes = CorruptReply(bytes);
  }
  if (run->config->trace && run->reply_sample.size() < 200) {
    run->reply_sample.push_back(bytes);
    run->sql_sample.push_back(op.sql);
  }
  if (dashboard) {
    if (bytes != run->catalogue_bytes[op.entry]) {
      Result<Table> got = DecodeTable(bytes);
      std::string why = got.ok() ? "" : got.status().ToString();
      if (!got.ok() ||
          !TablesMatch(*got, run->catalogue_ref[op.entry], true, &why)) {
        run->Failure("panel " + std::to_string(op.entry) + ": " + why);
        sample.ok = false;
      }
    }
    return sample;
  }
  Recorded rec;
  rec.kind = op.kind;
  rec.sql = op.sql;
  Result<Table> got = DecodeTable(bytes);
  if (!got.ok()) {
    run->Failure("undecodable reply: " + got.status().ToString());
    sample.ok = false;
    return sample;
  }
  if (op.kind == kFetch) {
    rec.digest = RowMultisetDigest(*got);
  } else {
    rec.has_table = true;
    rec.table = std::move(got).ValueOrDie();
  }
  conn->recorded.push_back(std::move(rec));
  return sample;
}

// Checks every recorded explore read against the reference, in parallel.
// Returns the number of mismatches.
uint64_t VerifyRecorded(ServingRun* run, mip::engine::Database* ref,
                        std::vector<Conn>* conns) {
  std::vector<Recorded*> all;
  for (Conn& c : *conns) {
    for (Recorded& r : c.recorded) all.push_back(&r);
  }
  std::mutex plan_mu;
  std::atomic<size_t> next{0};
  std::atomic<uint64_t> bad{0};
  auto worker = [&] {
    for (;;) {
      const size_t i = next.fetch_add(1);
      if (i >= all.size()) return;
      const Recorded& rec = *all[i];
      mip::engine::PlanPtr plan;
      {
        std::lock_guard<std::mutex> lock(plan_mu);
        Result<mip::engine::PlanPtr> planned = ref->TryPlanSelectSql(rec.sql);
        if (planned.ok()) plan = std::move(planned).ValueOrDie();
      }
      Result<Table> want = plan != nullptr
                               ? ref->ExecutePlannedSelect(*plan)
                               : Result<Table>(Status::ExecutionError(
                                     "reference cannot plan: " + rec.sql));
      std::string why;
      bool ok = want.ok();
      if (!ok) {
        why = want.status().ToString();
      } else if (rec.has_table) {
        ok = TablesMatch(rec.table, *want, true, &why);
      } else {
        ok = rec.digest == RowMultisetDigest(*want);
        if (!ok) why = "row digest differs";
      }
      if (!ok) {
        bad.fetch_add(1);
        run->Failure(std::string(KindName(rec.kind)) + " mismatch: " + why +
                     " [" + rec.sql + "]");
      }
    }
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) threads.emplace_back(worker);
  for (std::thread& t : threads) t.join();
  return bad.load();
}

std::vector<Conn> MakeConns(const RunConfig& config, Stack* stack) {
  const bool dashboard = config.workload == "dashboard";
  const int readers = dashboard ? kTenants : kReaders;
  std::vector<Conn> conns(readers + (dashboard ? 0 : 1));
  for (size_t i = 0; i < conns.size(); ++i) {
    Conn& c = conns[i];
    c.rng = Rng(config.seed * 7919 + 101 * (i + 1));
    c.writer = static_cast<int>(i) >= readers;
    c.next_shape = static_cast<int>(i * 3) % kExploreCycle;
    if (c.writer) {
      for (int k = 0; k < kEtlSites; ++k) {
        c.sites.push_back(
            std::make_unique<Client>("etl", SiteId(k), stack->site_ports[k]));
      }
      PrepareEtlBatch(&c);
    } else {
      c.client = std::make_unique<Client>("tenant_" + std::to_string(i),
                                          "gateway", stack->gateway_port);
    }
  }
  return conns;
}

struct Window {
  double start_ms = 0, end_ms = 0;
};

// Closed loop: one thread per connection until `seconds` pass.
Window RunConcurrent(ServingRun* run, std::vector<Conn>* conns, double seconds) {
  Window w;
  w.start_ms = NowMs();
  const double deadline = w.start_ms + seconds * 1e3;
  std::vector<std::thread> threads;
  for (Conn& c : *conns) {
    threads.emplace_back([run, &c, deadline] {
      // Readers are closed-loop; the writer sends on a fixed schedule and
      // catches up without pausing when a batch runs late.
      c.next_due_ms = NowMs();
      while (NowMs() < deadline) {
        if (c.writer) {
          const double wait_ms = c.next_due_ms - NowMs();
          if (wait_ms > 0) {
            if (NowMs() + wait_ms >= deadline) break;
            std::this_thread::sleep_for(
                std::chrono::duration<double, std::milli>(wait_ms));
          }
          c.due_ms = c.next_due_ms;
          c.next_due_ms += kEtlPeriodMs;
        }
        c.samples.push_back(RunOne(run, &c));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  w.end_ms = NowMs();
  return w;
}

void WarmUp(ServingRun* run, std::vector<Conn>* conns) {
  if (run->config->workload == "dashboard") return;  // catalogue warm-up
  for (Conn& c : *conns) {
    if (c.writer) continue;
    for (int i = 0; i < 4; ++i) RunOne(run, &c);
  }
}

std::vector<OpSample> AllSamples(const std::vector<Conn>& conns) {
  std::vector<OpSample> all;
  for (const Conn& c : conns) {
    all.insert(all.end(), c.samples.begin(), c.samples.end());
  }
  return all;
}


// ---------------------------------------------------------------------------
// Traced-run accounting

struct Counters {
  mip::federation::ResultCache::Stats cache;
  mip::federation::Gateway::Stats gateway;
  uint64_t join_build = 0, join_probe = 0, join_bcast = 0, join_collect = 0;
  mip::net::NetworkStats net;
  std::vector<mip::engine::StorageCounters> storage;
};

Counters Snapshot(InProcStack* s) {
  Counters c;
  c.cache = s->gateway->cache().stats();
  c.gateway = s->gateway->stats();
  const mip::engine::JoinCounters* j = s->master->local_db().join_counters();
  c.join_build = j->build_rows.load();
  c.join_probe = j->probe_rows.load();
  c.join_bcast = j->broadcast_chosen.load();
  c.join_collect = j->collect_chosen.load();
  c.net = s->gateway_tcp->stats();
  for (auto& site : s->sites) c.storage.push_back(site.store->Counters());
  return c;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// Mean duration of spans of `layer` (and `name` when non-empty).
double MeanSpanMs(const std::vector<Span>& spans, int layer,
                  const std::string& name) {
  std::vector<double> d;
  for (const Span& s : spans) {
    if (s.layer == layer && (name.empty() || s.name == name)) {
      d.push_back(s.end_ms - s.start_ms);
    }
  }
  return Mean(d);
}

// The traced run: same set-up and operations, one operation at a time.
void RunTraced(ServingRun* run, InProcStack* stack, std::vector<Conn>* conns,
               const SetupTimes& setup, RunResult* out) {
  const RunConfig& config = *run->config;
  const bool explore = config.workload == "explore";
  // One operation at a time. The writer goes whenever its batch is due, as
  // on its schedule in the concurrent run; otherwise the reader that has
  // been busy least so far, so each reader sends operations at the rate
  // it would when running alone, as in the closed loop.
  int64_t next_op = 0;
  std::vector<OpSample> traced;
  std::vector<double> busy(conns->size(), 0.0);
  const double record_ms_before = Tracer().record_ms();
  const Counters before = Snapshot(stack);
  stack->master->smpc().ResetStats();
  Tracer().Take();
  const double start = NowMs();
  for (Conn& c : *conns) c.next_due_ms = start;
  // Compactions of `visits` on the written sites, seen as drops in its
  // segment count (flushes only ever add segments).
  std::vector<uint64_t> visit_segments(kEtlSites, 0), visit_compactions(kEtlSites, 0);
  auto poll_visits = [&] {
    for (int k = 0; k < kEtlSites; ++k) {
      auto n = stack->sites[k].store->SegmentCount("visits");
      if (!n.ok()) continue;
      if (*n < visit_segments[k]) ++visit_compactions[k];
      visit_segments[k] = *n;
    }
  };
  poll_visits();
  for (;;) {
    poll_visits();
    const double elapsed_s = (NowMs() - start) / 1e3;
    if (elapsed_s >= config.seconds) {
      bool done = true;
      for (int k = 0; explore && k < kEtlSites; ++k) {
        done = done && visit_compactions[k] >= 2;
      }
      // Explore runs on until the written site has compacted twice (about
      // seven flushes); the cap only bounds a stalled run.
      if (done || elapsed_s >= kTracedExploreCapS) break;
    }
    size_t c = conns->size();
    for (size_t i = 0; i < conns->size(); ++i) {
      const Conn& conn = (*conns)[i];
      if (conn.writer) {
        if (conn.next_due_ms <= NowMs()) {
          c = i;
          break;
        }
      } else if (c == conns->size() || busy[i] < busy[c]) {
        c = i;
      }
    }
    if ((*conns)[c].writer) {
      (*conns)[c].due_ms = (*conns)[c].next_due_ms;
      (*conns)[c].next_due_ms += kEtlPeriodMs;
    }
    const double t0 = NowMs();
    OpSample s = RunOne(run, &(*conns)[c], next_op++);
    busy[c] += NowMs() - t0;
    traced.push_back(s);
    (*conns)[c].samples.push_back(s);
  }
  const Counters after = Snapshot(stack);
  const std::vector<Span> spans = Tracer().Take();

  // Per-operation breakdown.
  std::map<int64_t, std::vector<Span>> by_op;
  for (const Span& s : spans) by_op[s.op].push_back(s);
  std::map<int, std::vector<double>> self;  // layer -> per-op self ms
  size_t gateway_ops = 0, bad_nesting = 0, bad_sum = 0;
  for (auto& [op, op_spans] : by_op) {
    const OpBreakdown b = BreakDown(op_spans);
    if (!b.nested) {
      if (bad_nesting++ == 0) run->Failure("trace nesting: " + b.problem);
      continue;
    }
    double sum = 0;
    for (const auto& [layer, ms] : b.self_ms) sum += ms;
    if (std::fabs(sum - b.latency_ms) > 1e-6 * std::max(1.0, b.latency_ms)) {
      ++bad_sum;
    }
    bool via_gateway = false;
    for (const Span& s : op_spans) via_gateway |= s.layer == kLayerGateway;
    if (!via_gateway) continue;
    ++gateway_ops;
    for (int layer = kLayerClient; layer <= kLayerStorage; ++layer) {
      auto it = b.self_ms.find(layer);
      self[layer].push_back(it == b.self_ms.end() ? 0.0 : it->second);
    }
  }
  if (bad_nesting > 0) out->Fail("child spans outside their parents");
  if (bad_sum > 0) out->Fail("layer self times do not sum to op latency");

  auto add = [out](const std::string& name, double v, const std::string& unit) {
    out->Add(name, v, unit);
  };
  add("gateway.handle_ms", MeanSpanMs(spans, kLayerGateway, ""), "ms");
  add("gateway.self_ms", Mean(self[kLayerGateway]), "ms");
  const double hits = static_cast<double>(after.cache.hits - before.cache.hits);
  const double misses =
      static_cast<double>(after.cache.misses - before.cache.misses);
  const double hit_ratio = Ratio(hits, hits + misses);
  add("gateway.cache_hit_ratio", hit_ratio, "ratio");
  add("gateway.cache_evictions",
      static_cast<double>(after.cache.evictions - before.cache.evictions),
      "count");
  add("gateway.coalesced",
      static_cast<double>(after.cache.coalesced - before.cache.coalesced),
      "count");
  add("gateway.shed",
      static_cast<double>(after.gateway.shed_capacity + after.gateway.shed_quota -
                          before.gateway.shed_capacity - before.gateway.shed_quota),
      "count");

  // Engine: replay recorded SQL and replies through the gateway-side calls.
  std::vector<double> parse, plan, encode, decode;
  for (const std::string& sql : run->sql_sample) {
    double t0 = NowMs();
    (void)mip::engine::ParseSql(sql);
    parse.push_back(NowMs() - t0);
    t0 = NowMs();
    (void)stack->master->local_db().TryPlanSelectSql(sql);
    plan.push_back(NowMs() - t0);
  }
  for (const std::vector<uint8_t>& bytes : run->reply_sample) {
    double t0 = NowMs();
    Result<Table> table = DecodeTable(bytes);
    decode.push_back(NowMs() - t0);
    if (!table.ok()) continue;
    mip::BufferWriter writer;
    t0 = NowMs();
    mip::engine::SerializeTable(*table, &writer,
                                mip::engine::TableWireOptions{true});
    encode.push_back(NowMs() - t0);
  }
  add("engine.parse_ms", Mean(parse), "ms");
  add("engine.plan_ms", Mean(plan), "ms");
  add("engine.encode_ms", Mean(encode), "ms");
  add("engine.decode_ms", Mean(decode), "ms");
  add("engine.join_build_rows", static_cast<double>(after.join_build - before.join_build), "count");
  add("engine.join_probe_rows", static_cast<double>(after.join_probe - before.join_probe), "count");
  const double bcast = static_cast<double>(after.join_bcast - before.join_bcast);
  const double collect =
      static_cast<double>(after.join_collect - before.join_collect);
  add("engine.join_broadcast", bcast, "count");
  add("engine.join_collect", collect, "count");

  add("net.client_rtt_ms", Mean(self[kLayerClient]), "ms");
  size_t rpcs = 0;
  for (const Span& s : spans) rpcs += s.layer == kLayerRpc ? 1 : 0;
  for (const char* type :
       {"run_sql", "run_sql_bound", "get_schema", "get_stats", "fetch_table"}) {
    add(std::string("net.rpc_ms.") + type, MeanSpanMs(spans, kLayerRpc, type),
        "ms");
  }
  add("net.rpcs_per_op", Ratio(static_cast<double>(rpcs), gateway_ops), "count");
  add("net.wire_ms", Mean(self[kLayerRpc]), "ms");
  add("net.bytes_wire_per_op",
      Ratio(static_cast<double>(after.net.bytes - before.net.bytes), gateway_ops),
      "bytes");
  const double raw = static_cast<double>(after.net.bytes_raw - before.net.bytes_raw);
  const double wire =
      static_cast<double>(after.net.bytes_wire - before.net.bytes_wire);
  add("net.wire_ratio", wire > 0 ? raw / wire : 1.0, "ratio");

  for (const char* type :
       {"run_sql", "run_sql_bound", "get_schema", "get_stats", "fetch_table"}) {
    add(std::string("site.handle_ms.") + type,
        MeanSpanMs(spans, kLayerSite, type), "ms");
  }
  add("site.self_ms", Mean(self[kLayerSite]), "ms");

  uint64_t scanned = 0, pruned = 0, probes = 0, probe_hits = 0, flushes = 0,
           compactions = 0, segments = 0, memtable = 0;
  for (size_t k = 0; k < after.storage.size(); ++k) {
    const auto& a = after.storage[k];
    const auto& b = before.storage[k];
    scanned += a.segments_scanned - b.segments_scanned;
    pruned += a.segments_pruned - b.segments_pruned;
    probes += a.index_probes - b.index_probes;
    probe_hits += a.index_hits - b.index_hits;
    flushes += a.flushes - b.flushes;
    compactions += a.compactions - b.compactions;
    for (const std::string& t : stack->sites[k].store->StorageTableNames()) {
      auto seg = stack->sites[k].store->SegmentCount(t);
      auto mem = stack->sites[k].store->MemtableRows(t);
      segments += seg.ok() ? *seg : 0;
      memtable += mem.ok() ? *mem : 0;
    }
  }
  add("storage.self_ms", Mean(self[kLayerStorage]), "ms");
  add("storage.scan_ms", MeanSpanMs(spans, kLayerStorage, "scan"), "ms");
  add("storage.segments_scanned", static_cast<double>(scanned), "count");
  add("storage.segments_pruned", static_cast<double>(pruned), "count");
  add("storage.prune_ratio", Ratio(pruned, scanned + pruned), "ratio");
  add("storage.index_probes", static_cast<double>(probes), "count");
  add("storage.index_hit_ratio", Ratio(probe_hits, probes), "ratio");
  add("storage.append_ms", MeanSpanMs(spans, kLayerStorage, "append"), "ms");
  add("storage.flushes", static_cast<double>(flushes), "count");
  add("storage.compactions", static_cast<double>(compactions), "count");
  add("storage.segments_live", static_cast<double>(segments), "count");
  add("storage.memtable_rows", static_cast<double>(memtable), "count");

  const mip::smpc::SmpcCostStats smpc = stack->master->smpc().stats();
  add("smpc.bytes_per_experiment", static_cast<double>(smpc.bytes_transferred),
      "bytes");

  add("setup.write_s", setup.write_s, "s");
  add("setup.flush_s", setup.flush_s, "s");
  add("setup.boot_s", setup.boot_s, "s");
  add("setup.ddl_s", setup.ddl_s, "s");
  for (int kind : {kPanel, kAgg, kFetch, kJoin, kWrite}) {
    add(std::string("op.") + KindName(kind) + "_p50_ms", KindP50(traced, kind),
        "ms");
  }
  // Overhead: the recorder's own time as a share of traced latency.
  double traced_ms = 0;
  for (const OpSample& s : traced) traced_ms += s.latency_ms;
  add("trace.overhead_pct",
      100.0 * Ratio(Tracer().record_ms() - record_ms_before, traced_ms), "%");
  add("trace.ops", static_cast<double>(traced.size()), "count");

  // Separation self-check: each workload exercises the layers it claims.
  auto check = [out](bool ok, const std::string& what) {
    if (!ok) out->Fail("separation: " + what);
  };
  if (smpc.bytes_transferred != 0 || smpc.rounds != 0) {
    check(false, "SMPC counters moved on a serving workload");
  }
  if (!explore) {
    check(hit_ratio >= 0.9, "dashboard cache hit ratio below 0.9");
    check(scanned == 0, "dashboard scanned segments after warm-up");
  } else {
    check(hits == 0, "explore hit the result cache");
    for (int k = 0; k < kEtlSites; ++k) {
      check(visit_compactions[k] >= 2,
            SiteId(k) + " compacted visits " +
                std::to_string(visit_compactions[k]) + " times (need 2)");
    }
    check(bcast > 0 && collect > 0, "explore did not choose both join strategies");
  }
}

}  // namespace

RunResult RunServing(const RunConfig& config) {
  RunResult out;
  const bool dashboard = config.workload == "dashboard";
  const ServingData data = MakeServingData(config.seed);
  {
    uint64_t digest = RowMultisetDigest(data.sel_small) * 31 +
                      RowMultisetDigest(data.sel_large);
    for (const SiteTables& site : data.sites) {
      for (const Table* t : {&site.cohort, &site.visits, &site.labs, &site.notes}) {
        digest = digest * 31 + RowMultisetDigest(*t);
      }
    }
    out.notes.push_back(Fmt("inputs: %016llx", static_cast<unsigned long long>(digest)));
  }

  // Set up kSetups times; keep the last stack for the load.
  std::unique_ptr<Stack> stack;
  std::vector<double> setup_s;
  SetupTimes last;
  const int setups = config.trace ? 1 : kSetups;
  for (int i = 0; i < setups; ++i) {
    stack.reset();
    const std::string dir = config.work_dir + "/stack";
    Result<std::unique_ptr<Stack>> made = SetUp(data, config, dir, &last);
    if (!made.ok()) {
      out.Fail("set-up: " + made.status().ToString());
      return out;
    }
    stack = std::move(made).ValueOrDie();
    setup_s.push_back(last.total_s);
  }

  // Reference (not part of set-up time).
  mip::engine::Database ref("reference");
  {
    Status st = BuildReferenceDb(data, &ref);
    if (!st.ok()) {
      out.Fail("reference: " + st.ToString());
      return out;
    }
  }
  ServingRun run;
  run.config = &config;
  std::vector<Conn> conns = MakeConns(config, stack.get());
  if (dashboard) {
    run.catalogue = DashboardCatalogue(config.seed);
    run.picker = std::make_unique<PanelPicker>(kCatalogue);
    // Warm-up: every panel once, checked in full; later replies must match
    // these verified bytes (or the reference) exactly.
    for (const std::string& sql : run.catalogue) {
      Result<Table> want = ref.ExecuteSql(sql);
      Result<std::vector<uint8_t>> bytes = conns[0].client->RunSql(sql);
      std::string why;
      if (!want.ok()) {
        out.Fail("reference: " + want.status().ToString() + " [" + sql + "]");
        return out;
      }
      Result<Table> got =
          bytes.ok() ? DecodeTable(*bytes) : Result<Table>(bytes.status());
      if (!got.ok() || !TablesMatch(*got, *want, true, &why)) {
        out.Fail("panel warm-up: " +
                 (got.ok() ? why : got.status().ToString()) + " [" + sql + "]");
        return out;
      }
      run.catalogue_ref.push_back(std::move(want).ValueOrDie());
      run.catalogue_bytes.push_back(std::move(bytes).ValueOrDie());
    }
  }
  WarmUp(&run, &conns);
  for (Conn& c : conns) {
    c.samples.clear();
    c.recorded.clear();
  }
  if (config.corrupt_reply) conns[0].corrupt_next = true;

  if (config.trace) {
    RunTraced(&run, static_cast<InProcStack*>(stack.get()), &conns, last, &out);
  } else {
    const Window w = RunConcurrent(&run, &conns, config.seconds);
    const std::vector<OpSample> all = AllSamples(conns);
    out.Add("setup_s", Median(setup_s), "s");
    AddLoadMetrics(all, w.start_ms, w.end_ms, &out);
    const auto* daemons = static_cast<const DaemonStack*>(stack.get());
    out.Add("peak_rss_mb", daemons->PeakRssMb(), "MiB");
    out.notes.push_back(daemons->RssBreakdown());
    char note[256];
    std::snprintf(note, sizeof(note),
                  "setup parts (s): write=%.3f flush=%.3f boot=%.3f ddl=%.3f",
                  last.write_s, last.flush_s, last.boot_s, last.ddl_s);
    out.notes.push_back(note);
    std::string classes = "class p50 (ms):";
    for (int kind = 0; kind < kNumKinds; ++kind) {
      size_t n = 0;
      for (const OpSample& s : all) n += s.kind == kind ? 1 : 0;
      if (n > 0) {
        classes += Fmt(" %s=%.3f(n=%zu)", KindName(kind), KindP50(all, kind), n);
      }
    }
    out.notes.push_back(classes);
    for (const Conn& c : conns) {
      if (c.writer) {
        out.notes.push_back(Fmt("etl: %lld batches, latest send %.1f ms after due",
                                static_cast<long long>(c.etl_batches - 1),
                                c.etl_max_lag_ms));
      }
    }
  }

  const std::vector<OpSample> all = AllSamples(conns);
  out.attempted = all.size();
  for (const OpSample& s : all) out.failed += s.ok ? 0 : 1;
  const uint64_t mismatches = VerifyRecorded(&run, &ref, &conns);
  // A mismatch is a failed operation whose transport succeeded.
  out.failed += mismatches;
  if (out.failed > 0) out.Fail(std::to_string(out.failed) + " operations failed");
  for (const std::string& f : run.failures) out.notes.push_back("failure: " + f);
  out.notes.push_back(Fmt("config: sites=%d tenants=%d readers=%d writer_sites=%d "
                          "etl_batch=%zu etl_period_ms=%.0f MIP_THREADS=%d "
                          "MALLOC_ARENA_MAX=%d serve_threads=%d "
                          "wal=fsync data_dir=checkout-local",
                          kServingSites, dashboard ? kTenants : 0,
                          dashboard ? 0 : kReaders, dashboard ? 0 : kEtlSites,
                          kEtlBatch, kEtlPeriodMs, kDaemonThreads,
                          kMallocArenas, kServeThreads));
  stack.reset();
  RemoveTree(config.work_dir + "/stack");
  return out;
}

}  // namespace mipbench
