// `analysis`: one client submits a seeded mix of experiments through
// platform::ExperimentManager over eight in-memory sites: descriptive
// statistics, linear and logistic regression and k-means, each on the plain
// and the SMPC-secured path. Plain results are checked against the same
// experiment on one node holding the pooled data; secure results against
// that pooled plain result within the fixed-point tolerance.

#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <numeric>
#include <regex>
#include <sstream>

#include "data.h"
#include "federation/master.h"
#include "platform/experiment.h"
#include "trace.h"
#include "workloads.h"

namespace mipbench {

using mip::Result;
using mip::Rng;
using mip::Status;
using mip::federation::AggregationMode;
using mip::platform::ExperimentManager;
using mip::platform::ExperimentSpec;

namespace {

constexpr int kSites = 8;
constexpr size_t kRowsPerSite = 1000;
constexpr int kSetups = 21;
/// Secure results go through 20-bit fixed point; statistics derived from
/// them (t values, p values, Newton iterates) keep about this precision.
constexpr double kSecureRelTol = 1e-4;
constexpr double kPlainRelTol = 1e-9;

std::string DatasetName(int k) { return "ds_" + std::to_string(k); }

struct Stack {
  std::unique_ptr<mip::federation::MasterNode> master;
  std::unique_ptr<TimingTransport> timed_bus;
  std::unique_ptr<ExperimentManager> manager;
};

ExperimentSpec BaseSpec(int algorithm, const std::vector<std::string>& datasets,
                        AggregationMode mode) {
  ExperimentSpec spec;
  spec.datasets = datasets;
  spec.mode = mode;
  switch (algorithm) {
    case 0:
      spec.algorithm = "descriptive";
      spec.list_params["variables"] = {"age", "mmse", "p_tau"};
      break;
    case 1:
      spec.algorithm = "linear_regression";
      spec.list_params["covariates"] = {"age", "abeta42", "p_tau"};
      spec.params["target"] = "hippocampus";
      break;
    case 2:
      spec.algorithm = "logistic_regression";
      // Unit-scale covariates: the fixed-point noise in the secure Newton
      // step then stays well below the stopping tolerance, so the secure
      // fit converges like the plain one.
      spec.list_params["covariates"] = {"age_z", "mmse_z", "p_tau_z"};
      spec.params["target"] = "ad";
      break;
    case 3:
      spec.algorithm = "kmeans";
      spec.list_params["variables"] = {"abeta42", "p_tau", "hippocampus"};
      spec.params["k"] = "3";
      spec.params["standardize"] = "true";
      spec.params["iterations_max_number"] = "10";
      break;
  }
  return spec;
}

// The experiment catalogue: 4 algorithms x {plain, secure} x two dataset
// selections (all sites, and a seeded subset of five).
std::vector<ExperimentSpec> Catalogue(uint64_t seed) {
  std::vector<std::string> all, subset;
  for (int k = 0; k < kSites; ++k) all.push_back(DatasetName(k));
  std::vector<int> order(kSites);
  for (int k = 0; k < kSites; ++k) order[k] = k;
  Rng rng(seed * 53 + 9);
  for (int i = kSites - 1; i > 0; --i) {
    std::swap(order[i], order[rng.NextBounded(static_cast<uint64_t>(i + 1))]);
  }
  for (int i = 0; i < 5; ++i) subset.push_back(DatasetName(order[i]));
  std::vector<ExperimentSpec> out;
  for (const auto* datasets : {&all, &subset}) {
    for (int algorithm = 0; algorithm < 4; ++algorithm) {
      for (AggregationMode mode :
           {AggregationMode::kPlain, AggregationMode::kSecure}) {
        out.push_back(BaseSpec(algorithm, *datasets, mode));
      }
    }
  }
  return out;
}

// What a secure result is compared on: the fitted numbers. Dropped from
// both sides: iteration counts and convergence flags (fixed-point noise can
// keep a Newton step above the plain path's stopping tolerance), the
// "secure" label, and the quartiles of federated rows, which the secure
// path reports as NaN by design.
std::string SecureComparable(const std::string& text) {
  static const std::regex kIterations(R"(iterations=\d+,?|(NOT )?converged,?)");
  static const std::regex kQuartiles(R"(q[123]=\S+)");
  std::istringstream in(text);
  std::string line, out;
  while (std::getline(in, line)) {
    line = std::regex_replace(line, kIterations, "");
    const size_t label = line.find("(all, secure)");
    if (label != std::string::npos) line.replace(label, 13, "(all)");
    if (line.find("@ (all)") != std::string::npos) {
      line = std::regex_replace(line, kQuartiles, "");
    }
    out += line + "\n";
  }
  return out;
}

Result<std::string> SubmitAndWait(ExperimentManager* manager,
                                  const ExperimentSpec& spec) {
  MIP_ASSIGN_OR_RETURN(std::string id, manager->Submit(spec));
  MIP_ASSIGN_OR_RETURN(mip::platform::ExperimentRecord record,
                       manager->Get(id));
  if (record.status != mip::platform::ExperimentStatus::kCompleted) {
    return Status::ExecutionError("experiment " + spec.algorithm +
                                  " failed: " + record.error);
  }
  return record.result;
}

Result<Stack> SetUp(uint64_t seed, bool traced) {
  Stack s;
  s.master = std::make_unique<mip::federation::MasterNode>();
  if (traced) {
    s.timed_bus = std::make_unique<TimingTransport>(&s.master->bus(), kLayerRpc);
    s.master->set_transport(s.timed_bus.get());
  }
  for (int k = 0; k < kSites; ++k) {
    const std::string id = "site_" + std::to_string(k);
    MIP_RETURN_NOT_OK(s.master->AddWorker(id).status());
    MIP_RETURN_NOT_OK(s.master->LoadDataset(
        id, DatasetName(k), MakeAnalysisSite(seed, k, kRowsPerSite)));
  }
  s.manager = std::make_unique<ExperimentManager>(s.master.get());
  return s;
}

// The pooled single-node reference: one worker hosting every site's table.
Result<std::vector<std::string>> PooledReference(
    uint64_t seed, const std::vector<ExperimentSpec>& catalogue) {
  mip::federation::MasterNode master;
  MIP_RETURN_NOT_OK(master.AddWorker("pooled").status());
  for (int k = 0; k < kSites; ++k) {
    MIP_RETURN_NOT_OK(master.LoadDataset(
        "pooled", DatasetName(k), MakeAnalysisSite(seed, k, kRowsPerSite)));
  }
  ExperimentManager manager(&master);
  std::vector<std::string> out;
  for (ExperimentSpec spec : catalogue) {
    spec.mode = AggregationMode::kPlain;
    MIP_ASSIGN_OR_RETURN(std::string text, SubmitAndWait(&manager, spec));
    out.push_back(std::move(text));
  }
  return out;
}

}  // namespace

RunResult RunAnalysis(const RunConfig& config) {
  RunResult out;
  const std::vector<ExperimentSpec> catalogue = Catalogue(config.seed);
  {
    uint64_t digest = 0;
    for (int k = 0; k < kSites; ++k) {
      digest = digest * 31 +
               RowMultisetDigest(MakeAnalysisSite(config.seed, k, kRowsPerSite));
    }
    for (const ExperimentSpec& spec : catalogue) {
      for (const std::string& d : spec.datasets) digest = digest * 31 + d.size() + d.back();
    }
    char note[64];
    std::snprintf(note, sizeof(note), "inputs: %016llx",
                  static_cast<unsigned long long>(digest));
    out.notes.push_back(note);
  }

  // Set-up: sites, data, experiment manager, first answered experiment.
  Stack stack;
  std::vector<double> setup_s;
  for (int i = 0; i < (config.trace ? 1 : kSetups); ++i) {
    const double t0 = NowMs();
    Result<Stack> made = SetUp(config.seed, config.trace);
    if (!made.ok()) {
      out.Fail("set-up: " + made.status().ToString());
      return out;
    }
    Result<std::string> first = SubmitAndWait(made->manager.get(), catalogue[0]);
    if (!first.ok()) {
      out.Fail("first experiment: " + first.status().ToString());
      return out;
    }
    setup_s.push_back((NowMs() - t0) / 1e3);
    stack = std::move(made).ValueOrDie();
  }

  Result<std::vector<std::string>> reference =
      PooledReference(config.seed, catalogue);
  if (!reference.ok()) {
    out.Fail("reference: " + reference.status().ToString());
    return out;
  }

  Rng rng(config.seed * 4099 + 77);
  std::vector<size_t> order(catalogue.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  for (size_t i = order.size() - 1; i > 0; --i) {
    std::swap(order[i], order[rng.NextBounded(i + 1)]);
  }
  std::vector<OpSample> samples;
  std::vector<std::string> failures;
  int64_t op = 0;
  size_t secure_ops = 0;
  std::vector<size_t> session_sizes;  // per op: sites in its session
  stack.master->smpc().ResetStats();
  const double record_ms_before = Tracer().record_ms();
  const double start = NowMs();
  bool corrupt = config.corrupt_reply;
  while (NowMs() - start < config.seconds * 1e3) {
    // A fixed cycle through a seeded order of the catalogue: every run
    // submits the same mix.
    const size_t which = order[static_cast<size_t>(op) % order.size()];
    const ExperimentSpec& spec = catalogue[which];
    const bool secure = spec.mode == AggregationMode::kSecure;
    OpSample s;
    s.kind = secure ? 1 : 0;
    if (config.trace) Tracer().BeginOp(op);
    const double t0 = NowMs();
    Result<std::string> text = SubmitAndWait(stack.manager.get(), spec);
    s.end_ms = NowMs();
    s.latency_ms = s.end_ms - t0;
    if (config.trace) {
      Tracer().Record(kLayerClient, spec.algorithm, t0, NowMs());
      Tracer().EndOp();
    }
    session_sizes.push_back(spec.datasets.size());
    ++op;
    secure_ops += secure ? 1 : 0;
    std::string why;
    if (!text.ok()) {
      why = text.status().ToString();
      s.ok = false;
    } else {
      std::string got = *text;
      if (corrupt) {
        corrupt = false;
        got += " corrupted";
      }
      s.ok = secure ? RenderedResultsMatch(SecureComparable(got),
                                           SecureComparable((*reference)[which]),
                                           kSecureRelTol, &why)
                    : RenderedResultsMatch(got, (*reference)[which],
                                           kPlainRelTol, &why);
    }
    if (!s.ok && failures.size() < 8) {
      failures.push_back(spec.algorithm + (secure ? " secure" : " plain") +
                         ": " + why);
    }
    samples.push_back(s);
  }
  const double end = NowMs();

  out.attempted = samples.size();
  for (const OpSample& s : samples) out.failed += s.ok ? 0 : 1;
  if (out.failed > 0) out.Fail(std::to_string(out.failed) + " experiments failed");
  for (const std::string& f : failures) out.notes.push_back("failure: " + f);

  if (!config.trace) {
    out.Add("setup_s", Median(setup_s), "s");
    AddLoadMetrics(samples, start, end, &out);
    out.Add("peak_rss_mb", PeakRssMb(0), "MiB");
    char note[128];
    std::snprintf(note, sizeof(note), "class p50 (ms): plain=%.3f secure=%.3f",
                  KindP50(samples, 0), KindP50(samples, 1));
    out.notes.push_back(note);
    return out;
  }

  // Traced: per-layer accounting.
  const std::vector<Span> spans = Tracer().Take();
  std::map<int64_t, std::vector<Span>> by_op;
  for (const Span& s : spans) by_op[s.op].push_back(s);
  std::vector<double> submit, master_self, steps;
  std::vector<double> local_run, local_run_secure;
  size_t bad = 0;
  const mip::smpc::SmpcCostStats smpc = stack.master->smpc().stats();
  for (auto& [id, op_spans] : by_op) {
    const OpBreakdown b = BreakDown(op_spans);
    if (!b.nested) ++bad;
    submit.push_back(b.latency_ms);
    master_self.push_back(b.self_ms.count(kLayerClient) ? b.self_ms.at(kLayerClient) : 0);
    size_t rpcs = 0;
    for (const Span& s : op_spans) {
      if (s.layer != kLayerRpc) continue;
      ++rpcs;
      if (s.name == "local_run") local_run.push_back(s.end_ms - s.start_ms);
      if (s.name == "local_run_secure") {
        local_run_secure.push_back(s.end_ms - s.start_ms);
      }
    }
    steps.push_back(static_cast<double>(rpcs) /
                    static_cast<double>(session_sizes[static_cast<size_t>(id)]));
  }
  if (bad > 0) out.Fail("child spans outside their parents");
  // The master's own time: submit minus the fan-out it waits on, minus the
  // SMPC online phase it runs in-line.
  const double online_ms_total = smpc.online_ms.sum();
  const double master_ms =
      std::max(0.0, Mean(master_self) -
                        online_ms_total / static_cast<double>(std::max<size_t>(1, samples.size())));
  out.Add("platform.submit_ms", Mean(submit), "ms");
  out.Add("federation.local_run_ms", Mean(local_run), "ms");
  out.Add("federation.local_run_secure_ms", Mean(local_run_secure), "ms");
  out.Add("federation.steps_per_experiment", Mean(steps), "count");
  out.Add("smpc.share_ms", smpc.share_ms.Mean(), "ms");
  out.Add("smpc.triple_ms", smpc.triple_ms.Mean(), "ms");
  out.Add("smpc.online_ms", smpc.online_ms.Mean(), "ms");
  out.Add("smpc.reconstruct_ms", smpc.reconstruct_ms.Mean(), "ms");
  out.Add("smpc.bytes_per_experiment",
          static_cast<double>(smpc.bytes_transferred) /
              static_cast<double>(std::max<size_t>(1, secure_ops)),
          "bytes");
  out.Add("master.self_ms", master_ms, "ms");
  out.Add("op.plain_p50_ms", KindP50(samples, 0), "ms");
  out.Add("op.secure_p50_ms", KindP50(samples, 1), "ms");
  out.Add("trace.ops", static_cast<double>(samples.size()), "count");
  out.Add("trace.overhead_pct",
          100.0 * (Tracer().record_ms() - record_ms_before) /
              std::max(1e-9, std::accumulate(submit.begin(), submit.end(), 0.0)),
          "%");
  out.Add("setup.boot_s", Median(setup_s), "s");
  return out;
}

}  // namespace mipbench
