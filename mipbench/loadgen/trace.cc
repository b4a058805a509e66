#include "trace.h"

#include <algorithm>

#include "util.h"

namespace mipbench {

using mip::Result;
using mip::Status;
using mip::engine::Expr;
using mip::engine::ScanStats;
using mip::engine::Table;

const char* LayerName(int layer) {
  switch (layer) {
    case kLayerClient:
      return "client";
    case kLayerGateway:
      return "gateway";
    case kLayerRpc:
      return "rpc";
    case kLayerSite:
      return "site";
    case kLayerStorage:
      return "storage";
  }
  return "unknown";
}

void SpanRecorder::Record(int layer, const std::string& name, double start_ms,
                          double end_ms) {
  const int64_t op = op_.load(std::memory_order_acquire);
  if (op < 0) return;
  const double t0 = NowMs();
  {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({layer, name, start_ms, end_ms, op});
  }
  record_ns_.fetch_add(static_cast<int64_t>((NowMs() - t0) * 1e6),
                       std::memory_order_relaxed);
}

std::vector<Span> SpanRecorder::Take() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> out;
  out.swap(spans_);
  return out;
}

SpanRecorder& Tracer() {
  static SpanRecorder* recorder = new SpanRecorder();
  return *recorder;
}

Status TimingTransport::RegisterEndpoint(const std::string& node_id,
                                         Handler handler) {
  const int layer = handler_layer_;
  return inner_->RegisterEndpoint(
      node_id, [layer, handler = std::move(handler)](
                   const mip::net::Envelope& envelope) {
        const double start = NowMs();
        Result<std::vector<uint8_t>> reply = handler(envelope);
        Tracer().Record(layer, envelope.type, start, NowMs());
        return reply;
      });
}

Result<std::vector<uint8_t>> TimingTransport::Send(
    mip::net::Envelope envelope) {
  const std::string type = envelope.type;
  const double start = NowMs();
  Result<std::vector<uint8_t>> reply = inner_->Send(std::move(envelope));
  Tracer().Record(kLayerRpc, type, start, NowMs());
  return reply;
}

namespace {

// Times one storage call as a kLayerStorage span.
template <typename Fn>
auto Timed(const char* name, Fn&& fn) {
  const double start = NowMs();
  auto out = fn();
  Tracer().Record(kLayerStorage, name, start, NowMs());
  return out;
}

}  // namespace

std::vector<std::string> TimingStorage::StorageTableNames() const {
  return inner_->StorageTableNames();
}

Result<mip::engine::Schema> TimingStorage::StorageTableSchema(
    const std::string& name) const {
  return Timed("schema", [&] { return inner_->StorageTableSchema(name); });
}

Result<Table> TimingStorage::ScanTable(const std::string& name,
                                       const Expr* prune_filter,
                                       ScanStats* stats) const {
  return Timed("scan",
               [&] { return inner_->ScanTable(name, prune_filter, stats); });
}

Status TimingStorage::AppendRows(const std::string& name, const Table& rows) {
  return Timed("append", [&] { return inner_->AppendRows(name, rows); });
}

Result<ScanStats> TimingStorage::PrunePreview(const std::string& name,
                                              const Expr* prune_filter) const {
  return Timed("preview",
               [&] { return inner_->PrunePreview(name, prune_filter); });
}

Result<Table> TimingStorage::IndexScanTable(const std::string& name,
                                            const Expr* prune_filter,
                                            ScanStats* stats) const {
  return Timed("scan", [&] {
    return inner_->IndexScanTable(name, prune_filter, stats);
  });
}

Result<mip::engine::IndexPreview> TimingStorage::PreviewIndexScan(
    const std::string& name, const Expr* prune_filter) const {
  return Timed("preview",
               [&] { return inner_->PreviewIndexScan(name, prune_filter); });
}

Result<mip::engine::TableStats> TimingStorage::StorageTableStats(
    const std::string& name) const {
  return Timed("stats", [&] { return inner_->StorageTableStats(name); });
}

OpBreakdown BreakDown(const std::vector<Span>& spans) {
  OpBreakdown out;
  const Span* root = nullptr;
  for (const Span& s : spans) {
    if (s.layer != kLayerClient) continue;
    if (root != nullptr) {
      out.nested = false;
      out.problem = "two root spans";
      return out;
    }
    root = &s;
  }
  if (root == nullptr) {
    out.nested = false;
    out.problem = "no root span";
    return out;
  }
  out.latency_ms = root->end_ms - root->start_ms;
  // Nesting: every non-root span must lie inside some shallower span.
  for (const Span& s : spans) {
    if (&s == root) continue;
    bool inside = false;
    for (const Span& p : spans) {
      if (p.layer < s.layer && p.start_ms <= s.start_ms &&
          s.end_ms <= p.end_ms) {
        inside = true;
        break;
      }
    }
    if (!inside) {
      out.nested = false;
      out.problem = std::string(LayerName(s.layer)) + " span '" + s.name +
                    "' escapes its parent";
    }
  }
  // Sweep: each elementary interval goes to the deepest open span (latest
  // started on ties), clipped to the root.
  std::vector<double> cuts;
  for (const Span& s : spans) {
    cuts.push_back(std::clamp(s.start_ms, root->start_ms, root->end_ms));
    cuts.push_back(std::clamp(s.end_ms, root->start_ms, root->end_ms));
  }
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
  for (size_t i = 0; i + 1 < cuts.size(); ++i) {
    const double a = cuts[i], b = cuts[i + 1];
    const Span* best = nullptr;
    for (const Span& s : spans) {
      if (s.start_ms > a || s.end_ms < b) continue;
      if (best == nullptr || s.layer > best->layer ||
          (s.layer == best->layer && s.start_ms > best->start_ms)) {
        best = &s;
      }
    }
    if (best != nullptr) out.self_ms[best->layer] += b - a;
  }
  return out;
}

}  // namespace mipbench
