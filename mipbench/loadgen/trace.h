#ifndef MIPBENCH_LOADGEN_TRACE_H_
#define MIPBENCH_LOADGEN_TRACE_H_

// Tracing for the per-layer run: an in-memory span recorder and timing
// decorators around the layers' public interfaces (net::Transport for
// requests and handlers, engine::TableStorage for site storage). Spans carry
// the id of the operation in flight; the traced run sends one operation at
// a time, so every span recorded while an operation is open belongs to it.

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "engine/storage_iface.h"
#include "net/transport.h"

namespace mipbench {

/// Span layers, outermost first; the value is the nesting depth.
enum Layer : int {
  kLayerClient = 0,   ///< the client's request (root of an operation)
  kLayerGateway = 1,  ///< Gateway::Handle via the gateway's endpoint
  kLayerRpc = 2,      ///< a request sent from the gateway or master
  kLayerSite = 3,     ///< a site's endpoint handler
  kLayerStorage = 4,  ///< a site's TableStorage call
};
const char* LayerName(int layer);

struct Span {
  int layer = 0;
  std::string name;  ///< message type or storage call
  double start_ms = 0;
  double end_ms = 0;
  int64_t op = -1;
};

class SpanRecorder {
 public:
  /// Opens operation `op`; spans recorded until EndOp() carry its id.
  void BeginOp(int64_t op) { op_.store(op, std::memory_order_release); }
  void EndOp() { op_.store(-1, std::memory_order_release); }
  /// Records a span when an operation is open.
  void Record(int layer, const std::string& name, double start_ms,
              double end_ms);
  std::vector<Span> Take();
  /// Wall time spent inside Record() so far: the recorder's own cost.
  double record_ms() const {
    return static_cast<double>(record_ns_.load(std::memory_order_relaxed)) / 1e6;
  }

 private:
  std::atomic<int64_t> op_{-1};
  std::atomic<int64_t> record_ns_{0};
  std::mutex mu_;
  std::vector<Span> spans_;
};

SpanRecorder& Tracer();

/// Wraps a transport: Send() records a kLayerRpc span; handlers registered
/// through it record a `handler_layer` span.
class TimingTransport : public mip::net::Transport {
 public:
  TimingTransport(mip::net::Transport* inner, int handler_layer)
      : inner_(inner), handler_layer_(handler_layer) {}

  mip::Status RegisterEndpoint(const std::string& node_id,
                               Handler handler) override;
  mip::Result<std::vector<uint8_t>> Send(mip::net::Envelope envelope) override;
  mip::net::NetworkStats stats() const override { return inner_->stats(); }
  std::map<std::string, mip::net::NetworkStats> link_stats() const override {
    return inner_->link_stats();
  }
  void ResetStats() override { inner_->ResetStats(); }
  std::map<std::string, mip::LatencyHistogram> link_histograms()
      const override {
    return inner_->link_histograms();
  }
  void set_fault_hook(mip::net::FaultHook* hook) override {
    inner_->set_fault_hook(hook);
  }
  bool SupportsCodecs(const std::string& peer_id) override {
    return inner_->SupportsCodecs(peer_id);
  }
  void MeterCodec(const std::string& from, const std::string& to,
                  uint64_t raw_bytes, uint64_t wire_bytes) override {
    inner_->MeterCodec(from, to, raw_bytes, wire_bytes);
  }

 private:
  mip::net::Transport* inner_;
  int handler_layer_;
};

/// Wraps a site's storage: every TableStorage call records a
/// kLayerStorage span named after the call.
class TimingStorage : public mip::engine::TableStorage {
 public:
  explicit TimingStorage(mip::engine::TableStorage* inner) : inner_(inner) {}

  std::vector<std::string> StorageTableNames() const override;
  mip::Result<mip::engine::Schema> StorageTableSchema(
      const std::string& name) const override;
  mip::Result<mip::engine::Table> ScanTable(
      const std::string& name, const mip::engine::Expr* prune_filter,
      mip::engine::ScanStats* stats) const override;
  mip::Status AppendRows(const std::string& name,
                         const mip::engine::Table& rows) override;
  mip::Result<mip::engine::ScanStats> PrunePreview(
      const std::string& name,
      const mip::engine::Expr* prune_filter) const override;
  mip::Result<mip::engine::Table> IndexScanTable(
      const std::string& name, const mip::engine::Expr* prune_filter,
      mip::engine::ScanStats* stats) const override;
  mip::Result<mip::engine::IndexPreview> PreviewIndexScan(
      const std::string& name,
      const mip::engine::Expr* prune_filter) const override;
  mip::Result<mip::engine::TableStats> StorageTableStats(
      const std::string& name) const override;
  mip::engine::StorageCounters Counters() const override {
    return inner_->Counters();
  }

 private:
  mip::engine::TableStorage* inner_;
};

/// Per-operation breakdown of traced spans.
struct OpBreakdown {
  double latency_ms = 0;  ///< the root span
  /// Exclusive time per layer: each instant of the operation goes to the
  /// deepest span open at that instant, so the values sum to latency_ms.
  std::map<int, double> self_ms;
  bool nested = true;  ///< every span lies inside an enclosing shallower span
  std::string problem;
};

/// Breaks down the spans of one operation; the root is its kLayerClient
/// span (there must be exactly one).
OpBreakdown BreakDown(const std::vector<Span>& op_spans);

}  // namespace mipbench

#endif  // MIPBENCH_LOADGEN_TRACE_H_
