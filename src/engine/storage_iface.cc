#include "engine/storage_iface.h"

#include "engine/expr.h"
#include "engine/operators.h"

namespace mip::engine {

Result<Schema> BindDiskScan(const DiskScanSpec& spec, const Schema& schema) {
  Schema projected = schema;
  if (!spec.columns.empty()) {
    MIP_ASSIGN_OR_RETURN(Table empty,
                         SelectTableColumns(Table::Empty(schema), spec.columns));
    projected = empty.schema();
  }
  if (spec.row_filter != nullptr) {
    MIP_RETURN_NOT_OK(BindExpr(spec.row_filter, projected, spec.functions));
  }
  return projected;
}

Result<Table> FilterDiskPart(const DiskScanSpec& spec, Table part) {
  if (spec.row_filter == nullptr) return part;
  return Filter(part, *spec.row_filter, spec.functions, spec.exec);
}

Result<Table> TableStorage::ScanDisk(const std::string& name,
                                     const DiskScanSpec& spec,
                                     ScanStats* stats) const {
  MIP_ASSIGN_OR_RETURN(Table table,
                       spec.use_index
                           ? IndexScanTable(name, spec.prune_filter, stats)
                           : ScanTable(name, spec.prune_filter, stats));
  if (!spec.columns.empty()) {
    MIP_ASSIGN_OR_RETURN(table, SelectTableColumns(table, spec.columns));
  }
  if (spec.row_filter != nullptr) {
    MIP_RETURN_NOT_OK(
        BindExpr(spec.row_filter, table.schema(), spec.functions));
  }
  return FilterDiskPart(spec, std::move(table));
}

}  // namespace mip::engine
