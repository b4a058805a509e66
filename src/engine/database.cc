#include "engine/database.h"

#include <cstdlib>
#include <utility>

#include "common/string_util.h"
#include "engine/optimizer.h"
#include "engine/sql_parser.h"

namespace mip::engine {

Database::Database(std::string name)
    : name_(std::move(name)),
      join_counters_(std::make_unique<JoinCounters>()),
      stats_mu_(std::make_unique<std::mutex>()) {
  const char* env = std::getenv("MIP_OPTIMIZER");
  if (env != nullptr && std::string(env) == "0") optimizer_enabled_ = false;
  const char* idx_env = std::getenv("MIP_INDEX_SCAN");
  if (idx_env != nullptr && std::string(idx_env) == "0") index_scan_ = false;
  const char* cost_env = std::getenv("MIP_COST_MODEL");
  if (cost_env != nullptr && std::string(cost_env) == "0") cost_model_ = false;
  const char* strat_env = std::getenv("MIP_JOIN_STRATEGY");
  if (strat_env != nullptr) {
    const std::string strat(strat_env);
    if (strat == "broadcast") {
      force_join_strategy_ = static_cast<int>(JoinStrategy::kBroadcast);
    } else if (strat == "collect") {
      force_join_strategy_ = static_cast<int>(JoinStrategy::kCollect);
    }
  }
}

Status Database::AttachStorage(TableStorage* storage) {
  if (storage == nullptr) {
    return Status::InvalidArgument("AttachStorage: null storage");
  }
  if (storage_ != nullptr) {
    return Status::InvalidArgument("database " + name_ +
                                   " already has storage attached");
  }
  for (const std::string& name : storage->StorageTableNames()) {
    if (tables_.count(ToLower(name)) > 0) {
      return Status::AlreadyExists(
          "disk table '" + name +
          "' collides with an existing catalog entry in " + name_);
    }
  }
  storage_ = storage;
  for (const std::string& name : storage->StorageTableNames()) {
    Entry e;
    e.kind = Entry::Kind::kDisk;
    tables_.emplace(ToLower(name), std::move(e));
  }
  ++catalog_version_;
  return Status::OK();
}

Status Database::IngestDisk(const std::string& table_name, const Table& rows) {
  if (storage_ == nullptr) {
    return Status::InvalidArgument("database " + name_ +
                                   " has no storage attached");
  }
  const std::string key = ToLower(table_name);
  auto it = tables_.find(key);
  if (it != tables_.end() && it->second.kind != Entry::Kind::kDisk) {
    return Status::AlreadyExists("table '" + table_name +
                                 "' exists and is not disk-resident");
  }
  MIP_RETURN_NOT_OK(storage_->AppendRows(table_name, rows));
  if (it == tables_.end()) {
    Entry e;
    e.kind = Entry::Kind::kDisk;
    tables_.emplace(key, std::move(e));
  }
  ++catalog_version_;
  return Status::OK();
}

Status Database::CreateTable(const std::string& table_name, Schema schema) {
  const std::string key = ToLower(table_name);
  if (tables_.count(key) > 0) {
    return Status::AlreadyExists("table '" + table_name + "' already exists");
  }
  Entry e;
  e.kind = Entry::Kind::kBase;
  e.table = Table::Empty(std::move(schema));
  tables_.emplace(key, std::move(e));
  ++catalog_version_;
  return Status::OK();
}

Status Database::PutTable(const std::string& table_name, Table table) {
  const std::string key = ToLower(table_name);
  Entry e;
  e.kind = Entry::Kind::kBase;
  e.table = std::move(table);
  tables_[key] = std::move(e);
  remote_schema_cache_.erase(key);
  {
    std::lock_guard<std::mutex> lock(*stats_mu_);
    stats_cache_.erase(key);
  }
  ++catalog_version_;
  return Status::OK();
}

Status Database::DropTable(const std::string& table_name) {
  const std::string key = ToLower(table_name);
  auto it = tables_.find(key);
  if (it == tables_.end()) {
    return Status::NotFound("table '" + table_name + "' does not exist");
  }
  if (it->second.kind == Entry::Kind::kDisk) {
    // Catalog drops must not silently orphan durable data; disk tables are
    // managed through the storage layer.
    return Status::InvalidArgument("cannot DROP disk-resident table '" +
                                   table_name + "'");
  }
  tables_.erase(it);
  remote_schema_cache_.erase(key);
  {
    std::lock_guard<std::mutex> lock(*stats_mu_);
    stats_cache_.erase(key);
  }
  ++catalog_version_;
  return Status::OK();
}

bool Database::HasTable(const std::string& table_name) const {
  return tables_.count(ToLower(table_name)) > 0;
}

std::vector<std::string> Database::TableNames() const {
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [k, v] : tables_) names.push_back(k);
  return names;
}

Result<Table> Database::GetTable(const std::string& table_name) const {
  auto it = tables_.find(ToLower(table_name));
  if (it == tables_.end()) {
    return Status::NotFound("table '" + table_name + "' does not exist in " +
                            name_);
  }
  const Entry& e = it->second;
  switch (e.kind) {
    case Entry::Kind::kBase:
      return e.table;
    case Entry::Kind::kRemote:
      if (!fetcher_) {
        return Status::ExecutionError(
            "remote table '" + table_name +
            "' has no remote fetcher installed on database " + name_);
      }
      return fetcher_(e.location, e.remote_name);
    case Entry::Kind::kMerge: {
      std::vector<Table> parts;
      for (const std::string& part : e.parts) {
        MIP_ASSIGN_OR_RETURN(Table t, GetTable(part));
        parts.push_back(std::move(t));
      }
      return Table::Concat(parts);
    }
    case Entry::Kind::kDisk:
      if (storage_ == nullptr) {
        return Status::ExecutionError("disk table '" + table_name +
                                      "' has no storage attached on " +
                                      name_);
      }
      return storage_->ScanTable(table_name, nullptr, nullptr);
  }
  return Status::Internal("bad table entry kind");
}

Result<Schema> Database::GetSchema(const std::string& table_name) const {
  auto it = tables_.find(ToLower(table_name));
  if (it == tables_.end()) {
    return Status::NotFound("table '" + table_name + "' does not exist");
  }
  const Entry& e = it->second;
  if (e.kind == Entry::Kind::kBase) return e.table.schema();
  if (e.kind == Entry::Kind::kDisk) {
    if (storage_ == nullptr) {
      return Status::ExecutionError("disk table '" + table_name +
                                    "' has no storage attached");
    }
    return storage_->StorageTableSchema(table_name);
  }
  if (e.kind == Entry::Kind::kMerge && !e.parts.empty()) {
    return GetSchema(e.parts[0]);
  }
  if (e.kind == Entry::Kind::kRemote) {
    const std::string key = ToLower(table_name);
    auto cached = remote_schema_cache_.find(key);
    if (cached != remote_schema_cache_.end()) return cached->second;
    if (schema_fetcher_) {
      Result<Schema> remote = schema_fetcher_(e.location, e.remote_name);
      if (remote.ok()) {
        remote_schema_cache_.emplace(key, *remote);
        return remote;
      }
      // Old peers may not answer schema requests; fall through to a full
      // fetch, which also yields the schema.
    }
  }
  MIP_ASSIGN_OR_RETURN(Table t, GetTable(table_name));
  if (e.kind == Entry::Kind::kRemote) {
    remote_schema_cache_.emplace(ToLower(table_name), t.schema());
  }
  return t.schema();
}

Result<PlanCatalog::TableInfo> Database::Describe(
    const std::string& table_name) const {
  auto it = tables_.find(ToLower(table_name));
  if (it == tables_.end()) {
    return Status::NotFound("table '" + table_name + "' does not exist in " +
                            name_);
  }
  const Entry& e = it->second;
  TableInfo info;
  switch (e.kind) {
    case Entry::Kind::kBase:
      info.kind = TableKind::kBase;
      break;
    case Entry::Kind::kRemote:
      info.kind = TableKind::kRemote;
      info.location = e.location;
      info.remote_name = e.remote_name;
      break;
    case Entry::Kind::kMerge:
      info.kind = TableKind::kMerge;
      info.parts = e.parts;
      break;
    case Entry::Kind::kDisk:
      info.kind = TableKind::kDisk;
      break;
  }
  return info;
}

Result<ScanStats> Database::DiskPrunePreview(const std::string& table_name,
                                             const Expr* prune_filter) const {
  if (storage_ == nullptr) {
    return Status::NotImplemented("database " + name_ +
                                  " has no storage attached");
  }
  return storage_->PrunePreview(table_name, prune_filter);
}

Result<IndexPreview> Database::DiskIndexPreview(const std::string& table_name,
                                                const Expr* prune_filter) const {
  if (storage_ == nullptr) {
    return Status::NotImplemented("database " + name_ +
                                  " has no storage attached");
  }
  return storage_->PreviewIndexScan(table_name, prune_filter);
}

Result<TableStats> Database::GetTableStats(
    const std::string& table_name) const {
  const std::string key = ToLower(table_name);
  auto it = tables_.find(key);
  if (it == tables_.end()) {
    return Status::NotFound("table '" + table_name + "' does not exist in " +
                            name_);
  }
  {
    std::lock_guard<std::mutex> lock(*stats_mu_);
    auto cached = stats_cache_.find(key);
    if (cached != stats_cache_.end() &&
        cached->second.first == catalog_version_) {
      return cached->second.second;
    }
  }
  const Entry& e = it->second;
  Result<TableStats> stats = [&]() -> Result<TableStats> {
    switch (e.kind) {
      case Entry::Kind::kBase:
        return ComputeTableStats(e.table);
      case Entry::Kind::kDisk:
        if (storage_ == nullptr) {
          return Status::NotImplemented("disk table '" + table_name +
                                        "' has no storage attached");
        }
        return storage_->StorageTableStats(table_name);
      case Entry::Kind::kMerge: {
        std::vector<TableStats> parts;
        for (const std::string& part : e.parts) {
          MIP_ASSIGN_OR_RETURN(TableStats s, GetTableStats(part));
          parts.push_back(std::move(s));
        }
        return MergeTableStats(parts);
      }
      case Entry::Kind::kRemote:
        // No full-fetch fallback here, deliberately: statistics are a
        // planning hint, and planning must never cost more wire traffic
        // than the plan it is costing.
        if (!stats_fetcher_) {
          return Status::NotImplemented(
              "remote table '" + table_name +
              "' has no remote stats fetcher installed on " + name_);
        }
        return stats_fetcher_(e.location, e.remote_name);
    }
    return Status::Internal("bad table entry kind");
  }();
  MIP_RETURN_NOT_OK(stats.status());
  {
    std::lock_guard<std::mutex> lock(*stats_mu_);
    stats_cache_[key] = {catalog_version_, *stats};
  }
  return stats;
}

Result<Table> Database::RunTableFunction(
    const std::string& func_name, const std::vector<Value>& args) const {
  const auto* fn = functions_.FindTable(func_name);
  if (fn == nullptr) {
    return Status::NotFound("unknown table function '" + func_name + "'");
  }
  return fn->fn(args);
}

Result<PlanPtr> Database::BuildOptimizedPlan(const SelectStmt& stmt) {
  MIP_ASSIGN_OR_RETURN(PlanPtr plan, PlanSelect(stmt, *this));
  if (optimizer_enabled_) {
    OptimizerOptions options;
    options.merge_aggregate_pushdown = aggregate_pushdown_;
    options.index_scan = index_scan_;
    options.cost_model = cost_model_;
    options.force_join_strategy = force_join_strategy_;
    options.has_remote_query_runner = static_cast<bool>(query_runner_);
    options.has_remote_bound_runner = static_cast<bool>(bound_runner_);
    options.join_counters = join_counters_.get();
    MIP_ASSIGN_OR_RETURN(plan, OptimizePlan(std::move(plan), *this, options));
  }
  return plan;
}

Result<Table> Database::ExecuteSelect(const SelectStmt& stmt) {
  MIP_ASSIGN_OR_RETURN(PlanPtr plan, BuildOptimizedPlan(stmt));
  return ExecutePlannedSelect(*plan);
}

Result<PlanPtr> Database::TryPlanSelectSql(const std::string& sql) {
  MIP_ASSIGN_OR_RETURN(SqlStatement stmt, ParseSql(sql));
  auto* select = std::get_if<SelectStmt>(&stmt);
  if (select == nullptr) return PlanPtr();  // not a SELECT: run via ExecuteSql
  return BuildOptimizedPlan(*select);
}

Result<Table> Database::ExecutePlannedSelect(const PlanNode& plan) const {
  PlanExecutorOptions options;
  options.functions = &functions_;
  options.exec = exec_context_;
  options.db_name = name_;
  options.get_table = [this](const std::string& name) {
    return GetTable(name);
  };
  if (fetcher_) options.fetch_remote = fetcher_;
  if (query_runner_) options.run_remote_sql = query_runner_;
  if (bound_runner_) options.run_remote_bound_sql = bound_runner_;
  options.join_counters = join_counters_.get();
  if (storage_ != nullptr) {
    options.scan_disk = [this](const std::string& name,
                               const DiskScanSpec& spec) {
      return storage_->ScanDisk(name, spec, nullptr);
    };
  }
  return ExecutePlan(plan, options);
}

Result<std::string> Database::ExplainSelect(const SelectStmt& stmt) {
  MIP_ASSIGN_OR_RETURN(PlanPtr plan, BuildOptimizedPlan(stmt));
  return RenderPlan(*plan);
}

Result<Table> Database::ExecuteSql(const std::string& sql) {
  MIP_ASSIGN_OR_RETURN(SqlStatement stmt, ParseSql(sql));

  if (auto* select = std::get_if<SelectStmt>(&stmt)) {
    return ExecuteSelect(*select);
  }
  if (auto* explain = std::get_if<ExplainStmt>(&stmt)) {
    MIP_ASSIGN_OR_RETURN(std::string text, ExplainSelect(explain->select));
    Schema schema;
    MIP_RETURN_NOT_OK(schema.AddField(Field{"plan", DataType::kString}));
    Table out = Table::Empty(std::move(schema));
    size_t start = 0;
    while (start < text.size()) {
      size_t newline = text.find('\n', start);
      if (newline == std::string::npos) newline = text.size();
      MIP_RETURN_NOT_OK(out.AppendRow(
          {Value::String(text.substr(start, newline - start))}));
      start = newline + 1;
    }
    return out;
  }
  if (auto* create = std::get_if<CreateTableStmt>(&stmt)) {
    Schema schema;
    for (const Field& f : create->fields) {
      MIP_RETURN_NOT_OK(schema.AddField(f));
    }
    MIP_RETURN_NOT_OK(CreateTable(create->name, std::move(schema)));
    return Table();
  }
  if (auto* insert = std::get_if<InsertStmt>(&stmt)) {
    auto it = tables_.find(ToLower(insert->table));
    if (it == tables_.end()) {
      return Status::NotFound("table '" + insert->table + "' does not exist");
    }
    if (it->second.kind == Entry::Kind::kDisk) {
      // Route through the LSM ingest path: WAL + memtable on the attached
      // storage. IngestDisk bumps the catalog version, invalidating any
      // gateway-cached results over this table.
      if (storage_ == nullptr) {
        return Status::ExecutionError("disk table '" + insert->table +
                                      "' has no storage attached");
      }
      MIP_ASSIGN_OR_RETURN(Schema schema,
                           storage_->StorageTableSchema(insert->table));
      Table batch = Table::Empty(std::move(schema));
      for (const auto& row : insert->rows) {
        MIP_RETURN_NOT_OK(batch.AppendRow(row));
      }
      MIP_RETURN_NOT_OK(IngestDisk(insert->table, batch));
      return Table();
    }
    if (it->second.kind != Entry::Kind::kBase) {
      return Status::InvalidArgument(
          "cannot INSERT into a remote or merge table");
    }
    for (const auto& row : insert->rows) {
      MIP_RETURN_NOT_OK(it->second.table.AppendRow(row));
    }
    ++catalog_version_;
    return Table();
  }
  if (auto* remote = std::get_if<CreateRemoteTableStmt>(&stmt)) {
    const std::string key = ToLower(remote->name);
    if (tables_.count(key) > 0) {
      return Status::AlreadyExists("table '" + remote->name +
                                   "' already exists");
    }
    Entry e;
    e.kind = Entry::Kind::kRemote;
    e.location = remote->location;
    e.remote_name = remote->remote_name;
    tables_.emplace(key, std::move(e));
    ++catalog_version_;
    return Table();
  }
  if (auto* merge = std::get_if<CreateMergeTableStmt>(&stmt)) {
    const std::string key = ToLower(merge->name);
    if (tables_.count(key) > 0) {
      return Status::AlreadyExists("table '" + merge->name +
                                   "' already exists");
    }
    for (const std::string& part : merge->parts) {
      if (!HasTable(part)) {
        return Status::NotFound("merge part '" + part + "' does not exist");
      }
    }
    Entry e;
    e.kind = Entry::Kind::kMerge;
    e.parts = merge->parts;
    tables_.emplace(key, std::move(e));
    ++catalog_version_;
    return Table();
  }
  if (auto* drop = std::get_if<DropTableStmt>(&stmt)) {
    MIP_RETURN_NOT_OK(DropTable(drop->name));
    return Table();
  }
  return Status::Internal("unhandled statement kind");
}

}  // namespace mip::engine
