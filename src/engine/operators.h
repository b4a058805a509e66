#ifndef MIP_ENGINE_OPERATORS_H_
#define MIP_ENGINE_OPERATORS_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "engine/exec_context.h"
#include "engine/expr.h"
#include "engine/table.h"

namespace mip::engine {

class FunctionRegistry;

/// \brief One aggregate output in an aggregation: func(arg) AS output_name.
struct AggregateSpec {
  AggFunc func = AggFunc::kCountStar;
  ExprPtr arg;  ///< null for COUNT(*)
  std::string output_name;
};

/// Keeps the rows where `predicate` evaluates non-null true. `predicate`
/// must be bound against table.schema(). Predicate evaluation and selection
/// run per-morsel on `exec` (nullptr => ExecContext::Default()).
Result<Table> Filter(const Table& table, const Expr& predicate,
                     const FunctionRegistry* registry = nullptr,
                     const ExecContext* exec = nullptr);

/// Evaluates each (bound) expression into an output column named by `names`.
Result<Table> Project(const Table& table, const std::vector<ExprPtr>& exprs,
                      const std::vector<std::string>& names,
                      const FunctionRegistry* registry = nullptr,
                      const ExecContext* exec = nullptr);

/// Whole-table aggregation (no grouping): one output row. Rows stream into
/// per-morsel partial states merged in morsel order, so results are
/// bit-identical at any thread count (see ExecContext).
Result<Table> AggregateAll(const Table& table,
                           const std::vector<AggregateSpec>& aggs,
                           const FunctionRegistry* registry = nullptr,
                           const ExecContext* exec = nullptr);

/// Hash group-by aggregation. `keys` are bound grouping expressions surfaced
/// as the first output columns under `key_names`. Each morsel builds a
/// private hash table; partials merge in morsel order, which reproduces the
/// serial scan's first-seen group order and per-group states exactly.
Result<Table> GroupByAggregate(const Table& table,
                               const std::vector<ExprPtr>& keys,
                               const std::vector<std::string>& key_names,
                               const std::vector<AggregateSpec>& aggs,
                               const FunctionRegistry* registry = nullptr,
                               const ExecContext* exec = nullptr);

/// Stable multi-key sort by output-column names. `ascending` parallels
/// `keys`. NULLs sort last.
Result<Table> SortBy(const Table& table, const std::vector<std::string>& keys,
                     const std::vector<bool>& ascending);

enum class JoinType { kInner, kLeft };

/// Single-key hash join; right side is built into the hash table (serial,
/// row order), left side probes morsel-parallel on `exec` with per-morsel
/// match lists concatenated in morsel order — byte-identical at any thread
/// count. Key equality follows the engine's comparison kernels: NULLs (and
/// NaNs) never match, string keys compare as strings, numeric keys through
/// the double view (5 joins 5.0), string-vs-numeric never matches. Output
/// schema = left fields then right fields (right key column included; name
/// collisions get a "_r" suffix).
Result<Table> HashJoin(const Table& left, const Table& right,
                       const std::string& left_key,
                       const std::string& right_key, JoinType type,
                       const ExecContext* exec = nullptr);

/// First `limit` rows after skipping `offset`.
Table Limit(const Table& table, size_t limit, size_t offset = 0);

/// The named columns of `table`, in the given order (case-insensitive
/// lookup; output fields keep the table's spelling).
Result<Table> SelectTableColumns(const Table& table,
                                 const std::vector<std::string>& columns);

}  // namespace mip::engine

#endif  // MIP_ENGINE_OPERATORS_H_
