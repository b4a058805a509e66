#ifndef MIPBENCH_LOADGEN_DATA_H_
#define MIPBENCH_LOADGEN_DATA_H_

// Seeded generation of the benchmark's medical data: per-site cohort and
// visit tables (written to disk-backed site stores), per-site lab tables and
// gateway-local patient selections (loaded through SQL), the pooled
// single-node reference database, and the in-memory analysis sites.

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "engine/database.h"
#include "engine/table.h"

namespace mipbench {

struct SiteTables {
  mip::engine::Table cohort;  ///< one row per patient, clustered by id
  mip::engine::Table visits;  ///< several rows per patient
  mip::engine::Table labs;    ///< in-memory site table, created through SQL
  mip::engine::Table notes;   ///< free-text visit notes, written by the ETL
};

struct ServingData {
  std::vector<SiteTables> sites;
  /// Gateway-local patient selections joined against site tables: one far
  /// below and one far above the broadcast/collect crossover.
  mip::engine::Table sel_small;
  mip::engine::Table sel_large;
  int64_t max_patient_id = 0;
};

inline constexpr int kServingSites = 3;
inline constexpr int kPatientsPerSite = 8000;
/// Visits land in this many segments per site, one below the background
/// compaction threshold, so the first ETL flush triggers a compaction.
inline constexpr int kVisitSegments = 7;
inline constexpr int kCohortSegments = 4;
/// ETL rows carry visit years at or above this; every read excludes them.
inline constexpr int64_t kEtlYear = 3000;

ServingData MakeServingData(uint64_t seed);

/// The cohort's medical record number of a patient: unique, and scattered
/// so that only the ordered indexes (not zone maps) can skip segments.
int64_t Mrn(int64_t patient_id);

/// Site `k` of the serving stack: node id and dataset directory name.
std::string SiteId(int k);

struct WriteTimes {
  double write_s = 0;  ///< WAL-backed appends
  double flush_s = 0;  ///< segment + index writes and manifest commits
};

/// Writes one site's data directory through storage::StorageEngine:
/// visits in kVisitSegments segments (notes in one), cohort in
/// kCohortSegments.
mip::Status WriteSiteDir(const std::string& dir, const SiteTables& site,
                         WriteTimes* times);

/// SQL statements that load `table` into `name` (CREATE TABLE + INSERT
/// batches of `batch_rows`), with doubles printed round-trip exact.
std::vector<std::string> LoadTableSql(const std::string& name,
                                      const mip::engine::Table& table,
                                      size_t batch_rows);

/// One INSERT statement for `table`'s rows into `name`.
std::string InsertSql(const std::string& name, const mip::engine::Table& table);

/// A batch of new visits for the ETL writer, all in `year` (>= kEtlYear).
mip::engine::Table MakeEtlVisits(mip::Rng* rng, int site, int64_t year,
                                 size_t rows);

/// The free-text notes of an ETL batch (one per visit, a few hundred
/// characters each). Notes are what fills the memtable: the ETL flushes a
/// segment every few batches while visits stay small enough to scan.
mip::engine::Table MakeEtlNotes(mip::Rng* rng, int site, int64_t year,
                                size_t rows);

/// The single-node reference: pooled site tables under the federated view
/// names, plus the gateway-local selections.
mip::Status BuildReferenceDb(const ServingData& data, mip::engine::Database* db);

/// In-memory analysis site `k`: dataset "ds_<k>".
mip::engine::Table MakeAnalysisSite(uint64_t seed, int k, size_t rows);

}  // namespace mipbench

#endif  // MIPBENCH_LOADGEN_DATA_H_
