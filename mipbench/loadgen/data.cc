#include "data.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "util.h"
#include "storage/store.h"

namespace mipbench {

using mip::Rng;
using mip::Status;
using mip::engine::Column;
using mip::engine::DataType;
using mip::engine::Field;
using mip::engine::Schema;
using mip::engine::Table;

namespace {

constexpr const char* kDx[] = {"CN", "MCI", "AD"};
constexpr const char* kVisitType[] = {"BL", "FU", "UNS", "TEL"};
constexpr const char* kLabCodes[] = {"HBA1C", "LDL", "TSH", "B12", "CRP"};
constexpr const char* kNoteWords[] = {
    "patient", "reports", "mild", "memory", "complaints", "family", "notes",
    "word", "finding", "difficulty", "stable", "since", "last", "visit",
    "sleep", "disturbed", "gait", "normal", "orientation", "intact", "to",
    "time", "place", "caregiver", "present", "medication", "adherence",
    "good", "mood", "low", "no", "focal", "deficits", "reviewed", "scan",
    "results", "discussed", "plan", "follow", "up", "in", "six", "months"};


double Round(double v, double step) { return std::round(v / step) * step; }
double Clamp(double v, double lo, double hi) {
  return std::min(hi, std::max(lo, v));
}

Schema MakeSchema(const std::vector<std::pair<std::string, DataType>>& cols) {
  Schema schema;
  for (const auto& [name, type] : cols) (void)schema.AddField({name, type});
  return schema;
}

Table MakeTable(const Schema& schema, std::vector<Column> columns) {
  return mip::engine::Table::Make(schema, std::move(columns)).ValueOrDie();
}

Schema VisitsSchema() {
  return MakeSchema({{"patient_id", DataType::kInt64},
                     {"visit_year", DataType::kInt64},
                     {"visit_month", DataType::kInt64},
                     {"mmse", DataType::kFloat64},
                     {"cdr", DataType::kFloat64},
                     {"adas", DataType::kFloat64},
                     {"dx", DataType::kString},
                     {"visit_type", DataType::kString}});
}

Schema NotesSchema() {
  return MakeSchema({{"patient_id", DataType::kInt64},
                     {"visit_year", DataType::kInt64},
                     {"note", DataType::kString}});
}

// Appends one visit row to `cols` (in VisitsSchema order).
void AppendVisit(std::vector<Column>* cols, Rng* rng, int64_t patient,
                 int64_t year, int dx) {
  auto& c = *cols;
  c[0].AppendInt(patient);
  c[1].AppendInt(year);
  c[2].AppendInt(1 + static_cast<int64_t>(rng->NextBounded(12)));
  const double mmse_mean = dx == 0 ? 28.5 : dx == 1 ? 25.5 : 19.0;
  c[3].AppendDouble(Clamp(std::round(rng->NextGaussian(mmse_mean, 2.5)), 0, 30));
  c[4].AppendDouble(Round(Clamp(rng->NextGaussian(0.5 * dx, 0.4), 0, 3), 0.5));
  c[5].AppendDouble(
      Round(Clamp(rng->NextGaussian(8.0 + 9.0 * dx, 4.0), 0.5, 70), 0.01));
  c[6].AppendString(kDx[dx]);
  c[7].AppendString(kVisitType[rng->NextBounded(4)]);
}

std::vector<Column> EmptyColumns(const Schema& schema) {
  std::vector<Column> cols;
  for (const Field& f : schema.fields()) cols.emplace_back(f.type);
  return cols;
}

Table MakeSelection(Rng* rng, size_t rows, int64_t max_patient_id) {
  const Schema schema = MakeSchema(
      {{"patient_id", DataType::kInt64}, {"arm", DataType::kString}});
  std::vector<Column> cols = EmptyColumns(schema);
  // Distinct patients: stride through the id space from a random offset.
  const int64_t n = max_patient_id + 1;
  const int64_t stride = 7919;  // prime, coprime with any id-space size here
  int64_t id = static_cast<int64_t>(rng->NextBounded(static_cast<uint64_t>(n)));
  for (size_t i = 0; i < rows; ++i) {
    cols[0].AppendInt(id);
    cols[1].AppendString(rng->NextBounded(2) == 0 ? "A" : "B");
    id = (id + stride) % n;
  }
  return MakeTable(schema, std::move(cols));
}

std::string SqlLiteral(const Column& col, size_t row) {
  if (!col.IsValid(row)) return "NULL";
  switch (col.type()) {
    case DataType::kBool:
      return col.BoolAt(row) ? "true" : "false";
    case DataType::kInt64:
      return std::to_string(col.IntAt(row));
    case DataType::kFloat64: {
      char buf[40];
      std::snprintf(buf, sizeof(buf), "%.17g", col.DoubleAt(row));
      return buf;
    }
    case DataType::kString:
      return "'" + col.StringAt(row) + "'";
  }
  return "NULL";
}

}  // namespace

int64_t Mrn(int64_t patient_id) {
  // Odd multiplier mod 2^31: a bijection, so record numbers stay unique
  // while scattering across every segment's zone map.
  return static_cast<int64_t>((static_cast<uint64_t>(patient_id) * 2654435761ull) &
                              0x7fffffffull);
}

std::string SiteId(int k) { return "hospital_" + std::to_string(k); }

ServingData MakeServingData(uint64_t seed) {
  ServingData data;
  const Schema cohort_schema =
      MakeSchema({{"patient_id", DataType::kInt64},
                  {"age", DataType::kFloat64},
                  {"sex", DataType::kString},
                  {"dx", DataType::kString},
                  {"mmse", DataType::kFloat64},
                  {"abeta42", DataType::kFloat64},
                  {"p_tau", DataType::kFloat64},
                  {"hippocampus", DataType::kFloat64},
                  {"mrn", DataType::kInt64}});
  const Schema visits_schema = VisitsSchema();
  const Schema notes_schema = NotesSchema();
  const Schema labs_schema = MakeSchema({{"patient_id", DataType::kInt64},
                                         {"lab_code", DataType::kString},
                                         {"lab_value", DataType::kFloat64}});
  for (int k = 0; k < kServingSites; ++k) {
    Rng rng(seed * 1000003ull + static_cast<uint64_t>(k) * 7919ull + 17);
    std::vector<Column> cohort = EmptyColumns(cohort_schema);
    std::vector<Column> visits = EmptyColumns(visits_schema);
    std::vector<Column> labs = EmptyColumns(labs_schema);
    for (int i = 0; i < kPatientsPerSite; ++i) {
      // Ids interleave across sites, so every id range touches every site.
      const int64_t patient = static_cast<int64_t>(i) * kServingSites + k;
      const double u = rng.NextDouble();
      const int dx = u < 0.4 ? 0 : u < 0.75 ? 1 : 2;
      const double age = Round(Clamp(rng.NextGaussian(71.0 + 2.0 * dx, 8.0), 50, 95), 0.1);
      cohort[0].AppendInt(patient);
      cohort[1].AppendDouble(age);
      cohort[2].AppendString(rng.NextBounded(2) == 0 ? "F" : "M");
      cohort[3].AppendString(kDx[dx]);
      cohort[4].AppendDouble(
          Clamp(std::round(rng.NextGaussian(dx == 0 ? 28.5 : dx == 1 ? 25.5 : 19.0, 2.5)), 0, 30));
      if (rng.NextBounded(50) == 0) {
        cohort[5].AppendNull();
      } else {
        cohort[5].AppendDouble(Round(
            Clamp(rng.NextGaussian(1100.0 - 220.0 * dx, 230.0), 150, 2500), 0.1));
      }
      cohort[6].AppendDouble(
          Round(Clamp(rng.NextGaussian(19.0 + 8.0 * dx, 6.0), 4, 120), 0.01));
      cohort[7].AppendDouble(Round(
          Clamp(7.6 - 0.025 * (age - 70.0) - 0.45 * dx + rng.NextGaussian(0, 0.4),
                3.0, 11.0),
          0.001));
      cohort[8].AppendInt(Mrn(patient));
      const int n_visits = 1 + static_cast<int>(rng.NextBounded(13));
      int64_t year = 2005 + static_cast<int64_t>(rng.NextBounded(8));
      for (int v = 0; v < n_visits; ++v) {
        AppendVisit(&visits, &rng, patient, year, dx);
        year += 1 + static_cast<int64_t>(rng.NextBounded(2));
      }
      for (int l = 0; l < 3; ++l) {
        labs[0].AppendInt(patient);
        labs[1].AppendString(kLabCodes[rng.NextBounded(5)]);
        labs[2].AppendDouble(Round(rng.NextUniform(0.5, 250.0), 0.01));
      }
    }
    data.sites.push_back({MakeTable(cohort_schema, std::move(cohort)),
                          MakeTable(visits_schema, std::move(visits)),
                          MakeTable(labs_schema, std::move(labs)),
                          MakeEtlNotes(&rng, k, 2024, 200)});
  }
  data.max_patient_id =
      static_cast<int64_t>(kPatientsPerSite) * kServingSites - 1;
  Rng rng(seed * 31 + 5);
  data.sel_small = MakeSelection(&rng, 48, data.max_patient_id);
  data.sel_large = MakeSelection(&rng, 12000, data.max_patient_id);
  return data;
}

Status WriteSiteDir(const std::string& dir, const SiteTables& site,
                    WriteTimes* times) {
  mip::storage::StorageOptions options;
  options.target_segment_rows =
      (site.visits.num_rows() + kVisitSegments - 1) / kVisitSegments;
  MIP_ASSIGN_OR_RETURN(auto store,
                       mip::storage::StorageEngine::Open(dir, options));
  double t0 = NowMs();
  MIP_RETURN_NOT_OK(store->AppendRows("visits", site.visits));
  MIP_RETURN_NOT_OK(store->AppendRows("visit_notes", site.notes));
  double t1 = NowMs();
  MIP_RETURN_NOT_OK(store->Flush());
  double t2 = NowMs();
  times->write_s += (t1 - t0) / 1e3;
  times->flush_s += (t2 - t1) / 1e3;
  const size_t rows = site.cohort.num_rows();
  const size_t chunk = (rows + kCohortSegments - 1) / kCohortSegments;
  for (size_t off = 0; off < rows; off += chunk) {
    t0 = NowMs();
    MIP_RETURN_NOT_OK(store->AppendRows(
        "cohort", site.cohort.Slice(off, std::min(chunk, rows - off))));
    t1 = NowMs();
    MIP_RETURN_NOT_OK(store->Flush());
    t2 = NowMs();
    times->write_s += (t1 - t0) / 1e3;
    times->flush_s += (t2 - t1) / 1e3;
  }
  return Status::OK();
}

std::string InsertSql(const std::string& name, const Table& table) {
  std::string sql = "INSERT INTO " + name + " VALUES ";
  sql.reserve(sql.size() + table.num_rows() * 16 * table.num_columns());
  for (size_t r = 0; r < table.num_rows(); ++r) {
    if (r > 0) sql += ", ";
    sql += '(';
    for (size_t c = 0; c < table.num_columns(); ++c) {
      if (c > 0) sql += ", ";
      sql += SqlLiteral(table.column(c), r);
    }
    sql += ')';
  }
  return sql;
}

std::vector<std::string> LoadTableSql(const std::string& name,
                                      const Table& table, size_t batch_rows) {
  std::vector<std::string> out;
  std::string create = "CREATE TABLE " + name + " (";
  for (size_t c = 0; c < table.num_columns(); ++c) {
    const Field& f = table.schema().field(c);
    if (c > 0) create += ", ";
    create += f.name + " " + mip::engine::DataTypeName(f.type);
  }
  out.push_back(create + ")");
  for (size_t off = 0; off < table.num_rows(); off += batch_rows) {
    out.push_back(InsertSql(
        name, table.Slice(off, std::min(batch_rows, table.num_rows() - off))));
  }
  return out;
}

Table MakeEtlVisits(Rng* rng, int site, int64_t year, size_t rows) {
  const Schema schema = VisitsSchema();
  std::vector<Column> cols = EmptyColumns(schema);
  for (size_t i = 0; i < rows; ++i) {
    const int64_t patient =
        static_cast<int64_t>(rng->NextBounded(kPatientsPerSite)) * kServingSites + site;
    AppendVisit(&cols, rng, patient, year, static_cast<int>(rng->NextBounded(3)));
  }
  return MakeTable(schema, std::move(cols));
}

Table MakeEtlNotes(Rng* rng, int site, int64_t year, size_t rows) {
  const Schema schema = NotesSchema();
  std::vector<Column> cols = EmptyColumns(schema);
  constexpr size_t kWords = sizeof(kNoteWords) / sizeof(kNoteWords[0]);
  for (size_t i = 0; i < rows; ++i) {
    cols[0].AppendInt(
        static_cast<int64_t>(rng->NextBounded(kPatientsPerSite)) * kServingSites + site);
    cols[1].AppendInt(year);
    std::string note;
    while (note.size() < 400) {
      if (!note.empty()) note += ' ';
      note += kNoteWords[rng->NextBounded(kWords)];
    }
    cols[2].AppendString(std::move(note));
  }
  return MakeTable(schema, std::move(cols));
}

Status BuildReferenceDb(const ServingData& data, mip::engine::Database* db) {
  std::vector<Table> cohort, visits, labs;
  for (const SiteTables& s : data.sites) {
    cohort.push_back(s.cohort);
    visits.push_back(s.visits);
    labs.push_back(s.labs);
  }
  MIP_ASSIGN_OR_RETURN(Table c, Table::Concat(cohort));
  MIP_ASSIGN_OR_RETURN(Table v, Table::Concat(visits));
  MIP_ASSIGN_OR_RETURN(Table l, Table::Concat(labs));
  MIP_RETURN_NOT_OK(db->PutTable("cohort_federated", std::move(c)));
  MIP_RETURN_NOT_OK(db->PutTable("visits_federated", std::move(v)));
  MIP_RETURN_NOT_OK(db->PutTable("labs_federated", std::move(l)));
  MIP_RETURN_NOT_OK(db->PutTable("sel_small", data.sel_small));
  MIP_RETURN_NOT_OK(db->PutTable("sel_large", data.sel_large));
  return Status::OK();
}

Table MakeAnalysisSite(uint64_t seed, int k, size_t rows) {
  const Schema schema = MakeSchema({{"age", DataType::kFloat64},
                                    {"mmse", DataType::kFloat64},
                                    {"abeta42", DataType::kFloat64},
                                    {"p_tau", DataType::kFloat64},
                                    {"hippocampus", DataType::kFloat64},
                                    {"ad", DataType::kFloat64},
                                    {"age_z", DataType::kFloat64},
                                    {"mmse_z", DataType::kFloat64},
                                    {"p_tau_z", DataType::kFloat64}});
  std::vector<Column> cols = EmptyColumns(schema);
  Rng rng(seed * 2654435761ull + static_cast<uint64_t>(k) * 97 + 3);
  const double site_shift = rng.NextGaussian(0, 1.5);
  for (size_t i = 0; i < rows; ++i) {
    const double u = rng.NextDouble();
    const int dx = u < 0.4 ? 0 : u < 0.75 ? 1 : 2;
    const double age = Clamp(rng.NextGaussian(71.0 + 2.0 * dx + site_shift, 8.0), 50, 95);
    const double mmse =
        Clamp(rng.NextGaussian(dx == 0 ? 28.5 : dx == 1 ? 25.5 : 19.0, 2.5), 0, 30);
    const double p_tau = Clamp(rng.NextGaussian(19.0 + 8.0 * dx, 6.0), 4, 120);
    cols[0].AppendDouble(age);
    cols[1].AppendDouble(mmse);
    cols[2].AppendDouble(Clamp(rng.NextGaussian(1100.0 - 220.0 * dx, 230.0), 150, 2500));
    cols[3].AppendDouble(p_tau);
    cols[4].AppendDouble(7.6 - 0.025 * (age - 70.0) - 0.45 * dx + rng.NextGaussian(0, 0.4));
    // Diagnosis is noisy given the biomarkers, so the logistic fit is finite.
    const double logit = -1.5 + 1.2 * (dx - 1) + rng.NextGaussian(0, 1.0);
    cols[5].AppendDouble(logit > 0 ? 1.0 : 0.0);
    // Covariates on a unit scale (fixed reference means and spreads).
    cols[6].AppendDouble((age - 72.0) / 8.0);
    cols[7].AppendDouble((mmse - 25.0) / 4.0);
    cols[8].AppendDouble((p_tau - 25.0) / 8.0);
  }
  return MakeTable(schema, std::move(cols));
}

}  // namespace mipbench
