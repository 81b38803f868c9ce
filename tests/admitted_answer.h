// The answer oracle shared by the option-matrix tests: an admitted query
// returns plain rows — no lineage — equal to running the same SQL directly
// on the same database, however the enforcement path computed them.

#ifndef DATALAWYER_TESTS_ADMITTED_ANSWER_H_
#define DATALAWYER_TESTS_ADMITTED_ANSWER_H_

#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <vector>

#include "exec/engine.h"
#include "storage/database.h"

namespace datalawyer {

/// One admitted answer, compared exactly (Value's == compares the stored
/// representation, so doubles must match bit for bit).
struct AdmittedAnswer {
  std::string schema;
  std::vector<Row> rows;

  bool operator==(const AdmittedAnswer& other) const {
    return schema == other.schema && rows == other.rows;
  }
};

inline void PrintTo(const AdmittedAnswer& answer, std::ostream* os) {
  *os << "[" << answer.schema << "] " << answer.rows.size() << " rows";
}

/// Checks that `answer`, returned for the admitted `sql`, carries no
/// lineage and equals Engine::ExecuteSql(sql) on `db`; returns it for the
/// cross-run comparison.
inline AdmittedAnswer CheckAdmittedAnswer(Database* db, const std::string& sql,
                                          const QueryResult& answer) {
  EXPECT_FALSE(answer.has_lineage) << sql;
  EXPECT_TRUE(answer.lineage.empty()) << sql;
  EXPECT_TRUE(answer.base_relations.empty()) << sql;
  AdmittedAnswer out{answer.schema.ToString(), answer.rows};
  Engine engine(db);
  Result<QueryResult> direct = engine.ExecuteSql(sql);
  EXPECT_TRUE(direct.ok()) << sql << ": " << direct.status().ToString();
  if (direct.ok()) {
    EXPECT_EQ(out, (AdmittedAnswer{direct->schema.ToString(), direct->rows}))
        << sql;
  }
  return out;
}

}  // namespace datalawyer

#endif  // DATALAWYER_TESTS_ADMITTED_ANSWER_H_
