#include "policy/witness.h"

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <utility>

#include "analysis/join_graph.h"
#include "common/strings.h"
#include "common/trace.h"
#include "exec/executor.h"
#include "policy/policy_analyzer.h"
#include "storage/catalog_view.h"

namespace datalawyer {

const std::string& WitnessBuilder::NowRelationName() {
  static const std::string* kName = new std::string("dl_now");
  return *kName;
}

void WitnessSet::MergeFrom(WitnessSet other) {
  for (auto& [name, witness] : other.per_relation) {
    RelationWitness& mine = per_relation[name];
    mine.full_fallback = mine.full_fallback || witness.full_fallback;
    for (auto& q : witness.queries) mine.queries.push_back(std::move(q));
  }
}

WitnessBodies FoldWitnesses(const std::vector<const WitnessSet*>& sets,
                            const std::set<std::string>& skip_retention) {
  WitnessBodies out;
  for (const WitnessSet* set : sets) {
    for (const auto& [name, witness] : set->per_relation) {
      if (witness.full_fallback && !skip_retention.count(name)) {
        out.keep_all.insert(name);
      }
    }
  }
  // Body index by fold key: FROM and WHERE for full-query witnesses (the
  // projection does not change their lineage), the whole text otherwise.
  std::map<std::string, size_t> body_of;
  for (const WitnessSet* set : sets) {
    for (const auto& [name, witness] : set->per_relation) {
      if (skip_retention.count(name) || out.keep_all.count(name)) continue;
      for (const auto& query : witness.queries) {
        std::string key;
        if (query->distinct && query->distinct_on.empty()) {
          key = "FROM";
          for (const TableRef& ref : query->from) key += " " + ref.ToString();
          if (query->where != nullptr) {
            key += " WHERE " + query->where->ToString();
          }
        } else {
          key = query->ToString();
        }
        auto [it, fresh] = body_of.emplace(key, out.bodies.size());
        if (fresh) out.bodies.push_back(WitnessBody{query->Clone(), {}});
        std::vector<std::string>& rels = out.bodies[it->second].relations;
        auto pos = std::lower_bound(rels.begin(), rels.end(), name);
        if (pos == rels.end() || *pos != name) rels.insert(pos, name);
      }
    }
  }
  return out;
}

void AddNowRelation(UsageLog::PolicyCatalog* catalog, int64_t now) {
  TableSchema schema;
  schema.AddColumn("ts", ValueType::kInt64);
  catalog->owned.push_back(std::make_unique<OwnedRelation>(
      std::move(schema), std::vector<Row>{{Value(now)}}));
  catalog->catalog->Add(WitnessBuilder::NowRelationName(),
                        catalog->owned.back().get());
}

namespace {

/// A clock comparison isolated to `clock.ts op rhs` form.
struct ClockPredicate {
  std::string op;  ///< "<", "<=", ">", ">=", "=" (after isolation)
  ExprPtr rhs;     ///< clock-free expression
};

bool MentionsAnyOf(const Expr& expr, const std::set<std::string>& aliases) {
  bool found = false;
  expr.Visit([&](const Expr& e) {
    if (e.kind() == ExprKind::kColumnRef) {
      const auto& c = static_cast<const ColumnRefExpr&>(e);
      if (aliases.count(ToLower(c.qualifier))) found = true;
    } else if (e.kind() == ExprKind::kStar) {
      const auto& s = static_cast<const StarExpr&>(e);
      if (aliases.count(ToLower(s.qualifier))) found = true;
    }
  });
  return found;
}

bool HasUnqualifiedRefs(const Expr& expr) {
  bool found = false;
  expr.Visit([&](const Expr& e) {
    if (e.kind() == ExprKind::kColumnRef &&
        static_cast<const ColumnRefExpr&>(e).qualifier.empty()) {
      found = true;
    }
  });
  return found;
}

std::string FlipOp(const std::string& op) {
  if (op == "<") return ">";
  if (op == "<=") return ">=";
  if (op == ">") return "<";
  if (op == ">=") return "<=";
  return op;  // = and != are symmetric
}

/// Isolates `conjunct` into `clock.ts op rhs`. Handles +/- constant motion
/// (e.g. `u.ts > c.ts - 5` → `c.ts < u.ts + 5`). Returns false when the
/// shape is not supported (caller falls back to the full witness).
bool IsolateClock(const Expr& conjunct, const std::set<std::string>& clock_aliases,
                  ClockPredicate* out) {
  if (conjunct.kind() != ExprKind::kBinary) return false;
  const auto& b = static_cast<const BinaryExpr&>(conjunct);
  if (b.op != "=" && b.op != "!=" && b.op != "<" && b.op != "<=" &&
      b.op != ">" && b.op != ">=") {
    return false;
  }
  bool lhs_clock = MentionsAnyOf(*b.lhs, clock_aliases);
  bool rhs_clock = MentionsAnyOf(*b.rhs, clock_aliases);
  if (lhs_clock == rhs_clock) return false;  // both or neither

  ExprPtr clock_side = (lhs_clock ? b.lhs : b.rhs)->Clone();
  ExprPtr other_side = (lhs_clock ? b.rhs : b.lhs)->Clone();
  std::string op = lhs_clock ? b.op : FlipOp(b.op);

  // Move additive terms off the clock side: (c.ts - E) op X → c.ts op X + E.
  while (clock_side->kind() == ExprKind::kBinary) {
    auto* cb = static_cast<BinaryExpr*>(clock_side.get());
    if (cb->op != "+" && cb->op != "-") return false;
    bool left_has = MentionsAnyOf(*cb->lhs, clock_aliases);
    bool right_has = MentionsAnyOf(*cb->rhs, clock_aliases);
    if (left_has == right_has) return false;
    if (left_has) {
      // (C ± E) op X  →  C op X ∓ E
      other_side = std::make_unique<BinaryExpr>(
          cb->op == "+" ? "-" : "+", std::move(other_side),
          std::move(cb->rhs));
      clock_side = std::move(cb->lhs);
    } else {
      if (cb->op == "+") {
        // (E + C) op X  →  C op X - E
        other_side = std::make_unique<BinaryExpr>("-", std::move(other_side),
                                                  std::move(cb->lhs));
        clock_side = std::move(cb->rhs);
      } else {
        // (E - C) op X  →  C flip(op) E - X
        other_side = std::make_unique<BinaryExpr>("-", std::move(cb->lhs),
                                                  std::move(other_side));
        op = FlipOp(op);
        clock_side = std::move(cb->rhs);
      }
    }
  }

  if (clock_side->kind() != ExprKind::kColumnRef) return false;
  const auto& ref = static_cast<const ColumnRefExpr&>(*clock_side);
  if (!clock_aliases.count(ToLower(ref.qualifier)) ||
      !EqualsIgnoreCase(ref.column, "ts")) {
    return false;
  }
  out->op = op;
  out->rhs = std::move(other_side);
  return true;
}

/// Columns of `alias` mentioned in `expr`.
void CollectAliasColumns(const Expr& expr, const std::string& alias,
                         std::set<std::string>* out) {
  expr.Visit([&](const Expr& e) {
    if (e.kind() == ExprKind::kColumnRef) {
      const auto& c = static_cast<const ColumnRefExpr&>(e);
      if (EqualsIgnoreCase(c.qualifier, alias)) out->insert(ToLower(c.column));
    }
  });
}

/// `dl_now.ts + 1`.
ExprPtr NowPlusOne() {
  return std::make_unique<BinaryExpr>(
      "+",
      std::make_unique<ColumnRefExpr>(WitnessBuilder::NowRelationName(), "ts"),
      std::make_unique<LiteralExpr>(Value(int64_t{1})));
}

}  // namespace

Result<WitnessSet> WitnessBuilder::Build(const SelectStmt& policy_stmt) const {
  DL_TRACE_SPAN("policy.witness_build", "policy");
  WitnessSet out;
  for (const SelectStmt* member = &policy_stmt; member != nullptr;
       member = member->union_next.get()) {
    DL_ASSIGN_OR_RETURN(WitnessSet member_set, BuildForMember(*member));
    out.MergeFrom(std::move(member_set));
  }
  return out;
}

Result<WitnessSet> WitnessBuilder::BuildForMember(
    const SelectStmt& member) const {
  WitnessSet out;

  // Algorithm 2, line 3: FROM subqueries are compacted separately.
  for (const TableRef& ref : member.from) {
    if (ref.IsSubquery()) {
      DL_ASSIGN_OR_RETURN(WitnessSet sub, Build(*ref.subquery));
      out.MergeFrom(std::move(sub));
    }
  }

  // Classify top-level FROM aliases.
  struct LogAlias {
    std::string alias;
    std::string relation;
  };
  std::vector<LogAlias> log_aliases;
  std::set<std::string> clock_aliases;
  std::set<std::string> subquery_aliases;
  std::vector<const TableRef*> db_refs;
  std::set<std::string> db_aliases;
  for (const TableRef& ref : member.from) {
    std::string alias = ToLower(ref.BindingName());
    if (ref.IsSubquery()) {
      subquery_aliases.insert(alias);
    } else if (log_->IsLogRelation(ref.table_name)) {
      log_aliases.push_back(LogAlias{alias, ToLower(ref.table_name)});
    } else if (EqualsIgnoreCase(ref.table_name,
                                UsageLog::ClockRelationName())) {
      clock_aliases.insert(alias);
    } else {
      db_refs.push_back(&ref);
      db_aliases.insert(alias);
    }
  }
  if (log_aliases.empty()) return out;

  auto mark_fallback_all = [&]() {
    for (const LogAlias& la : log_aliases) {
      out.per_relation[la.relation].full_fallback = true;
    }
  };

  // Unqualified references make alias attribution unsound — keep everything.
  {
    bool unqualified = false;
    auto scan = [&](const Expr* e) {
      if (e != nullptr && HasUnqualifiedRefs(*e)) unqualified = true;
    };
    for (const SelectItem& item : member.items) scan(item.expr.get());
    for (const ExprPtr& e : member.distinct_on) scan(e.get());
    scan(member.where.get());
    for (const ExprPtr& e : member.group_by) scan(e.get());
    scan(member.having.get());
    if (unqualified) {
      mark_fallback_all();
      return out;
    }
  }

  // Clock references outside WHERE are beyond Lemma 4.3.
  {
    bool clock_elsewhere = false;
    auto scan = [&](const Expr* e) {
      if (e != nullptr && MentionsAnyOf(*e, clock_aliases)) {
        clock_elsewhere = true;
      }
    };
    for (const SelectItem& item : member.items) scan(item.expr.get());
    for (const ExprPtr& e : member.distinct_on) scan(e.get());
    for (const ExprPtr& e : member.group_by) scan(e.get());
    scan(member.having.get());
    if (clock_elsewhere) {
      mark_fallback_all();
      return out;
    }
  }

  // Partition WHERE conjuncts.
  std::vector<ExprPtr> plain;
  std::vector<ClockPredicate> clock_preds;
  if (member.where != nullptr) {
    for (ExprPtr& conj : SplitConjuncts(*member.where)) {
      if (MentionsAnyOf(*conj, subquery_aliases)) continue;  // dropped: sound
      if (MentionsAnyOf(*conj, clock_aliases)) {
        ClockPredicate pred;
        if (!IsolateClock(*conj, clock_aliases, &pred) || pred.op == "!=") {
          // §4.1.2: no compaction for unsupported clock shapes.
          mark_fallback_all();
          return out;
        }
        if (pred.op == "=") {
          // Split equality; only the <= half survives Lemma 4.3 anyway.
          ClockPredicate le;
          le.op = "<=";
          le.rhs = pred.rhs->Clone();
          clock_preds.push_back(std::move(le));
        } else {
          clock_preds.push_back(std::move(pred));
        }
        continue;
      }
      plain.push_back(std::move(conj));
    }
  }

  const bool full_query_mode = member.having != nullptr;
  JoinGraph graph = JoinGraph::Build(member);

  for (const LogAlias& la : log_aliases) {
    // Neighborhood: log aliases whose ts equi-joins with la's ts.
    std::set<std::string> kept{la.alias};
    QualifiedColumn my_ts{la.alias, "ts"};
    for (const LogAlias& other : log_aliases) {
      if (other.alias == la.alias) continue;
      QualifiedColumn ts{other.alias, "ts"};
      if (graph.SameClass(my_ts, ts)) kept.insert(other.alias);
    }
    for (const std::string& alias : db_aliases) kept.insert(alias);

    auto references_only_kept = [&](const Expr& e) {
      bool ok = true;
      e.Visit([&](const Expr& node) {
        if (node.kind() == ExprKind::kColumnRef) {
          const auto& c = static_cast<const ColumnRefExpr&>(node);
          if (!kept.count(ToLower(c.qualifier))) ok = false;
        }
      });
      return ok;
    };

    auto query = std::make_unique<SelectStmt>();
    // FROM: the occurrence, its neighborhood, the database relations.
    bool need_now = false;
    for (const TableRef& ref : member.from) {
      std::string alias = ToLower(ref.BindingName());
      if (kept.count(alias) && !ref.IsSubquery() &&
          !clock_aliases.count(alias)) {
        query->from.push_back(ref.Clone());
      }
    }

    // WHERE: restricted predicates + transformed clock predicates.
    std::vector<ExprPtr> conjuncts;
    std::set<std::string> join_columns;  // the DISTINCT ON attributes a.X
    for (const ExprPtr& conj : plain) {
      if (!references_only_kept(*conj)) continue;
      // Track a.X: columns of `la.alias` equated with another relation.
      if (conj->kind() == ExprKind::kBinary) {
        const auto& b = static_cast<const BinaryExpr&>(*conj);
        if (b.op == "=" && b.lhs->kind() == ExprKind::kColumnRef &&
            b.rhs->kind() == ExprKind::kColumnRef) {
          const auto& l = static_cast<const ColumnRefExpr&>(*b.lhs);
          const auto& r = static_cast<const ColumnRefExpr&>(*b.rhs);
          if (EqualsIgnoreCase(l.qualifier, la.alias) &&
              !EqualsIgnoreCase(r.qualifier, la.alias)) {
            join_columns.insert(ToLower(l.column));
          } else if (EqualsIgnoreCase(r.qualifier, la.alias) &&
                     !EqualsIgnoreCase(l.qualifier, la.alias)) {
            join_columns.insert(ToLower(r.column));
          }
        }
      }
      conjuncts.push_back(conj->Clone());
    }
    for (const ClockPredicate& pred : clock_preds) {
      // Attributes in the clock expression count as join attributes
      // (Lemma 4.3), including for predicates we drop — conservative.
      CollectAliasColumns(*pred.rhs, la.alias, &join_columns);
      if (pred.op == ">" || pred.op == ">=") continue;  // dropped
      if (!references_only_kept(*pred.rhs)) continue;   // dropped: sound
      conjuncts.push_back(std::make_unique<BinaryExpr>(pred.op, NowPlusOne(),
                                                       pred.rhs->Clone()));
      need_now = true;
    }
    query->where = AndTogether(std::move(conjuncts));

    if (need_now) {
      TableRef now_ref;
      now_ref.table_name = NowRelationName();
      now_ref.alias = NowRelationName();
      query->from.push_back(std::move(now_ref));
    }

    // SELECT list per Eq. (2) / Eq. (3).
    query->items.push_back(
        SelectItem{std::make_unique<StarExpr>(la.alias), ""});
    if (full_query_mode) {
      query->distinct = true;  // Eq. (2): SELECT DISTINCT a.*
    } else {
      if (join_columns.empty()) {
        // DISTINCT ON over a constant: any single satisfying tuple.
        query->distinct_on.push_back(
            std::make_unique<LiteralExpr>(Value(int64_t{1})));
      } else {
        for (const std::string& col : join_columns) {
          query->distinct_on.push_back(
              std::make_unique<ColumnRefExpr>(la.alias, col));
        }
      }
    }

    out.per_relation[la.relation].queries.push_back(std::move(query));
  }

  return out;
}

Result<WitnessCaptureResult> CaptureViolationWitnesses(
    const SelectStmt& stmt, const CatalogView* catalog, const UsageLog& log,
    size_t limit, bool naive, bool enable_stats_costing) {
  ScopedSpan span("decision.witness", "policy");
  ExecOptions options;
  options.capture_lineage = true;
  options.enable_optimizer = !naive;
  options.enable_stats_costing = enable_stats_costing && !naive;
  Executor executor(catalog, options);
  DL_ASSIGN_OR_RETURN(QueryResult result, executor.Execute(stmt));

  // Distinct usage-log tuples across every violating output row. std::set
  // gives the deterministic (relation, row id) order — concatenated ids
  // sort main-part rows before increment rows within a relation.
  std::set<std::pair<std::string, int64_t>> ids;
  for (const LineageSet& lineage : result.lineage) {
    for (const LineageEntry& entry : lineage) {
      const std::string& rel = result.base_relations[entry.rel];
      if (log.IsLogRelation(rel)) ids.insert({rel, entry.row_id});
    }
  }

  WitnessCaptureResult capture;
  if (ids.size() > limit) capture.truncated = ids.size() - limit;

  // Resolve values one relation at a time: RelationData has no id→row
  // inverse, so build it once per relation instead of once per witness.
  std::string current_rel;
  const RelationData* rel_data = nullptr;
  std::map<int64_t, size_t> index_of;
  std::optional<size_t> ts_col;
  for (const auto& [rel, row_id] : ids) {
    if (capture.rows.size() >= limit) break;
    if (rel != current_rel || rel_data == nullptr) {
      current_rel = rel;
      rel_data = catalog->Find(rel);
      index_of.clear();
      ts_col.reset();
      if (rel_data != nullptr) {
        ts_col = rel_data->schema().FindColumn("ts");
        for (size_t i = 0, n = rel_data->NumRows(); i < n; ++i) {
          index_of[rel_data->RowIdAt(i)] = i;
        }
      }
    }
    if (rel_data == nullptr) continue;
    auto it = index_of.find(row_id);
    if (it == index_of.end()) continue;
    const Row& row = rel_data->RowAt(it->second);
    CapturedWitness w;
    w.relation = rel;
    w.from_increment = ConcatRelation::IsFromSecond(row_id);
    w.row_id =
        w.from_increment ? ConcatRelation::SecondRowId(row_id) : row_id;
    if (ts_col.has_value() && *ts_col < row.size() &&
        row[*ts_col].is_int64()) {
      w.ts = row[*ts_col].AsInt64();
    }
    w.values.reserve(row.size());
    for (const Value& v : row) w.values.push_back(v.ToString());
    capture.rows.push_back(std::move(w));
  }
  return capture;
}

}  // namespace datalawyer
