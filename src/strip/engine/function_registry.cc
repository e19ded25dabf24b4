#include "strip/engine/function_registry.h"

#include "strip/common/string_util.h"
#include "strip/engine/database.h"

namespace strip {

namespace {

int AffectedRowsOf(const ResultSet& rs) {
  if (rs.num_rows() == 1 && rs.schema.num_columns() == 1 &&
      rs.schema.column(0).name == "rows_affected") {
    return static_cast<int>(rs.rows[0][0].as_int());
  }
  return static_cast<int>(rs.num_rows());
}

}  // namespace

Result<TempTable> FunctionContext::Query(const std::string& sql) {
  STRIP_ASSIGN_OR_RETURN(PreparedStatementPtr ps, db_.Prepare(sql));
  return ps->Query(&txn_, {}, &task_);
}

Result<TempTable> FunctionContext::Query(const SelectStmt& stmt,
                                         const std::vector<Value>* params) {
  return db_.Query(&txn_, stmt, &task_, params);
}

Result<TempTable> FunctionContext::Query(PreparedStatement& stmt,
                                         const std::vector<Value>& params) {
  return stmt.Query(&txn_, params, &task_);
}

Result<int> FunctionContext::Exec(const std::string& sql) {
  STRIP_ASSIGN_OR_RETURN(PreparedStatementPtr ps, db_.Prepare(sql));
  STRIP_ASSIGN_OR_RETURN(ResultSet rs, ps->ExecuteInTxn(&txn_, {}, &task_));
  return AffectedRowsOf(rs);
}

Result<int> FunctionContext::Exec(const Statement& stmt,
                                  const std::vector<Value>& params) {
  return db_.ExecuteDml(&txn_, stmt, params, &task_);
}

Result<int> FunctionContext::Exec(const Statement& stmt) {
  STRIP_ASSIGN_OR_RETURN(ResultSet rs,
                         db_.ExecuteStatement(&txn_, stmt, &task_));
  return AffectedRowsOf(rs);
}

Result<int> FunctionContext::Exec(PreparedStatement& stmt,
                                  const std::vector<Value>& params) {
  return stmt.ExecuteDml(&txn_, params, &task_);
}

Status FunctionRegistry::Register(const std::string& name, UserFunction fn) {
  std::string key = ToLower(name);
  if (funcs_.count(key) > 0) {
    return Status::AlreadyExists(
        StrFormat("user function '%s' already registered", key.c_str()));
  }
  funcs_.emplace(std::move(key), std::move(fn));
  return Status::OK();
}

const UserFunction* FunctionRegistry::Find(const std::string& name) const {
  auto it = funcs_.find(ToLower(name));
  return it == funcs_.end() ? nullptr : &it->second;
}

}  // namespace strip
