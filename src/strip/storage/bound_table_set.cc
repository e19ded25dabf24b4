#include "strip/storage/bound_table_set.h"

#include "strip/common/string_util.h"

namespace strip {

Status BoundTableSet::Add(TempTable table) {
  if (Find(table.name()) != nullptr) {
    return Status::AlreadyExists(StrFormat(
        "bound table '%s' already present", table.name().c_str()));
  }
  tables_.push_back(std::move(table));
  return Status::OK();
}

const TempTable* BoundTableSet::Find(const std::string& name) const {
  for (const auto& t : tables_) {
    if (EqualsIgnoreCase(t.name(), name)) return &t;
  }
  return nullptr;
}

TempTable* BoundTableSet::FindMutable(const std::string& name) {
  for (auto& t : tables_) {
    if (EqualsIgnoreCase(t.name(), name)) return &t;
  }
  return nullptr;
}

size_t BoundTableSet::TotalTuples() const {
  size_t n = 0;
  for (const auto& t : tables_) n += t.size();
  return n;
}

}  // namespace strip
