#include "strip/storage/index.h"

#include <algorithm>

namespace strip {

void HashIndex::Insert(const Value& key, RowHandle row) {
  map_[key].push_back(row);
  ++size_;
}

void HashIndex::Erase(const Value& key, RowHandle row) {
  auto it = map_.find(key);
  if (it == map_.end()) return;
  std::vector<RowHandle>& rows = it->second;
  auto pos = std::find(rows.begin(), rows.end(), row);
  if (pos == rows.end()) return;
  rows.erase(pos);
  --size_;
  if (rows.empty()) map_.erase(it);
}

void HashIndex::Lookup(const Value& key, std::vector<RowHandle>& out) const {
  auto it = map_.find(key);
  if (it == map_.end()) return;
  out.insert(out.end(), it->second.rbegin(), it->second.rend());
}

void RbTreeIndex::Insert(const Value& key, RowHandle row) {
  map_.Insert(key, row);
}

void RbTreeIndex::Erase(const Value& key, RowHandle row) {
  map_.Erase(key, row);
}

void RbTreeIndex::Lookup(const Value& key, std::vector<RowHandle>& out) const {
  map_.LookupEqual(key, out);
}

void RbTreeIndex::LookupRange(const Value& lo, const Value& hi,
                              std::vector<RowHandle>& out) const {
  map_.LookupRange(lo, hi, out);
}

std::unique_ptr<Index> CreateIndex(IndexKind kind, std::string name,
                                   int column) {
  if (kind == IndexKind::kHash) {
    return std::make_unique<HashIndex>(std::move(name), column);
  }
  return std::make_unique<RbTreeIndex>(std::move(name), column);
}

}  // namespace strip
