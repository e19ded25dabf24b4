#ifndef STRIP_STORAGE_INDEX_H_
#define STRIP_STORAGE_INDEX_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "strip/storage/rbtree.h"
#include "strip/storage/page.h"
#include "strip/storage/value.h"

namespace strip {

/// STRIP tables can be indexed with either a hash or a red-black tree
/// structure (§6.1). Hash supports equality lookup; the tree additionally
/// supports ordered range scans.
enum class IndexKind {
  kHash,
  kRbTree,
};

/// Single-column secondary index over a table's rows. Not thread-safe;
/// serialized by the owning table's callers (the lock manager / executors).
class Index {
 public:
  virtual ~Index() = default;

  Index(std::string name, int column, IndexKind kind)
      : name_(std::move(name)), column_(column), kind_(kind) {}

  const std::string& name() const { return name_; }
  int column() const { return column_; }
  IndexKind kind() const { return kind_; }

  virtual void Insert(const Value& key, RowHandle row) = 0;
  virtual void Erase(const Value& key, RowHandle row) = 0;
  /// Appends all rows with key == `key` to `out`.
  virtual void Lookup(const Value& key, std::vector<RowHandle>& out) const = 0;
  virtual size_t size() const = 0;

 private:
  std::string name_;
  int column_;  // indexed column position in the table schema
  IndexKind kind_;
};

/// Hash index: O(1) expected equality lookup. Each key's rows sit in one
/// array, so a lookup costs one hash probe however many rows share the
/// key. Lookup returns a key's rows newest first.
class HashIndex final : public Index {
 public:
  HashIndex(std::string name, int column)
      : Index(std::move(name), column, IndexKind::kHash) {}

  void Insert(const Value& key, RowHandle row) override;
  void Erase(const Value& key, RowHandle row) override;
  void Lookup(const Value& key, std::vector<RowHandle>& out) const override;
  size_t size() const override { return size_; }

 private:
  std::unordered_map<Value, std::vector<RowHandle>, ValueHash> map_;
  size_t size_ = 0;  // rows indexed
};

/// Red-black-tree index (§6.1): ordered, supports range scans. Backed by
/// the from-scratch RbTreeMap.
class RbTreeIndex final : public Index {
 public:
  RbTreeIndex(std::string name, int column)
      : Index(std::move(name), column, IndexKind::kRbTree) {}

  void Insert(const Value& key, RowHandle row) override;
  void Erase(const Value& key, RowHandle row) override;
  void Lookup(const Value& key, std::vector<RowHandle>& out) const override;
  size_t size() const override { return map_.size(); }

  /// Appends rows with lo <= key <= hi, in key order.
  void LookupRange(const Value& lo, const Value& hi,
                   std::vector<RowHandle>& out) const;

  /// The underlying tree (invariant checks in tests).
  const RbTreeMap& tree() const { return map_; }

 private:
  RbTreeMap map_;
};

/// Factory for the requested index kind.
std::unique_ptr<Index> CreateIndex(IndexKind kind, std::string name,
                                   int column);

}  // namespace strip

#endif  // STRIP_STORAGE_INDEX_H_
