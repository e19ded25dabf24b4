#include "strip/storage/temp_table.h"

#include "strip/common/logging.h"
#include "strip/common/string_util.h"

namespace strip {

std::string ResultSet::ToString() const {
  std::string out;
  for (int i = 0; i < schema.num_columns(); ++i) {
    if (i > 0) out += "\t";
    out += schema.column(i).name;
  }
  out += "\n";
  for (const auto& row : rows) {
    for (size_t i = 0; i < row.size(); ++i) {
      if (i > 0) out += "\t";
      out += row[i].ToString();
    }
    out += "\n";
  }
  return out;
}

TempTable::TempTable(std::string name, Schema schema,
                     std::vector<TempColumnMap> map, int num_slots,
                     int num_extra)
    : name_(ToLower(name)),
      schema_(std::move(schema)),
      map_(std::move(map)),
      num_slots_(num_slots),
      num_extra_(num_extra) {
  STRIP_CHECK(static_cast<int>(map_.size()) == schema_.num_columns());
  for (const auto& m : map_) {
    if (m.materialized()) {
      STRIP_CHECK(m.offset >= 0 && m.offset < num_extra_);
    } else {
      STRIP_CHECK(m.slot >= 0 && m.slot < num_slots_);
      STRIP_CHECK(m.offset >= 0);
    }
  }
}

TempTable TempTable::Materialized(std::string name, Schema schema) {
  std::vector<TempColumnMap> map;
  map.reserve(static_cast<size_t>(schema.num_columns()));
  for (int i = 0; i < schema.num_columns(); ++i) {
    map.push_back(TempColumnMap{TempColumnMap::kMaterializedSlot, i});
  }
  int n = schema.num_columns();
  return TempTable(std::move(name), std::move(schema), std::move(map),
                   /*num_slots=*/0, /*num_extra=*/n);
}

void TempTable::Append(TempTuple t) {
  STRIP_CHECK(static_cast<int>(t.slots.size()) == num_slots_);
  STRIP_CHECK(static_cast<int>(t.extra.size()) == num_extra_);
  tuples_.push_back(std::move(t));
}

bool TempTable::SameLayout(const TempTable& other) const {
  return num_slots_ == other.num_slots_ && num_extra_ == other.num_extra_ &&
         map_ == other.map_ && schema_.Equals(other.schema_);
}

std::vector<Value> TempTable::MaterializeRow(size_t i) const {
  std::vector<Value> out;
  out.reserve(static_cast<size_t>(schema_.num_columns()));
  for (int c = 0; c < schema_.num_columns(); ++c) {
    out.push_back(Get(i, c));
  }
  return out;
}

ResultSet TempTable::Materialize() const {
  ResultSet rs;
  rs.schema = schema_;
  rs.rows.reserve(tuples_.size());
  for (size_t i = 0; i < tuples_.size(); ++i) {
    rs.rows.push_back(MaterializeRow(i));
  }
  return rs;
}

TempTable TempTable::Clone() const {
  TempTable out(name_, schema_, map_, num_slots_, num_extra_);
  out.tuples_ = tuples_;
  return out;
}

}  // namespace strip
