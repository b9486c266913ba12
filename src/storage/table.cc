#include "storage/table.h"

#include <algorithm>

#include "common/dcheck.h"

namespace trac {

Table::~Table() {
  for (auto& shelf : shelves_) {
    delete[] shelf.load(std::memory_order_relaxed);
  }
}

size_t Table::AppendVersion(Row row, uint64_t begin_version) {
  const size_t vidx = append_size_;
  TRAC_DCHECK(vidx == 0 || Locate(vidx - 1)->begin <= begin_version,
              "shelf log must be begin-monotonic: commit versions only "
              "grow, so a new version may never predate its predecessor");
  const size_t q = (vidx >> kBaseShelfBits) + 1;
  const size_t shelf = std::bit_width(q) - 1;
  if (shelves_[shelf].load(std::memory_order_relaxed) == nullptr) {
    // First version landing on this shelf: allocate it. The store may be
    // relaxed — readers cannot reach this shelf until published_size_
    // (released below) covers it.
    shelves_[shelf].store(new RowVersion[kBaseShelfSize << shelf],
                          std::memory_order_relaxed);
  }
  RowVersion* v = Locate(vidx);
  v->begin = begin_version;
  v->end.store(RowVersion::kOpenVersion, std::memory_order_relaxed);
  v->values = std::move(row);
  {
    ReaderMutexLock lock(&indexes_mu_);
    for (auto& [col, index] : indexes_) {
      index->Insert(v->values[col], vidx);
    }
  }
  append_size_ = vidx + 1;
  published_size_.store(append_size_, std::memory_order_release);
  return vidx;
}

size_t Table::CountVisible(Snapshot snap) const {
  size_t count = 0;
  Scan(snap, [&](size_t, const Row&) { ++count; });
  return count;
}

TimestampBounds Table::VisibleTimestampBounds(Snapshot snap, size_t column,
                                              size_t* rows_read) const {
  // Read after the caller took `snap`: every commit <= snap.version that
  // touched this table marked it before publishing, so epoch <= snap
  // proves no such commit lies in (epoch, snap].
  const uint64_t epoch = last_mutation_version();
  const bool cacheable = epoch <= snap.version;
  if (cacheable) {
    MutexLock lock(&range_memo_mu_);
    if (range_memo_.filled && range_memo_.column == column &&
        range_memo_.epoch == epoch) {
      if (rows_read != nullptr) *rows_read = 0;
      return range_memo_.bounds;
    }
  }
  TimestampBounds bounds;
  size_t rows = 0;
  Scan(snap, [&](size_t, const Row& row) {
    ++rows;
    const Value& v = row[column];
    if (v.is_null() || v.type() != TypeId::kTimestamp) return;
    const int64_t us = v.ts_val().micros();
    if (!bounds.known) {
      bounds = TimestampBounds{true, us, us};
      return;
    }
    bounds.lo = std::min(bounds.lo, us);
    bounds.hi = std::max(bounds.hi, us);
  });
  if (rows_read != nullptr) *rows_read = rows;
  if (cacheable) {
    MutexLock lock(&range_memo_mu_);
    // Epochs only grow: never let a slow scan replace a newer memo.
    if (!range_memo_.filled || range_memo_.column != column ||
        range_memo_.epoch <= epoch) {
      range_memo_ = RangeMemo{true, column, epoch, bounds};
    }
  }
  return bounds;
}

Status Table::CreateIndex(size_t column) {
  if (column >= schema_->num_columns()) {
    return Status::InvalidArgument("index column out of range for table '" +
                                   schema_->name() + "'");
  }
  {
    ReaderMutexLock lock(&indexes_mu_);
    if (indexes_.count(column) != 0) {
      return Status::AlreadyExists("index already exists on column '" +
                                   schema_->column(column).name + "'");
    }
  }
  // Back-fill off to the side: no registry lock held, so concurrent
  // GetIndex callers are never blocked behind the O(versions) build.
  // The Database write mutex keeps the version log frozen meanwhile.
  auto index = std::make_unique<OrderedIndex>(column);
  const size_t n = num_versions();
  for (size_t i = 0; i < n; ++i) {
    index->Insert(version(i).values[column], i);
  }
  WriterMutexLock lock(&indexes_mu_);
  if (!indexes_.emplace(column, std::move(index)).second) {
    return Status::AlreadyExists("index already exists on column '" +
                                 schema_->column(column).name + "'");
  }
  return Status::OK();
}

const OrderedIndex* Table::GetIndex(size_t column) const {
  ReaderMutexLock lock(&indexes_mu_);
  auto it = indexes_.find(column);
  return it == indexes_.end() ? nullptr : it->second.get();
}

std::vector<size_t> Table::IndexedColumns() const {
  ReaderMutexLock lock(&indexes_mu_);
  std::vector<size_t> columns;
  columns.reserve(indexes_.size());
  for (const auto& [column, index] : indexes_) columns.push_back(column);
  return columns;
}

}  // namespace trac
