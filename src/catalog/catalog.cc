#include "catalog/catalog.h"

#include <algorithm>

#include "common/str_util.h"

namespace trac {

Result<TableId> Catalog::CreateTable(TableSchema schema) {
  if (schema.name().empty()) {
    return Status::InvalidArgument("table name must be non-empty");
  }
  WriterMutexLock lock(&mu_);
  if (GetTableIdLocked(schema.name()).ok()) {
    return Status::AlreadyExists("table '" + schema.name() +
                                 "' already exists");
  }
  entries_.push_back(Entry{std::move(schema), /*live=*/true});
  live_ids_.emplace(ToLowerAscii(entries_.back().schema.name()),
                    entries_.size() - 1);
  // Session temp tables (sys_temp_*) are session-local state, not
  // durable structure: TRAC-V013 rejects any cache-admissible plan that
  // touches one, so their creation cannot change a cached result and
  // must not churn the epoch (a report session creates two per run).
  if (entries_.back().schema.name().rfind("sys_temp_", 0) != 0) BumpEpoch();
  return entries_.size() - 1;
}

Result<TableId> Catalog::GetTableIdLocked(std::string_view name) const {
  auto it = live_ids_.find(ToLowerAscii(name));
  if (it != live_ids_.end()) return it->second;
  return Status::NotFound("no table named '" + std::string(name) + "'");
}

Result<TableId> Catalog::GetTableId(std::string_view name) const {
  ReaderMutexLock lock(&mu_);
  return GetTableIdLocked(name);
}

Status Catalog::DropTable(std::string_view name) {
  WriterMutexLock lock(&mu_);
  TRAC_ASSIGN_OR_RETURN(TableId id, GetTableIdLocked(name));
  entries_[id].live = false;
  live_ids_.erase(ToLowerAscii(name));
  if (entries_[id].schema.name().rfind("sys_temp_", 0) != 0) BumpEpoch();
  return Status::OK();
}

std::vector<std::string> Catalog::TableNames() const {
  ReaderMutexLock lock(&mu_);
  std::vector<TableId> ids;
  ids.reserve(live_ids_.size());
  for (const auto& [name, id] : live_ids_) ids.push_back(id);
  std::sort(ids.begin(), ids.end());  // Ids are allocated in creation order.
  std::vector<std::string> names;
  names.reserve(ids.size());
  for (TableId id : ids) names.push_back(entries_[id].schema.name());
  return names;
}

}  // namespace trac
