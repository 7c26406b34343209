#include "fs/mem_fs.h"

#include <algorithm>

namespace ginja {

Status MemFs::Write(std::string_view path, std::uint64_t offset, ByteView data,
                    bool /*sync*/) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = files_.find(path);
  if (it == files_.end()) it = files_.emplace(std::string(path), Bytes{}).first;
  Bytes& file = it->second;
  // Only a hole before `offset` is zero-filled; the written range
  // overwrites what exists and appends the rest, so no byte is filled
  // and then immediately overwritten.
  if (file.size() < offset) file.resize(offset, 0);
  const std::size_t overlap =
      std::min<std::size_t>(file.size() - offset, data.size());
  std::copy(data.begin(), data.begin() + static_cast<long>(overlap),
            file.begin() + static_cast<long>(offset));
  file.insert(file.end(), data.begin() + static_cast<long>(overlap),
              data.end());
  return Status::Ok();
}

Result<Bytes> MemFs::Read(std::string_view path, std::uint64_t offset,
                          std::uint64_t size) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = files_.find(path);
  if (it == files_.end()) return Status::NotFound(std::string(path));
  const Bytes& file = it->second;
  if (offset >= file.size()) return Bytes{};
  const std::uint64_t n = std::min(size, file.size() - offset);
  return Bytes(file.begin() + static_cast<long>(offset),
               file.begin() + static_cast<long>(offset + n));
}

Result<Bytes> MemFs::ReadAll(std::string_view path) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = files_.find(path);
  if (it == files_.end()) return Status::NotFound(std::string(path));
  return it->second;
}

Status MemFs::ReadAllView(std::string_view path,
                          const std::function<Status(ByteView)>& fn) {
  // Under the lock: no writer can move the bytes while `fn` reads them.
  std::lock_guard<std::mutex> lock(mu_);
  auto it = files_.find(path);
  if (it == files_.end()) return Status::NotFound(std::string(path));
  return fn(View(it->second));
}

Result<std::uint64_t> MemFs::FileSize(std::string_view path) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = files_.find(path);
  if (it == files_.end()) return Status::NotFound(std::string(path));
  return static_cast<std::uint64_t>(it->second.size());
}

bool MemFs::Exists(std::string_view path) {
  std::lock_guard<std::mutex> lock(mu_);
  return files_.find(path) != files_.end();
}

Status MemFs::Truncate(std::string_view path, std::uint64_t size) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = files_.find(path);
  if (it == files_.end()) return Status::NotFound(std::string(path));
  it->second.resize(size, 0);
  return Status::Ok();
}

Status MemFs::Remove(std::string_view path) {
  std::lock_guard<std::mutex> lock(mu_);
  files_.erase(std::string(path));
  return Status::Ok();
}

Result<std::vector<std::string>> MemFs::ListFiles(std::string_view prefix) {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  for (auto it = files_.lower_bound(prefix); it != files_.end(); ++it) {
    if (it->first.compare(0, prefix.size(), prefix) != 0) break;
    out.push_back(it->first);
  }
  return out;
}

std::shared_ptr<MemFs> MemFs::Clone() const {
  std::lock_guard<std::mutex> lock(mu_);
  auto copy = std::make_shared<MemFs>();
  copy->files_ = files_;
  return copy;
}

std::uint64_t MemFs::TotalBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t total = 0;
  for (const auto& [path, data] : files_) total += data.size();
  return total;
}

}  // namespace ginja
