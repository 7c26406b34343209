// In-memory Vfs: deterministic, fast, and trivially "crashable" — tests
// simulate a machine crash by simply abandoning the engine object; the
// MemFs then holds exactly the bytes that were written before the crash.
#pragma once

#include <map>
#include <mutex>

#include "fs/vfs.h"

namespace ginja {

class MemFs : public Vfs {
 public:
  Status Write(std::string_view path, std::uint64_t offset, ByteView data,
               bool sync) override;
  Result<Bytes> Read(std::string_view path, std::uint64_t offset,
                     std::uint64_t size) override;
  Result<Bytes> ReadAll(std::string_view path) override;
  Status ReadAllView(std::string_view path,
                     const std::function<Status(ByteView)>& fn) override;
  Result<std::uint64_t> FileSize(std::string_view path) override;
  bool Exists(std::string_view path) override;
  Status Truncate(std::string_view path, std::uint64_t size) override;
  Status Remove(std::string_view path) override;
  Result<std::vector<std::string>> ListFiles(std::string_view prefix) override;

  // Deep copy, e.g. to snapshot pre-crash state in tests.
  std::shared_ptr<MemFs> Clone() const;

  std::uint64_t TotalBytes() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, Bytes, std::less<>> files_;
};

}  // namespace ginja
