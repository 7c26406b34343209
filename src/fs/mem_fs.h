// In-memory Vfs: deterministic, fast, and trivially "crashable" — tests
// simulate a machine crash by simply abandoning the engine object; the
// MemFs then holds exactly the bytes that were written before the crash.
//
// Each file is an anonymous memory mapping that grows with mremap, so a
// growing file's bytes are never copied (the kernel moves page-table
// entries, not pages), and pages nobody wrote cost no memory. Writers take
// the lock exclusively (growth may move the mapping's address); readers,
// views included, share it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <shared_mutex>

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
  // One file's bytes. Everything in [size, capacity) reads as zero, so a
  // write past the end leaves a zero hole without filling it.
  class File {
   public:
    File() = default;
    ~File();
    File(File&& other) noexcept;
    File& operator=(File&& other) noexcept;
    File(const File&) = delete;
    File& operator=(const File&) = delete;

    std::size_t size() const { return size_; }
    ByteView view() const { return ByteView(data_, size_); }
    Status Write(std::uint64_t offset, ByteView data);
    Status Resize(std::uint64_t size);

   private:
    Status Reserve(std::size_t bytes);

    std::uint8_t* data_ = nullptr;
    std::size_t size_ = 0;
    std::size_t capacity_ = 0;
  };

  mutable std::shared_mutex mu_;
  std::map<std::string, File, std::less<>> files_;
};

}  // namespace ginja
