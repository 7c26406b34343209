#include "fs/mem_fs.h"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <mutex>
#include <new>
#include <utility>

// The sanitizers do not see mremap: the range it vacates keeps its old
// shadow, and a later mapping there would inherit it. Sanitized builds grow
// by map-copy-unmap instead, which they do see.
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
#define GINJA_MEMFS_COPY_GROWTH 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
#define GINJA_MEMFS_COPY_GROWTH 1
#endif
#endif

namespace ginja {

namespace {

std::size_t PageSize() {
  static const std::size_t page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  return page;
}

std::size_t RoundUpToPage(std::size_t n) {
  const std::size_t page = PageSize();
  return (n + page - 1) / page * page;
}

// Faulting fresh pages in one by one is most of what an append costs (a
// trap per 4 KiB page); a large append asks the kernel to populate its
// pages in one call instead. Older kernels reject the advice and the pages
// fault in as usual.
#ifndef MADV_POPULATE_WRITE
#define MADV_POPULATE_WRITE 23
#endif
constexpr std::size_t kPopulateMinBytes = 64 * 1024;

void* MapZeroed(std::size_t bytes) {
  void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  return p == MAP_FAILED ? nullptr : p;
}

}  // namespace

MemFs::File::~File() {
  if (data_ != nullptr) ::munmap(data_, capacity_);
}

MemFs::File::File(File&& other) noexcept
    : data_(std::exchange(other.data_, nullptr)),
      size_(std::exchange(other.size_, 0)),
      capacity_(std::exchange(other.capacity_, 0)) {}

MemFs::File& MemFs::File::operator=(File&& other) noexcept {
  if (this != &other) {
    if (data_ != nullptr) ::munmap(data_, capacity_);
    data_ = std::exchange(other.data_, nullptr);
    size_ = std::exchange(other.size_, 0);
    capacity_ = std::exchange(other.capacity_, 0);
  }
  return *this;
}

Status MemFs::File::Reserve(std::size_t bytes) {
  if (bytes <= capacity_) return Status::Ok();
  // Doubling keeps the number of remaps logarithmic; the reserved tail is
  // address space only until something is written there.
  const std::size_t capacity = std::max(RoundUpToPage(bytes), 2 * capacity_);
  void* grown = nullptr;
  if (data_ == nullptr) {
    grown = MapZeroed(capacity);
  } else {
#ifdef GINJA_MEMFS_COPY_GROWTH
    grown = MapZeroed(capacity);
    if (grown != nullptr) {
      std::memcpy(grown, data_, size_);
      ::munmap(data_, capacity_);
    }
#else
    grown = ::mremap(data_, capacity_, capacity, MREMAP_MAYMOVE);
    if (grown == MAP_FAILED) grown = nullptr;
#endif
  }
  if (grown == nullptr) {
    return Status::IoError(std::string("MemFs cannot map file bytes: ") +
                           std::strerror(errno));
  }
  data_ = static_cast<std::uint8_t*>(grown);
  capacity_ = capacity;
  return Status::Ok();
}

Status MemFs::File::Write(std::uint64_t offset, ByteView data) {
  const std::size_t end =
      std::max<std::size_t>(size_, static_cast<std::size_t>(offset) + data.size());
  GINJA_RETURN_IF_ERROR(Reserve(end));
  // Pages past the old end that this write fills (not the hole before it).
  const std::size_t fresh = std::max(RoundUpToPage(size_),
                                     static_cast<std::size_t>(offset) / PageSize() * PageSize());
  if (end >= fresh + kPopulateMinBytes) {
    ::madvise(data_ + fresh, RoundUpToPage(end) - fresh, MADV_POPULATE_WRITE);
  }
  // A hole before `offset` is already zero.
  if (!data.empty()) std::memcpy(data_ + offset, data.data(), data.size());
  size_ = end;
  return Status::Ok();
}

Status MemFs::File::Resize(std::uint64_t size) {
  const auto n = static_cast<std::size_t>(size);
  if (n == size_) return Status::Ok();
  if (n < size_) {
    // Zero the cut bytes so a later regrowth reads zeros: the rest of the
    // last kept page by hand, whole pages by handing them back.
    const std::size_t kept = RoundUpToPage(n);
    std::memset(data_ + n, 0, std::min(kept, size_) - n);
    const std::size_t used = RoundUpToPage(size_);
    if (used > kept) ::madvise(data_ + kept, used - kept, MADV_DONTNEED);
    size_ = n;
    return Status::Ok();
  }
  GINJA_RETURN_IF_ERROR(Reserve(n));
  size_ = n;
  return Status::Ok();
}

Status MemFs::Write(std::string_view path, std::uint64_t offset, ByteView data,
                    bool /*sync*/) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  auto it = files_.find(path);
  if (it == files_.end()) it = files_.emplace(std::string(path), File{}).first;
  return it->second.Write(offset, data);
}

Result<Bytes> MemFs::Read(std::string_view path, std::uint64_t offset,
                          std::uint64_t size) {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = files_.find(path);
  if (it == files_.end()) return Status::NotFound(std::string(path));
  const ByteView file = it->second.view();
  if (offset >= file.size()) return Bytes{};
  const std::uint64_t n = std::min(size, file.size() - offset);
  return Bytes(file.begin() + static_cast<long>(offset),
               file.begin() + static_cast<long>(offset + n));
}

Result<Bytes> MemFs::ReadAll(std::string_view path) {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = files_.find(path);
  if (it == files_.end()) return Status::NotFound(std::string(path));
  const ByteView file = it->second.view();
  return Bytes(file.begin(), file.end());
}

Status MemFs::ReadAllView(std::string_view path,
                          const std::function<Status(ByteView)>& fn) {
  // Under the shared lock: no writer can move the bytes while `fn` reads
  // them, and other readers run beside it.
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = files_.find(path);
  if (it == files_.end()) return Status::NotFound(std::string(path));
  return fn(it->second.view());
}

Result<std::uint64_t> MemFs::FileSize(std::string_view path) {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = files_.find(path);
  if (it == files_.end()) return Status::NotFound(std::string(path));
  return static_cast<std::uint64_t>(it->second.size());
}

bool MemFs::Exists(std::string_view path) {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return files_.find(path) != files_.end();
}

Status MemFs::Truncate(std::string_view path, std::uint64_t size) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  auto it = files_.find(path);
  if (it == files_.end()) return Status::NotFound(std::string(path));
  return it->second.Resize(size);
}

Status MemFs::Remove(std::string_view path) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  files_.erase(std::string(path));
  return Status::Ok();
}

Result<std::vector<std::string>> MemFs::ListFiles(std::string_view prefix) {
  std::shared_lock<std::shared_mutex> lock(mu_);
  std::vector<std::string> out;
  for (auto it = files_.lower_bound(prefix); it != files_.end(); ++it) {
    if (it->first.compare(0, prefix.size(), prefix) != 0) break;
    out.push_back(it->first);
  }
  return out;
}

std::shared_ptr<MemFs> MemFs::Clone() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto copy = std::make_shared<MemFs>();
  for (const auto& [path, file] : files_) {
    File& twin = copy->files_.emplace(path, File{}).first->second;
    // A clone that cannot be mapped is out of memory, like a failed copy
    // of a vector would be.
    if (!twin.Write(0, file.view()).ok()) throw std::bad_alloc();
  }
  return copy;
}

std::uint64_t MemFs::TotalBytes() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  std::uint64_t total = 0;
  for (const auto& [path, file] : files_) total += file.size();
  return total;
}

}  // namespace ginja
