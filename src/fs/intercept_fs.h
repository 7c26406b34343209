// InterceptFs — the repo's FUSE layer (paper Fig. 3, "FS Interpreter").
//
// Wraps an inner Vfs and, for every write/remove/truncate, (1) performs the
// operation locally, then (2) delivers a FileEvent to the registered
// listener. The listener — a Ginja database processor — may *block* inside
// the callback; that block is exactly how Ginja's Safety limit stalls the
// DBMS (the DBMS is stuck in its write syscall, paper Alg. 2 line 7).
//
// A per-operation overhead models the user-space FUSE hop. The paper
// measures FUSE alone at a 7% (PostgreSQL) / 12% (MySQL) throughput cost;
// the default overheads are chosen to land in that range for the simulated
// engine.
#pragma once

#include <atomic>
#include <functional>
#include <memory>

#include "common/clock.h"
#include "common/stats.h"
#include "fs/vfs.h"

namespace ginja {

struct FileEvent {
  enum class Kind { kWrite, kRemove, kTruncate };
  Kind kind = Kind::kWrite;
  std::string path;
  std::uint64_t offset = 0;
  Bytes data;        // write payload (empty for remove/truncate)
  std::uint64_t size = 0;  // new size for truncate
  bool sync = false; // write+fsync (the durability signal Table 1 keys on)
};

class FileEventListener {
 public:
  virtual ~FileEventListener() = default;
  // Called after the local operation succeeded. May block the caller.
  virtual void OnFileEvent(const FileEvent& event) = 0;
};

class InterceptFs : public Vfs {
 public:
  // `per_op_overhead_us` is added (as a clock sleep) to every intercepted
  // operation, modeling the kernel↔user-space FUSE round trip.
  InterceptFs(VfsPtr inner, std::shared_ptr<Clock> clock,
              std::uint64_t per_op_overhead_us = 0);

  void SetListener(FileEventListener* listener) { listener_ = listener; }

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

  Vfs& inner() { return *inner_; }
  const Counter& intercepted_writes() const { return intercepted_writes_; }

 private:
  void Overhead();

  VfsPtr inner_;
  std::shared_ptr<Clock> clock_;
  std::uint64_t per_op_overhead_us_;
  std::atomic<FileEventListener*> listener_{nullptr};
  Counter intercepted_writes_;
};

}  // namespace ginja
