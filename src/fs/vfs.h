// Virtual file system — the repo's stand-in for the kernel VFS + FUSE hop.
//
// The DBMS engine performs *all* of its file I/O through this interface.
// `InterceptFs` (intercept_fs.h) decorates any Vfs with the event hooks
// Ginja needs, exactly like the paper's FUSE-J layer sits between the DBMS
// and the local disk (Fig. 3). Paths are relative, '/'-separated (they name
// files inside the database directory, e.g. "pg_xlog/000000010000000000000003").
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"

namespace ginja {

class Vfs {
 public:
  virtual ~Vfs() = default;

  // Writes `data` at `offset`, extending the file as needed (creates the
  // file if missing). `sync` models write+fsync — a durable write; every
  // DBMS commit and control-file update uses sync=true.
  virtual Status Write(std::string_view path, std::uint64_t offset,
                       ByteView data, bool sync) = 0;

  // Reads up to `size` bytes at `offset`; short reads at EOF return fewer.
  virtual Result<Bytes> Read(std::string_view path, std::uint64_t offset,
                             std::uint64_t size) = 0;

  virtual Result<Bytes> ReadAll(std::string_view path) = 0;

  // Hands `fn` a view of the whole file and returns its status, or the
  // read error (NotFound for a missing file) without calling it. The view
  // lives only for the call, and `fn` must not call back into this Vfs.
  // The default reads a copy through ReadAll; a backend that holds its
  // files in memory passes its own bytes instead.
  virtual Status ReadAllView(std::string_view path,
                             const std::function<Status(ByteView)>& fn) {
    auto bytes = ReadAll(path);
    if (!bytes.ok()) return bytes.status();
    return fn(View(*bytes));
  }

  virtual Result<std::uint64_t> FileSize(std::string_view path) = 0;

  virtual bool Exists(std::string_view path) = 0;

  virtual Status Truncate(std::string_view path, std::uint64_t size) = 0;

  virtual Status Remove(std::string_view path) = 0;

  // All file paths, sorted, optionally restricted to a prefix.
  virtual Result<std::vector<std::string>> ListFiles(std::string_view prefix) = 0;
};

using VfsPtr = std::shared_ptr<Vfs>;

}  // namespace ginja
