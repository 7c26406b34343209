#include "fs/intercept_fs.h"

namespace ginja {

InterceptFs::InterceptFs(VfsPtr inner, std::shared_ptr<Clock> clock,
                         std::uint64_t per_op_overhead_us)
    : inner_(std::move(inner)),
      clock_(std::move(clock)),
      per_op_overhead_us_(per_op_overhead_us) {}

void InterceptFs::Overhead() {
  if (per_op_overhead_us_ > 0) clock_->SleepMicros(per_op_overhead_us_);
}

Status InterceptFs::Write(std::string_view path, std::uint64_t offset,
                          ByteView data, bool sync) {
  Overhead();
  Status st = inner_->Write(path, offset, data, sync);
  if (!st.ok()) return st;
  intercepted_writes_.Add();
  if (FileEventListener* l = listener_.load()) {
    FileEvent event;
    event.kind = FileEvent::Kind::kWrite;
    event.path = std::string(path);
    event.offset = offset;
    event.data.assign(data.begin(), data.end());
    event.sync = sync;
    l->OnFileEvent(event);  // may block: this is Ginja's Safety stall
  }
  return st;
}

Result<Bytes> InterceptFs::Read(std::string_view path, std::uint64_t offset,
                                std::uint64_t size) {
  Overhead();
  return inner_->Read(path, offset, size);
}

Result<Bytes> InterceptFs::ReadAll(std::string_view path) {
  Overhead();
  return inner_->ReadAll(path);
}

Status InterceptFs::ReadAllView(std::string_view path,
                                const std::function<Status(ByteView)>& fn) {
  Overhead();
  return inner_->ReadAllView(path, fn);
}

Result<std::uint64_t> InterceptFs::FileSize(std::string_view path) {
  return inner_->FileSize(path);
}

bool InterceptFs::Exists(std::string_view path) { return inner_->Exists(path); }

Status InterceptFs::Truncate(std::string_view path, std::uint64_t size) {
  Overhead();
  Status st = inner_->Truncate(path, size);
  if (!st.ok()) return st;
  if (FileEventListener* l = listener_.load()) {
    FileEvent event;
    event.kind = FileEvent::Kind::kTruncate;
    event.path = std::string(path);
    event.size = size;
    l->OnFileEvent(event);
  }
  return st;
}

Status InterceptFs::Remove(std::string_view path) {
  Overhead();
  Status st = inner_->Remove(path);
  if (!st.ok()) return st;
  if (FileEventListener* l = listener_.load()) {
    FileEvent event;
    event.kind = FileEvent::Kind::kRemove;
    event.path = std::string(path);
    l->OnFileEvent(event);
  }
  return st;
}

Result<std::vector<std::string>> InterceptFs::ListFiles(std::string_view prefix) {
  return inner_->ListFiles(prefix);
}

}  // namespace ginja
