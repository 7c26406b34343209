#include "cloud/tenant_namespace.h"

#include <utility>

namespace ginja {

namespace {

// Finish() arrives with the tenant-relative name; republish it scoped.
class NamespacedWriter : public ObjectWriter {
 public:
  NamespacedWriter(ObjectWriterPtr inner, const std::string* prefix)
      : inner_(std::move(inner)), prefix_(prefix) {}

  Status AppendPart(std::uint32_t index, ByteView part) override {
    return inner_->AppendPart(index, part);
  }

  Status Finish(std::string_view name) override {
    return inner_->Finish(*prefix_ + std::string(name));
  }

  void Abort() override { inner_->Abort(); }

 private:
  ObjectWriterPtr inner_;
  const std::string* prefix_;  // owned by the TenantNamespace, which a
                               // writer never outlives (same store stack)
};

}  // namespace

TenantNamespace::TenantNamespace(ObjectStorePtr inner, std::string prefix)
    : inner_(std::move(inner)), prefix_(std::move(prefix)) {}

std::string TenantNamespace::Prefix(std::string_view tenant_id) {
  return "t/" + std::string(tenant_id) + "/";
}

std::string TenantNamespace::Scoped(std::string_view name) const {
  std::string scoped;
  scoped.reserve(prefix_.size() + name.size());
  scoped.append(prefix_);
  scoped.append(name);
  return scoped;
}

Status TenantNamespace::Put(std::string_view name, ByteView data) {
  return inner_->Put(Scoped(name), data);
}

Result<Bytes> TenantNamespace::Get(std::string_view name) {
  return inner_->Get(Scoped(name));
}

Result<std::vector<ObjectMeta>> TenantNamespace::List(std::string_view prefix) {
  return List(prefix, {});
}

Result<std::vector<ObjectMeta>> TenantNamespace::List(
    std::string_view prefix, std::string_view start_after) {
  // An empty cursor stays empty: scoped, it would become "t/<id>/" and
  // skip the tenant's object with the empty name.
  const std::string cursor =
      start_after.empty() ? std::string() : Scoped(start_after);
  auto inner = inner_->List(Scoped(prefix), cursor);
  if (!inner.ok()) return inner.status();
  std::vector<ObjectMeta> out;
  out.reserve(inner->size());
  for (auto& meta : *inner) {
    // Defensive: a backend could return keys outside the asked prefix;
    // never leak another tenant's (or an unscoped) name upward.
    if (meta.name.compare(0, prefix_.size(), prefix_) != 0) continue;
    out.push_back({meta.name.substr(prefix_.size()), meta.size});
  }
  return out;
}

Status TenantNamespace::Delete(std::string_view name) {
  return inner_->Delete(Scoped(name));
}

Result<ObjectWriterPtr> TenantNamespace::BeginStreaming(
    std::string_view staging_hint) {
  auto writer = inner_->BeginStreaming(Scoped(staging_hint));
  if (!writer.ok()) return writer.status();
  return ObjectWriterPtr(new NamespacedWriter(std::move(*writer), &prefix_));
}

}  // namespace ginja
