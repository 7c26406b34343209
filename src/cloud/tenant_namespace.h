// TenantNamespace — scopes one tenant's keys inside a shared bucket.
//
// A fleet of Ginja tenants shares one object store (one bucket, one
// price book, one TransferManager). Each tenant's WAL/CKPT/WALTAIL/meta
// objects live under a per-tenant prefix ("t/<id>/") so that CloudView
// rebuilds, GC sweeps, and recovery LISTs see exactly one tenant's
// objects and the flat `object_id.*` naming scheme keeps working
// unchanged: the prefix is added on the way out and stripped on the way
// back in, so WalObjectId::Decode() et al. never see it.
#pragma once

#include <string>
#include <string_view>

#include "cloud/object_store.h"

namespace ginja {

class TenantNamespace : public ObjectStore {
 public:
  // `prefix` is prepended verbatim to every key; use Prefix(tenant_id)
  // for the canonical "t/<id>/" layout.
  TenantNamespace(ObjectStorePtr inner, std::string prefix);

  // Canonical per-tenant key prefix: "t/<tenant_id>/".
  static std::string Prefix(std::string_view tenant_id);

  Status Put(std::string_view name, ByteView data) override;
  Result<Bytes> Get(std::string_view name) override;
  // Lists inner objects under prefix+`prefix` with the tenant prefix
  // stripped from every returned name. Objects of other tenants are
  // invisible by construction.
  Result<std::vector<ObjectMeta>> List(std::string_view prefix) override;
  // Cursor form: the prefix and a non-empty cursor are scoped, so a tenant's
  // incremental tail poll seeks within its own namespace only.
  Result<std::vector<ObjectMeta>> List(std::string_view prefix,
                                       std::string_view start_after) override;
  Status Delete(std::string_view name) override;

  // Streams stage under the namespaced hint (unique across tenants
  // sharing a backend) and Finish publishes under the namespaced name.
  Result<ObjectWriterPtr> BeginStreaming(std::string_view staging_hint) override;

  const std::string& prefix() const { return prefix_; }
  const ObjectStorePtr& inner() const { return inner_; }

 private:
  std::string Scoped(std::string_view name) const;

  ObjectStorePtr inner_;
  std::string prefix_;
};

}  // namespace ginja
