// Checks that the benchmark's probes measure the same program Ginja runs
// without them:
//   1. A fixed single-terminal history leaves a byte-identical bucket with
//      and without TimedListener/TimingStore in the stack.
//   2. With streaming_commit on, streamed WAL objects still reach the
//      store below MeteredStore as streams (BeginStreaming), not as the
//      base-class buffered Put, and the cursor LIST keeps its overload.
// Exits non-zero if any check fails. Run: python3 perfbench/run.py --selftest
#include <cstdio>
#include <thread>

#include "workloads.h"

using namespace ginja;
using namespace perfbench;

namespace {

// Sits between MeteredStore and the bucket and counts the entry points a
// decorator above could silently replace with base-class fallbacks.
class ProbeStore : public ObjectStore {
 public:
  explicit ProbeStore(ObjectStorePtr inner) : inner_(std::move(inner)) {}
  Status Put(std::string_view n, ByteView d) override { return inner_->Put(n, d); }
  Result<Bytes> Get(std::string_view n) override { return inner_->Get(n); }
  Result<std::vector<ObjectMeta>> List(std::string_view p) override {
    return inner_->List(p);
  }
  Result<std::vector<ObjectMeta>> List(std::string_view p,
                                       std::string_view after) override {
    if (!after.empty()) ++cursor_lists;  // a plain LIST arrives with an empty cursor
    return inner_->List(p, after);
  }
  Status Delete(std::string_view n) override { return inner_->Delete(n); }
  Result<ObjectWriterPtr> BeginStreaming(std::string_view hint) override {
    ++streams;
    return inner_->BeginStreaming(hint);
  }

  std::atomic<int> streams{0};
  std::atomic<int> cursor_lists{0};

 private:
  ObjectStorePtr inner_;
};

constexpr std::uint64_t kTxns = 1200;
constexpr std::uint64_t kCheckpointEvery = 400;

// A fixed single-terminal history: inline checkpoints that each wait for
// their upload, then a clean Stop().
Status RunHistory(Stack& stack) {
  SplitMix64 rng(7);
  for (std::uint64_t i = 1; i <= kTxns; ++i) {
    Status st = stack.tpcc->Execute(stack.tpcc->PickType(rng), rng);
    if (!st.ok() && st.code() != ErrorCode::kAborted) return st;
    if (i % kCheckpointEvery != 0) continue;
    const std::uint64_t uploaded = stack.CheckpointsUploaded();
    GINJA_RETURN_IF_ERROR(stack.db->Checkpoint());
    for (int w = 0; w < 10'000 && stack.CheckpointsUploaded() == uploaded; ++w) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  stack.ginja->Stop();
  return Status::Ok();
}

Result<std::string> HistoryDigest(bool probes) {
  Tracer tracer;
  StackOptions options;
  options.probes = probes;
  auto stack = BuildStack(options, tracer);
  if (!stack.ok()) return stack.status();
  GINJA_RETURN_IF_ERROR(RunHistory(**stack));
  return BucketDigest(*(*stack)->bucket);
}

bool Check(bool ok, const char* what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
  return ok;
}

}  // namespace

int main() {
  bool ok = true;

  auto plain = HistoryDigest(false);
  auto probed = HistoryDigest(true);
  ok &= Check(plain.ok() && probed.ok(), "history runs with and without probes");
  if (plain.ok() && probed.ok()) {
    std::printf("     digest without probes %s\n     digest with probes    %s\n",
                plain->c_str(), probed->c_str());
    ok &= Check(*plain == *probed, "probes leave the bucket byte-identical");
  }

  Tracer tracer;
  StackOptions options;
  options.config.streaming_commit = true;
  std::shared_ptr<ProbeStore> below;
  options.wrap_bucket = [&below](ObjectStorePtr bucket) {
    below = std::make_shared<ProbeStore>(std::move(bucket));
    return below;
  };
  auto stack = BuildStack(options, tracer);
  ok &= Check(stack.ok(), "streaming stack boots");
  if (stack.ok()) {
    Stack& s = **stack;
    const Status st = RunHistory(s);
    ok &= Check(st.ok(), "streaming history runs");
    const auto table = s.store->Take();
    const auto& parts = table[static_cast<int>(StoreOp::kPart)][static_cast<int>(ObjClass::kWal)];
    ok &= Check(s.ginja->commit_stats().streams_opened.Get() > 0, "Ginja opened streams");
    ok &= Check(below->streams.load() > 0,
                "streams reach the store below MeteredStore as streams");
    ok &= Check(parts.count > 0, "TimingStore timed the stream parts");
    ObjectStore& as_ginja_sees_it = *s.store;
    (void)as_ginja_sees_it.List("WAL/", "WAL/0");
    ok &= Check(below->cursor_lists.load() == 1, "cursor LIST keeps its overload");
  }
  return ok ? 0 : 1;
}
