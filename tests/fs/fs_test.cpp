#include <gtest/gtest.h>

#include <filesystem>
#include <thread>

#include "fs/intercept_fs.h"
#include "fs/local_fs.h"
#include "fs/mem_fs.h"

namespace ginja {
namespace {

Bytes B(const char* s) { return ToBytes(s); }

class VfsConformance : public ::testing::TestWithParam<const char*> {
 protected:
  void SetUp() override {
    if (std::string(GetParam()) == "mem") {
      vfs_ = std::make_shared<MemFs>();
    } else if (std::string(GetParam()) == "intercept") {
      vfs_ = std::make_shared<InterceptFs>(std::make_shared<MemFs>(),
                                           std::make_shared<RealClock>());
    } else {
      dir_ = std::filesystem::temp_directory_path() /
             ("ginja_vfs_test_" + std::to_string(::getpid()));
      std::filesystem::remove_all(dir_);
      vfs_ = std::make_shared<LocalFs>(dir_);
    }
  }
  void TearDown() override {
    if (!dir_.empty()) std::filesystem::remove_all(dir_);
  }
  VfsPtr vfs_;
  std::filesystem::path dir_;
};

TEST_P(VfsConformance, WriteReadAtOffset) {
  ASSERT_TRUE(vfs_->Write("dir/file", 0, View(B("hello world")), true).ok());
  auto got = vfs_->Read("dir/file", 6, 5);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(ToString(View(*got)), "world");
}

TEST_P(VfsConformance, WriteBeyondEofZeroFills) {
  ASSERT_TRUE(vfs_->Write("f", 10, View(B("x")), false).ok());
  auto size = vfs_->FileSize("f");
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, 11u);
  auto hole = vfs_->Read("f", 0, 10);
  ASSERT_TRUE(hole.ok());
  EXPECT_EQ(*hole, Bytes(10, 0));
}

TEST_P(VfsConformance, OverwriteInPlace) {
  ASSERT_TRUE(vfs_->Write("f", 0, View(B("aaaa")), false).ok());
  ASSERT_TRUE(vfs_->Write("f", 1, View(B("bb")), false).ok());
  auto all = vfs_->ReadAll("f");
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(ToString(View(*all)), "abba");
}

TEST_P(VfsConformance, ReadPastEofIsShort) {
  ASSERT_TRUE(vfs_->Write("f", 0, View(B("abc")), false).ok());
  auto got = vfs_->Read("f", 2, 100);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(ToString(View(*got)), "c");
}

TEST_P(VfsConformance, MissingFileErrors) {
  EXPECT_FALSE(vfs_->ReadAll("missing").ok());
  EXPECT_FALSE(vfs_->FileSize("missing").ok());
  EXPECT_FALSE(vfs_->Exists("missing"));
}

TEST_P(VfsConformance, RemoveAndList) {
  ASSERT_TRUE(vfs_->Write("pg_xlog/0001", 0, View(B("w")), false).ok());
  ASSERT_TRUE(vfs_->Write("pg_xlog/0002", 0, View(B("w")), false).ok());
  ASSERT_TRUE(vfs_->Write("base/t1", 0, View(B("d")), false).ok());
  auto wal = vfs_->ListFiles("pg_xlog/");
  ASSERT_TRUE(wal.ok());
  EXPECT_EQ(wal->size(), 2u);
  ASSERT_TRUE(vfs_->Remove("pg_xlog/0001").ok());
  EXPECT_FALSE(vfs_->Exists("pg_xlog/0001"));
  auto all = vfs_->ListFiles("");
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->size(), 2u);
}

TEST_P(VfsConformance, Truncate) {
  ASSERT_TRUE(vfs_->Write("f", 0, View(B("abcdef")), false).ok());
  ASSERT_TRUE(vfs_->Truncate("f", 3).ok());
  auto all = vfs_->ReadAll("f");
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(ToString(View(*all)), "abc");
}

TEST_P(VfsConformance, ReadAllViewSeesCurrentBytes) {
  ASSERT_TRUE(vfs_->Write("f", 0, View(B("abcdef")), false).ok());
  ASSERT_TRUE(vfs_->Write("f", 2, View(B("XY")), false).ok());
  std::string seen;
  ASSERT_TRUE(vfs_->ReadAllView("f", [&](ByteView file) {
                    seen = ToString(file);
                    return Status::Ok();
                  }).ok());
  EXPECT_EQ(seen, "abXYef");
  // The callback's status is the call's status.
  EXPECT_EQ(vfs_->ReadAllView("f", [](ByteView) {
                  return Status::Corruption("bad file");
                }).code(),
            ErrorCode::kCorruption);
}

TEST_P(VfsConformance, ReadAllViewOfMissingFileIsNotFound) {
  bool called = false;
  const Status st = vfs_->ReadAllView("missing", [&](ByteView) {
    called = true;
    return Status::Ok();
  });
  EXPECT_EQ(st.code(), ErrorCode::kNotFound);
  EXPECT_FALSE(called);
}

INSTANTIATE_TEST_SUITE_P(Backends, VfsConformance,
                         ::testing::Values("mem", "local", "intercept"));

TEST(MemFs, CloneIsDeepCopy) {
  auto fs = std::make_shared<MemFs>();
  ASSERT_TRUE(fs->Write("f", 0, View(B("v1")), false).ok());
  auto clone = fs->Clone();
  ASSERT_TRUE(fs->Write("f", 0, View(B("v2")), false).ok());
  EXPECT_EQ(ToString(View(*clone->ReadAll("f"))), "v1");
}

// -- InterceptFs -----------------------------------------------------------------

class RecordingListener : public FileEventListener {
 public:
  void OnFileEvent(const FileEvent& event) override {
    std::lock_guard<std::mutex> lock(mu_);
    events_.push_back(event);
  }
  std::vector<FileEvent> Events() const {
    std::lock_guard<std::mutex> lock(mu_);
    return events_;
  }

 private:
  mutable std::mutex mu_;
  std::vector<FileEvent> events_;
};

TEST(InterceptFs, DeliversWriteEventsAfterLocalWrite) {
  auto inner = std::make_shared<MemFs>();
  auto clock = std::make_shared<RealClock>();
  InterceptFs fs(inner, clock);
  RecordingListener listener;
  fs.SetListener(&listener);

  ASSERT_TRUE(fs.Write("pg_xlog/0001", 8192, View(B("page")), true).ok());
  auto events = listener.Events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].path, "pg_xlog/0001");
  EXPECT_EQ(events[0].offset, 8192u);
  EXPECT_TRUE(events[0].sync);
  EXPECT_EQ(events[0].data, B("page"));
  // The local write happened before the event fired.
  EXPECT_TRUE(inner->Exists("pg_xlog/0001"));
}

TEST(InterceptFs, NoListenerNoCrash) {
  auto clock = std::make_shared<RealClock>();
  InterceptFs fs(std::make_shared<MemFs>(), clock);
  EXPECT_TRUE(fs.Write("f", 0, View(B("x")), false).ok());
  EXPECT_EQ(fs.intercepted_writes().Get(), 1u);
}

TEST(InterceptFs, RemoveAndTruncateEvents) {
  auto clock = std::make_shared<RealClock>();
  InterceptFs fs(std::make_shared<MemFs>(), clock);
  RecordingListener listener;
  fs.SetListener(&listener);
  ASSERT_TRUE(fs.Write("f", 0, View(B("abc")), false).ok());
  ASSERT_TRUE(fs.Truncate("f", 1).ok());
  ASSERT_TRUE(fs.Remove("f").ok());
  auto events = listener.Events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[1].kind, FileEvent::Kind::kTruncate);
  EXPECT_EQ(events[1].size, 1u);
  EXPECT_EQ(events[2].kind, FileEvent::Kind::kRemove);
}

TEST(InterceptFs, ListenerBlockStallsWriter) {
  // The Safety mechanism: a blocking listener keeps the DBMS inside its
  // write call.
  class BlockingListener : public FileEventListener {
   public:
    void OnFileEvent(const FileEvent&) override {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] { return released_; });
    }
    void Release() {
      {
        std::lock_guard<std::mutex> lock(mu_);
        released_ = true;
      }
      cv_.notify_all();
    }

   private:
    std::mutex mu_;
    std::condition_variable cv_;
    bool released_ = false;
  };

  auto clock = std::make_shared<RealClock>();
  InterceptFs fs(std::make_shared<MemFs>(), clock);
  BlockingListener listener;
  fs.SetListener(&listener);

  std::atomic<bool> write_returned{false};
  std::thread writer([&] {
    ASSERT_TRUE(fs.Write("f", 0, View(B("x")), true).ok());
    write_returned = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(write_returned.load());
  listener.Release();
  writer.join();
  EXPECT_TRUE(write_returned.load());
}

// A MemFs that records the views its ReadAllView hands out and fails any
// ReadAll, so a caller that falls back to the copying default shows.
class ViewSpyFs : public MemFs {
 public:
  Result<Bytes> ReadAll(std::string_view) override {
    return Status::IoError("ReadAll called");
  }
  Status ReadAllView(std::string_view path,
                     const std::function<Status(ByteView)>& fn) override {
    ++views;
    return MemFs::ReadAllView(path, [&](ByteView file) {
      handed_out = file.data();
      return fn(file);
    });
  }
  int views = 0;
  const std::uint8_t* handed_out = nullptr;
};

TEST(InterceptFs, ForwardsReadAllViewToInner) {
  auto inner = std::make_shared<ViewSpyFs>();
  InterceptFs fs(inner, std::make_shared<RealClock>());
  ASSERT_TRUE(fs.Write("f", 0, View(B("payload")), false).ok());
  const std::uint8_t* seen = nullptr;
  std::string bytes;
  ASSERT_TRUE(fs.ReadAllView("f", [&](ByteView file) {
                  seen = file.data();
                  bytes = ToString(file);
                  return Status::Ok();
                }).ok());
  EXPECT_EQ(inner->views, 1);
  EXPECT_EQ(bytes, "payload");
  // The very bytes the inner Vfs handed out: no copy on the way.
  ASSERT_NE(seen, nullptr);
  EXPECT_EQ(seen, inner->handed_out);
}

TEST(InterceptFs, PerOpOverheadSleeps) {
  auto clock = std::make_shared<RealClock>();
  InterceptFs fs(std::make_shared<MemFs>(), clock, /*per_op_overhead_us=*/3000);
  const auto start = clock->NowMicros();
  ASSERT_TRUE(fs.Write("f", 0, View(B("x")), false).ok());
  EXPECT_GE(clock->NowMicros() - start, 2000u);
}

}  // namespace
}  // namespace ginja
