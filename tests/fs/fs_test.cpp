#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <thread>
#include <vector>

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

// Bytes whose value depends on their offset, so a misplaced copy shows.
Bytes Pattern(std::uint64_t offset, std::size_t n) {
  Bytes out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::uint8_t>(((offset + i) * 31 + 7) >> 3);
  }
  return out;
}

TEST_P(VfsConformance, GrowthPastSeveralDoublingsKeepsEveryByte) {
  // Appends of odd sizes, small and large, grow the file from one byte to
  // megabytes: every byte must survive every growth.
  const std::size_t sizes[] = {1, 4095, 4097, 65536, 300001};
  std::uint64_t size = 0;
  for (int i = 0; size < 3 * 1024 * 1024; ++i) {
    const std::size_t n = sizes[i % 5];
    ASSERT_TRUE(vfs_->Write("f", size, View(Pattern(size, n)), false).ok());
    size += n;
  }
  auto all = vfs_->ReadAll("f");
  ASSERT_TRUE(all.ok());
  EXPECT_TRUE(*all == Pattern(0, size));
  auto middle = vfs_->Read("f", size / 3, 10000);
  ASSERT_TRUE(middle.ok());
  EXPECT_TRUE(*middle == Pattern(size / 3, 10000));
  // A write far past the end leaves a zero hole over several doublings.
  ASSERT_TRUE(vfs_->Write("f", 4 * size, View(B("z")), false).ok());
  auto hole = vfs_->Read("f", size, 3 * size);
  ASSERT_TRUE(hole.ok());
  EXPECT_TRUE(*hole == Bytes(3 * size, 0));
  ASSERT_TRUE(vfs_->ReadAllView("f", [&](ByteView file) {
                    EXPECT_EQ(file.size(), 4 * size + 1);
                    EXPECT_EQ(file.back(), 'z');
                    return Status::Ok();
                  }).ok());
}

TEST_P(VfsConformance, TruncateThenRegrowReadsZeros) {
  ASSERT_TRUE(vfs_->Write("f", 0, View(Bytes(100'000, 0xAB)), false).ok());
  ASSERT_TRUE(vfs_->Truncate("f", 5'000).ok());
  EXPECT_EQ(*vfs_->FileSize("f"), 5'000u);
  // Regrow by writing past the end: the cut bytes come back as zeros.
  ASSERT_TRUE(vfs_->Write("f", 90'000, View(B("x")), false).ok());
  auto all = vfs_->ReadAll("f");
  ASSERT_TRUE(all.ok());
  ASSERT_EQ(all->size(), 90'001u);
  EXPECT_TRUE(std::all_of(all->begin(), all->begin() + 5'000,
                          [](std::uint8_t b) { return b == 0xAB; }));
  EXPECT_TRUE(std::all_of(all->begin() + 5'000, all->begin() + 90'000,
                          [](std::uint8_t b) { return b == 0; }));
  // Regrow by truncating up: zeros again, past the old end too.
  ASSERT_TRUE(vfs_->Truncate("f", 10).ok());
  ASSERT_TRUE(vfs_->Truncate("f", 200'000).ok());
  all = vfs_->ReadAll("f");
  ASSERT_TRUE(all.ok());
  ASSERT_EQ(all->size(), 200'000u);
  EXPECT_TRUE(std::all_of(all->begin() + 10, all->end(),
                          [](std::uint8_t b) { return b == 0; }));
}

TEST_P(VfsConformance, ConcurrentViewReadersWhileAnotherFileIsWritten) {
  // Readers view one file while a writer grows another (remapping it many
  // times): every view sees the whole, unchanged file.
  const Bytes a = Pattern(0, 1 << 20);
  ASSERT_TRUE(vfs_->Write("a", 0, View(a), false).ok());
  std::atomic<int> bad_views{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      for (int i = 0; i < 30; ++i) {
        const Status st = vfs_->ReadAllView("a", [&](ByteView file) {
          if (!std::equal(file.begin(), file.end(), a.begin(), a.end())) ++bad_views;
          return Status::Ok();
        });
        if (!st.ok()) ++bad_views;
      }
    });
  }
  std::uint64_t size = 0;
  for (int i = 0; i < 48; ++i) {
    ASSERT_TRUE(vfs_->Write("b", size, View(Pattern(size, 65536)), false).ok());
    size += 65536;
  }
  for (auto& t : readers) t.join();
  EXPECT_EQ(bad_views.load(), 0);
  auto b = vfs_->ReadAll("b");
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(*b == Pattern(0, size));
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

TEST(MemFs, CloneStaysIndependentAsBothGrow) {
  auto fs = std::make_shared<MemFs>();
  ASSERT_TRUE(fs->Write("f", 0, View(Pattern(0, 10'000)), false).ok());
  auto clone = fs->Clone();
  // Each side grows and rewrites its copy past several doublings.
  ASSERT_TRUE(fs->Write("f", 10'000, View(Bytes(500'000, 'o')), false).ok());
  ASSERT_TRUE(clone->Write("f", 5'000, View(Bytes(200'000, 'c')), false).ok());
  ASSERT_TRUE(clone->Write("g", 0, View(B("new")), false).ok());
  ASSERT_TRUE(fs->Truncate("f", 20'000).ok());

  Bytes original = Pattern(0, 10'000);
  original.resize(20'000, 'o');
  EXPECT_TRUE(*fs->ReadAll("f") == original);
  EXPECT_FALSE(fs->Exists("g"));
  Bytes copy = Pattern(0, 5'000);
  copy.resize(205'000, 'c');
  EXPECT_TRUE(*clone->ReadAll("f") == copy);
  EXPECT_EQ(fs->TotalBytes(), 20'000u);
  EXPECT_EQ(clone->TotalBytes(), 205'003u);
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
