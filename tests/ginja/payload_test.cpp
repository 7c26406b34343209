// Tests for the entry payload codec: the scatter-gather view encoder must
// be byte-identical to the owned encoder, and DecodeEntries must reject
// truncation anywhere — including mid-varint (regression: the offset
// truncation check used to be unreachable).
#include <gtest/gtest.h>

#include "ginja/payload.h"

namespace ginja {
namespace {

std::vector<FileEntry> SampleEntries() {
  std::vector<FileEntry> entries;
  entries.push_back({"pg_xlog/000000010000000000000001", 16384,
                     Bytes(300, 0xAB)});
  entries.push_back({"base/16384/2611", 0, Bytes(8192, 0x01)});
  entries.push_back({"global/pg_control", 512, ToBytes("control-block")});
  entries.push_back({"empty_file", 0, Bytes{}});
  return entries;
}

TEST(Payload, ViewEncoderMatchesOwnedEncoder) {
  const auto entries = SampleEntries();
  Bytes framing;
  const PayloadView view = EncodeEntriesView(MakeEntryRefs(entries), framing);
  EXPECT_EQ(view.Flatten(), EncodeEntries(entries));
}

TEST(Payload, ViewEncoderEmptyList) {
  Bytes framing;
  const PayloadView view = EncodeEntriesView({}, framing);
  EXPECT_EQ(view.Flatten(), EncodeEntries({}));
  EXPECT_EQ(view.size(), 1u);  // just the count varint
}

TEST(Payload, ViewRoundTrip) {
  const auto entries = SampleEntries();
  Bytes framing;
  const PayloadView view = EncodeEntriesView(MakeEntryRefs(entries), framing);
  const Bytes payload = view.Flatten();  // the decoded refs view into it
  auto decoded = DecodeEntries(View(payload));
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->size(), entries.size());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ((*decoded)[i].path, entries[i].path);
    EXPECT_EQ((*decoded)[i].offset, entries[i].offset);
    EXPECT_EQ(Bytes((*decoded)[i].data.begin(), (*decoded)[i].data.end()),
              entries[i].data);
  }
}

// Regression: a payload cut mid-varint (inside the offset field) must be
// rejected, not mis-parsed. The old check for this case was dead code.
TEST(Payload, TruncatedMidVarintRejected) {
  std::vector<FileEntry> entries;
  // Offset large enough that its varint spans multiple bytes.
  entries.push_back({"f", 0x0FFF'FFFF'FFFFull, Bytes(4, 0x55)});
  const Bytes full = EncodeEntries(entries);

  // [count][path_len]["f"] is 3 bytes; the offset varint starts at 3 and is
  // several bytes long. Cut inside it.
  for (std::size_t keep = 3; keep < 3 + 6; ++keep) {
    auto decoded = DecodeEntries(ByteView(full.data(), keep));
    EXPECT_FALSE(decoded.ok()) << "keep=" << keep;
  }
}

TEST(Payload, TruncationRejectedAtEveryPrefix) {
  const auto entries = SampleEntries();
  const Bytes full = EncodeEntries(entries);
  for (std::size_t keep = 0; keep < full.size(); ++keep) {
    auto decoded = DecodeEntries(ByteView(full.data(), keep));
    // Some prefixes decode fewer entries only if the count matched; with a
    // fixed leading count every strict prefix must fail.
    EXPECT_FALSE(decoded.ok()) << "keep=" << keep;
  }
}

}  // namespace
}  // namespace ginja
