// Byte-level robustness of ModelSnapshot::Load (satellite of the semantic
// verifier): truncated, magic-corrupted, dimension-corrupted, and
// NaN-injected NMCDRSV1 files must be rejected with a descriptive error —
// never a crash, never NaN scores, never partial state.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>

#include <gtest/gtest.h>
#include <unistd.h>

#include "core/nmcdr_model.h"
#include "serving/model_snapshot.h"
#include "tests/test_util.h"

namespace nmcdr {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

/// One frozen snapshot plus its on-disk bytes, shared across the file's
/// tests (freezing once keeps the suite fast).
struct SnapshotFixture {
  std::unique_ptr<ExperimentData> data;
  ModelSnapshot snapshot;
  std::string bytes;  // the Save()d file, byte for byte
};

SnapshotFixture& Fixture() {
  static SnapshotFixture* fixture = [] {
    // NMCDR_LINT_ALLOW(naked-new): leaked on purpose — survives until the
    // last test and dodges static-destruction order.
    auto* f = new SnapshotFixture;
    f->data = testing_util::TinyData();
    NmcdrConfig config;
    config.hidden_dim = 8;
    NmcdrModel model(f->data->View(), config, 1, 5e-3f);
    testing_util::TrainLossTrend(&model, *f->data, 5);
    EXPECT_TRUE(
        ModelSnapshot::FreezePair(&model, f->data->scenario(), &f->snapshot));
    // One file per process: ctest runs each test of this binary as its own
    // process, in parallel, and a shared name lets one process truncate
    // the file while another reads it back.
    const std::string path = TempPath("snapshot_fixture_" +
                                      std::to_string(::getpid()) + ".nmcdr");
    EXPECT_TRUE(f->snapshot.Save(path));
    std::ifstream in(path, std::ios::binary);
    f->bytes.assign(std::istreambuf_iterator<char>(in),
                    std::istreambuf_iterator<char>());
    std::remove(path.c_str());
    EXPECT_GT(f->bytes.size(), 24u);
    return f;
  }();
  return *fixture;
}

/// Writes `bytes` to a fresh temp file and returns its path.
std::string WriteBytes(const std::string& name, const std::string& bytes) {
  const std::string path = TempPath(name);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  return path;
}

/// Byte offset of domain 0's user_reps `rows` field:
/// magic(8) + num_domains(4) + num_persons(4) + name length(4) + name.
size_t UserRepsRowsOffset() {
  return 8 + 4 + 4 + 4 + Fixture().snapshot.domain(0).name.size();
}

void PutU32(std::string* bytes, size_t offset, uint32_t value) {
  std::memcpy(bytes->data() + offset, &value, sizeof(value));
}

uint32_t GetU32(const std::string& bytes, size_t offset) {
  uint32_t value = 0;
  std::memcpy(&value, bytes.data() + offset, sizeof(value));
  return value;
}

TEST(SnapshotValidation, RoundTripLoadsCleanly) {
  const std::string path = WriteBytes("snap_roundtrip.nmcdr", Fixture().bytes);
  ModelSnapshot loaded;
  std::string error;
  ASSERT_TRUE(ModelSnapshot::Load(path, &loaded, &error)) << error;
  EXPECT_TRUE(error.empty());
  EXPECT_TRUE(loaded.Equals(Fixture().snapshot));
}

TEST(SnapshotValidation, MissingFileFailsWithReason) {
  ModelSnapshot loaded;
  std::string error;
  EXPECT_FALSE(
      ModelSnapshot::Load(TempPath("does_not_exist.nmcdr"), &loaded, &error));
  EXPECT_EQ(error, "cannot open file");
}

TEST(SnapshotValidation, CorruptMagicRejected) {
  std::string bytes = Fixture().bytes;
  bytes[0] = 'X';
  const std::string path = WriteBytes("snap_badmagic.nmcdr", bytes);
  ModelSnapshot loaded;
  std::string error;
  EXPECT_FALSE(ModelSnapshot::Load(path, &loaded, &error));
  EXPECT_EQ(error, "bad magic (not an NMCDRSV1 snapshot)");
}

TEST(SnapshotValidation, EveryTruncationPointFailsCleanly) {
  const std::string& good = Fixture().bytes;
  // Representative prefixes: empty, mid-magic, mid-header, mid-domain-0,
  // and a file missing only its tail (mid-domain-1).
  const size_t cuts[] = {0,  4,  10, UserRepsRowsOffset() + 6,
                         good.size() / 2, good.size() - 5};
  for (const size_t cut : cuts) {
    SCOPED_TRACE("truncated to " + std::to_string(cut) + " bytes");
    const std::string path =
        WriteBytes("snap_cut_" + std::to_string(cut) + ".nmcdr",
                   good.substr(0, cut));
    ModelSnapshot loaded;
    std::string error;
    EXPECT_FALSE(ModelSnapshot::Load(path, &loaded, &error));
    EXPECT_FALSE(error.empty());
    EXPECT_EQ(loaded.num_domains(), 0);  // no partial state
  }
}

TEST(SnapshotValidation, AbsurdDimensionFieldRejected) {
  std::string bytes = Fixture().bytes;
  PutU32(&bytes, UserRepsRowsOffset(), 0xFFFFFFFFu);
  const std::string path = WriteBytes("snap_absurd_dims.nmcdr", bytes);
  ModelSnapshot loaded;
  std::string error;
  EXPECT_FALSE(ModelSnapshot::Load(path, &loaded, &error));
  EXPECT_EQ(error, "truncated domain 0");
}

TEST(SnapshotValidation, InconsistentDimensionsRejectedWithExactDiff) {
  // Swap user_reps' rows/cols fields: the float payload size is unchanged,
  // so the stream stays aligned and the file parses — but the table no
  // longer matches item_reps, and Load must say exactly how.
  std::string bytes = Fixture().bytes;
  const size_t at = UserRepsRowsOffset();
  const uint32_t rows = GetU32(bytes, at);
  const uint32_t cols = GetU32(bytes, at + 4);
  ASSERT_NE(rows, cols);
  PutU32(&bytes, at, cols);
  PutU32(&bytes, at + 4, rows);
  const std::string path = WriteBytes("snap_swapped_dims.nmcdr", bytes);
  ModelSnapshot loaded;
  std::string error;
  EXPECT_FALSE(ModelSnapshot::Load(path, &loaded, &error));
  const std::string expected =
      "domain '" + Fixture().snapshot.domain(0).name + "': user_reps [" +
      std::to_string(cols) + "x" + std::to_string(rows) +
      "] and item_reps " + "[" +
      std::to_string(Fixture().snapshot.domain(0).frozen.item_reps.rows()) +
      "x" +
      std::to_string(Fixture().snapshot.domain(0).frozen.item_reps.cols()) +
      "] disagree on the representation dim";
  EXPECT_EQ(error, expected);
  EXPECT_EQ(loaded.num_domains(), 0);
}

TEST(SnapshotValidation, NanInjectionRejectedWithCoordinates) {
  std::string bytes = Fixture().bytes;
  const uint32_t quiet_nan = 0x7FC00000u;
  PutU32(&bytes, UserRepsRowsOffset() + 8, quiet_nan);  // first float
  const std::string path = WriteBytes("snap_nan.nmcdr", bytes);
  ModelSnapshot loaded;
  std::string error;
  EXPECT_FALSE(ModelSnapshot::Load(path, &loaded, &error));
  EXPECT_NE(error.find("non-finite value"), std::string::npos) << error;
  EXPECT_NE(error.find("user_reps(0,0)"), std::string::npos) << error;
}

TEST(SnapshotValidation, FailedLoadLeavesTargetUntouched) {
  // A target already holding a good snapshot must be unchanged when Load
  // rejects a file.
  const std::string good_path =
      WriteBytes("snap_keep_good.nmcdr", Fixture().bytes);
  ModelSnapshot target;
  ASSERT_TRUE(ModelSnapshot::Load(good_path, &target));
  std::string bytes = Fixture().bytes;
  bytes.resize(bytes.size() / 3);
  const std::string bad_path = WriteBytes("snap_keep_bad.nmcdr", bytes);
  std::string error;
  EXPECT_FALSE(ModelSnapshot::Load(bad_path, &target, &error));
  EXPECT_FALSE(error.empty());
  EXPECT_TRUE(target.Equals(Fixture().snapshot));
}

}  // namespace
}  // namespace nmcdr
