#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <memory>
#include <unistd.h>

#include "core/model_io.h"
#include "data/synthetic.h"
#include "util/csv.h"

namespace selnet::core {
namespace {

using tensor::Matrix;

class ModelIoFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    data::SyntheticSpec spec;
    spec.n = 600;
    spec.dim = 6;
    db_ = std::make_unique<data::Database>(data::GenerateMixture(spec),
                                           data::Metric::kEuclidean);
    data::WorkloadSpec wspec;
    wspec.num_queries = 25;
    wspec.w = 6;
    wspec.max_sel_fraction = 0.2;
    wl_ = data::GenerateWorkload(*db_, wspec);
    ctx_.db = db_.get();
    ctx_.workload = &wl_;
    ctx_.epochs = 8;
    cfg_.input_dim = 6;
    cfg_.tmax = wl_.tmax;
    cfg_.num_control = 6;
    cfg_.latent_dim = 3;
    cfg_.ae_hidden = 16;
    cfg_.tau_hidden = 20;
    cfg_.p_hidden = 24;
    cfg_.embed_h = 5;
    cfg_.ae_pretrain_epochs = 2;
  }
  std::unique_ptr<data::Database> db_;
  data::Workload wl_;
  eval::TrainContext ctx_;
  SelNetConfig cfg_;
};

TEST_F(ModelIoFixture, SaveLoadRoundTripPredictionsIdentical) {
  SelNetCt model(cfg_);
  model.Fit(ctx_);
  std::string path = ::testing::TempDir() + "/model.selm";
  ASSERT_TRUE(SaveModel(model, path).ok());

  auto loaded = LoadModel(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  SelNetCt* restored = loaded.ValueOrDie().get();
  EXPECT_EQ(restored->config().num_control, cfg_.num_control);
  EXPECT_FLOAT_EQ(restored->config().tmax, cfg_.tmax);

  data::Batch b = data::MaterializeAll(wl_.queries, wl_.test);
  Matrix ya = model.Predict(b.x, b.t);
  Matrix yb = restored->Predict(b.x, b.t);
  for (size_t i = 0; i < ya.size(); ++i) {
    EXPECT_FLOAT_EQ(ya.data()[i], yb.data()[i]);
  }
  std::remove(path.c_str());
}

TEST_F(ModelIoFixture, LoadedModelIsConsistent) {
  SelNetCt model(cfg_);
  model.Fit(ctx_);
  std::string path = ::testing::TempDir() + "/model2.selm";
  ASSERT_TRUE(SaveModel(model, path).ok());
  auto loaded = LoadModel(path);
  ASSERT_TRUE(loaded.ok());
  SelNetCt* restored = loaded.ValueOrDie().get();
  Matrix x(20, 6), t(20, 1);
  for (size_t i = 0; i < 20; ++i) {
    std::copy(wl_.queries.row(0), wl_.queries.row(0) + 6, x.row(i));
    t(i, 0) = wl_.tmax * static_cast<float>(i) / 19.0f;
  }
  Matrix yhat = restored->Predict(x, t);
  for (size_t i = 1; i < 20; ++i) {
    EXPECT_GE(yhat(i, 0) + 1e-3f, yhat(i - 1, 0));
  }
  std::remove(path.c_str());
}

TEST_F(ModelIoFixture, MissingFileIsError) {
  auto loaded = LoadModel("/nonexistent/model.selm");
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), util::StatusCode::kIoError);
}

TEST_F(ModelIoFixture, CorruptMagicRejected) {
  std::string path = ::testing::TempDir() + "/corrupt.selm";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  std::fwrite("JUNKJUNK", 1, 8, f);
  std::fclose(f);
  auto loaded = LoadModel(path);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), util::StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST_F(ModelIoFixture, TruncatedFileRejected) {
  SelNetCt model(cfg_);
  std::string path = ::testing::TempDir() + "/trunc.selm";
  ASSERT_TRUE(SaveModel(model, path).ok());
  // Truncate to half size.
  std::FILE* f = std::fopen(path.c_str(), "rb");
  std::fseek(f, 0, SEEK_END);
  long size = std::ftell(f);
  std::fclose(f);
  ASSERT_EQ(truncate(path.c_str(), size / 2), 0);
  auto loaded = LoadModel(path);
  EXPECT_FALSE(loaded.ok());
  std::remove(path.c_str());
}

TEST_F(ModelIoFixture, FlippedParameterByteFailsWithOffset) {
  SelNetCt model(cfg_);
  std::string path = ::testing::TempDir() + "/flip.selm";
  ASSERT_TRUE(SaveModel(model, path).ok());
  // Flip one bit near the end of the file — inside the last parameter's
  // data or its CRC; either way the checksum check must localize it.
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, -6, SEEK_END), 0);
  int c = std::fgetc(f);
  ASSERT_NE(c, EOF);
  ASSERT_EQ(std::fseek(f, -1, SEEK_CUR), 0);
  std::fputc(c ^ 0x10, f);
  std::fclose(f);
  auto loaded = LoadModel(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), util::StatusCode::kIoError);
  EXPECT_NE(loaded.status().message().find("checksum mismatch"),
            std::string::npos)
      << loaded.status().ToString();
  EXPECT_NE(loaded.status().message().find("byte offset"), std::string::npos)
      << loaded.status().ToString();
  std::remove(path.c_str());
}

TEST_F(ModelIoFixture, ByteBufferRoundTripMatchesFileFormat) {
  SelNetCt model(cfg_);
  model.Fit(ctx_);
  auto bytes = SaveModelBytes(model);
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();

  // The in-memory encoding IS the file encoding, byte for byte — the state
  // transfer path cannot drift from what SaveModel persists.
  std::string path = ::testing::TempDir() + "/bytes.selm";
  ASSERT_TRUE(SaveModel(model, path).ok());
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string file_bytes(bytes.ValueOrDie().size() + 16, '\0');
  size_t n = std::fread(&file_bytes[0], 1, file_bytes.size(), f);
  std::fclose(f);
  file_bytes.resize(n);
  EXPECT_EQ(file_bytes, bytes.ValueOrDie());
  std::remove(path.c_str());

  auto restored = LoadModelBytes(bytes.ValueOrDie(), "unit test buffer");
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  data::Batch b = data::MaterializeAll(wl_.queries, wl_.test);
  Matrix ya = model.Predict(b.x, b.t);
  Matrix yb = restored.ValueOrDie()->Predict(b.x, b.t);
  for (size_t i = 0; i < ya.size(); ++i) {
    // Bit-identical, not just close: failover correctness rests on this.
    EXPECT_EQ(ya.data()[i], yb.data()[i]);
  }

  // Corrupt transfer bytes are rejected with the origin named.
  std::string corrupt = bytes.ValueOrDie();
  corrupt[corrupt.size() - 6] ^= 0x04;
  auto bad = LoadModelBytes(corrupt, "unit test buffer");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("unit test buffer"),
            std::string::npos)
      << bad.status().ToString();
}

TEST_F(ModelIoFixture, LoadedParamsAndAnswersAreBitIdentical) {
  // The loader shapes a model without drawing init weights, so every value
  // it serves must come from the bytes: compare each parameter bit for bit,
  // then both inference paths.
  SelNetCt model(cfg_);
  model.Fit(ctx_);
  auto bytes = SaveModelBytes(model);
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
  auto loaded = LoadModelBytes(bytes.ValueOrDie(), "unit test buffer");
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  SelNetCt* restored = loaded.ValueOrDie().get();

  std::vector<ag::Var> want = model.Params();
  std::vector<ag::Var> got = restored->Params();
  ASSERT_EQ(want.size(), got.size());
  for (size_t p = 0; p < want.size(); ++p) {
    ASSERT_EQ(want[p]->value.rows(), got[p]->value.rows()) << "param " << p;
    ASSERT_EQ(want[p]->value.cols(), got[p]->value.cols()) << "param " << p;
    EXPECT_EQ(std::memcmp(want[p]->value.data(), got[p]->value.data(),
                          want[p]->value.size() * sizeof(float)),
              0)
        << "param " << p;
  }

  data::Batch b = data::MaterializeAll(wl_.queries, wl_.test);
  Matrix ya = model.Predict(b.x, b.t);
  Matrix yb = restored->Predict(b.x, b.t);
  for (size_t i = 0; i < ya.size(); ++i) {
    EXPECT_EQ(ya.data()[i], yb.data()[i]) << "row " << i;
  }
  std::vector<float> ts;
  for (int k = 1; k <= 12; ++k) ts.push_back(cfg_.tmax * float(k) / 12.0f);
  for (size_t q = 0; q < wl_.queries.rows(); ++q) {
    std::vector<float> sa =
        model.SweepEstimate(wl_.queries.row(q), ts.data(), ts.size());
    std::vector<float> sb =
        restored->SweepEstimate(wl_.queries.row(q), ts.data(), ts.size());
    ASSERT_EQ(sa.size(), sb.size());
    for (size_t k = 0; k < sa.size(); ++k) {
      EXPECT_EQ(sa[k], sb[k]) << "query " << q << " threshold " << k;
    }
  }
}

TEST(CsvTest, EscapesSpecialCharacters) {
  EXPECT_EQ(util::CsvWriter::Escape("plain"), "plain");
  EXPECT_EQ(util::CsvWriter::Escape("a,b"), "\"a,b\"");
  EXPECT_EQ(util::CsvWriter::Escape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(util::CsvWriter::Escape("line\nbreak"), "\"line\nbreak\"");
}

TEST(CsvTest, RendersHeaderAndRows) {
  util::CsvWriter csv({"model", "mse"});
  csv.AddRow({"SelNet", "4.95"});
  csv.AddRow({"with,comma", "1"});
  std::string s = csv.ToString();
  EXPECT_EQ(s, "model,mse\nSelNet,4.95\n\"with,comma\",1\n");
}

TEST(CsvTest, WriteFileRoundTrip) {
  util::CsvWriter csv({"a"});
  csv.AddRow({"1"});
  std::string path = ::testing::TempDir() + "/out.csv";
  ASSERT_TRUE(csv.WriteFile(path).ok());
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  char buf[16] = {0};
  size_t n = std::fread(buf, 1, sizeof(buf) - 1, f);
  std::fclose(f);
  EXPECT_EQ(std::string(buf, n), "a\n1\n");
  std::remove(path.c_str());
}

TEST(CsvTest, WriteToBadPathIsIOError) {
  util::CsvWriter csv({"a"});
  EXPECT_EQ(csv.WriteFile("/no/such/dir/x.csv").code(),
            util::StatusCode::kIoError);
}

}  // namespace
}  // namespace selnet::core
