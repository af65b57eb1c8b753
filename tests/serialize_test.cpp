// Model persistence round-trips and hostile-input hardening.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <functional>
#include <iterator>
#include <sstream>

#include "common/artifact.h"
#include "common/error.h"
#include "gcn/serialize.h"
#include "gen/generator.h"

namespace gcnt {
namespace {

GcnConfig small_config() {
  GcnConfig config;
  config.depth = 2;
  config.embed_dims = {8, 12};
  config.fc_dims = {10};
  config.seed = 31;
  return config;
}

TEST(Serialize, RoundTripPreservesOutputs) {
  GeneratorConfig gen;
  gen.seed = 3;
  gen.target_gates = 120;
  const Netlist netlist = generate_circuit(gen);
  const GraphTensors tensors = build_graph_tensors(netlist);

  GcnModel model(small_config());
  std::stringstream buffer;
  save_model(model, buffer);
  GcnModel loaded = load_model(buffer);

  const Matrix a = model.infer(tensors);
  const Matrix b = loaded.infer(tensors);
  ASSERT_EQ(a.rows(), b.rows());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_FLOAT_EQ(a.data()[i], b.data()[i]);
  }
}

TEST(Serialize, ConfigRestored) {
  GcnModel model(small_config());
  std::stringstream buffer;
  save_model(model, buffer);
  const GcnModel loaded = load_model(buffer);
  EXPECT_EQ(loaded.config().depth, 2);
  EXPECT_EQ(loaded.config().embed_dims, (std::vector<std::size_t>{8, 12}));
  EXPECT_EQ(loaded.config().fc_dims, (std::vector<std::size_t>{10}));
  EXPECT_EQ(loaded.config().num_classes, 2u);
}

TEST(Serialize, BadMagicThrows) {
  std::stringstream buffer("not-a-model v1\n");
  EXPECT_THROW(load_model(buffer), std::runtime_error);
}

TEST(Serialize, TruncatedThrows) {
  GcnModel model(small_config());
  std::stringstream buffer;
  save_model(model, buffer);
  std::string text = buffer.str();
  text.resize(text.size() / 2);
  std::stringstream truncated(text);
  EXPECT_THROW(load_model(truncated), std::runtime_error);
}

TEST(Serialize, VersionMismatchThrows) {
  std::stringstream buffer("gcnt-model v9\ndepth 1\n");
  EXPECT_THROW(load_model(buffer), std::runtime_error);
}

TEST(Serialize, FileRoundTrip) {
  GcnModel model(small_config());
  const std::string path = "serialize_test_model.txt";
  save_model_file(model, path);
  const GcnModel loaded = load_model_file(path);
  EXPECT_EQ(loaded.config().depth, model.config().depth);
  std::remove(path.c_str());
}

TEST(Serialize, MissingFileThrows) {
  EXPECT_THROW(load_model_file("/nonexistent/path/model.txt"),
               std::runtime_error);
}

TEST(Serialize, MissingFileIsIoError) {
  try {
    load_model_file("/nonexistent/path/model.txt");
    FAIL() << "expected gcnt::Error";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kIo);
  }
}

// A model saved by a build that had the int8 tier: the v1 layout plus its
// quantized-weights section (depth 1, K_1 = 2, no hidden FC layers).
constexpr const char* kInt8V2Model =
    "gcnt-model v2\ndepth 1\nembed_dims 2\nfc_dims\nnum_classes 2\n"
    "aggregation 0 0 0.5 0.5\n"
    "param 1 1\n0.5\nparam 1 1\n0.5\n"
    "param 4 2\n0.1 -0.2 0.3 -0.4 0.5 -0.6 0.7 -0.8\nparam 1 2\n0 0\n"
    "param 2 2\n0.25 -0.25 0.5 -0.5\nparam 1 2\n0 0\n"
    "quant int8 2\n"
    "qlayer 4 2\n0.0062992126 0.0062992126\n16 48 79 111 -32 -64 -95 -127\n"
    "qlayer 2 2\n0.0039370079 0.0039370079\n64 127 -64 -127\n";

TEST(Serialize, VersionMismatchIsVersionError) {
  const std::string enveloped = "serialize_test_v2_envelope.txt";
  write_artifact_file(enveloped, "model", kInt8V2Model);
  const std::function<GcnModel()> loads[] = {
      [] {
        std::stringstream buffer("gcnt-model v9\ndepth 1\n");
        return load_model(buffer);
      },
      [] {
        std::stringstream buffer(kInt8V2Model);
        return load_model(buffer);
      },
      [&] { return load_model_file(enveloped); },
  };
  for (std::size_t i = 0; i < std::size(loads); ++i) {
    try {
      loads[i]();
      FAIL() << "expected gcnt::Error";
    } catch (const Error& e) {
      EXPECT_EQ(e.kind(), ErrorKind::kVersion) << e.what();
      EXPECT_EQ(exit_code_for(e.kind()), 65);
      // Only the v2 payloads are named as int8 models.
      const bool names_int8 =
          std::string(e.what()).find("int8 model") != std::string::npos;
      EXPECT_EQ(names_int8, i > 0) << e.what();
    }
  }
  std::remove(enveloped.c_str());

  // The v2 payload is rejected for its version, not for its shape:
  // relabelled v1, it loads (a v1 reader stops before the quant section).
  std::string v1 = kInt8V2Model;
  v1[12] = '1';
  std::stringstream buffer(v1);
  EXPECT_EQ(load_model(buffer).config().embed_dims,
            (std::vector<std::size_t>{2}));
}

/// Builds a syntactically valid header around hostile architecture
/// fields; every case must be rejected as kCorrupt *before* any model
/// allocation happens.
std::string hostile_header(const std::string& depth,
                           const std::string& embed_dims,
                           const std::string& fc_dims,
                           const std::string& num_classes) {
  return "gcnt-model v1\ndepth " + depth + "\nembed_dims " + embed_dims +
         "\nfc_dims " + fc_dims + "\nnum_classes " + num_classes +
         "\naggregation 0 0 0.5 0.5\n";
}

void expect_corrupt(const std::string& text) {
  std::istringstream in(text);
  try {
    load_model(in);
    FAIL() << "expected gcnt::Error for: " << text.substr(0, 80);
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kCorrupt);
  }
}

TEST(Serialize, HostileHeaderHugeDimensionRejected) {
  expect_corrupt(hostile_header("1", "999999999", "10", "2"));
}

TEST(Serialize, HostileHeaderZeroDimensionRejected) {
  expect_corrupt(hostile_header("1", "0", "10", "2"));
}

TEST(Serialize, HostileHeaderDepthBoundRejected) {
  std::string dims;
  for (int i = 0; i < 65; ++i) dims += "8 ";
  expect_corrupt(hostile_header("65", dims, "10", "2"));
}

TEST(Serialize, HostileHeaderLayerCountRejected) {
  std::string dims;
  for (int i = 0; i < 80; ++i) dims += "8 ";
  expect_corrupt(hostile_header("2", "8 8", dims, "2"));
}

TEST(Serialize, HostileHeaderClassCountRejected) {
  expect_corrupt(hostile_header("1", "8", "10", "99999"));
}

TEST(Serialize, HostileHeaderTotalParamCapRejected) {
  // Each dimension is individually legal (<= 16384) but the product
  // blows the total-parameter budget; the cap must catch it from the
  // header alone.
  expect_corrupt(hostile_header("2", "16384 16384", "16384", "2"));
}

TEST(Serialize, NonFiniteWeightRejected) {
  GcnModel model(small_config());
  std::stringstream buffer;
  save_model(model, buffer);
  std::string text = buffer.str();
  // Corrupt the first weight of the first param block.
  const std::size_t block = text.find("param ");
  ASSERT_NE(block, std::string::npos);
  const std::size_t value = text.find('\n', block) + 1;
  const std::size_t end = text.find(' ', value);
  text.replace(value, end - value, "inf");
  expect_corrupt(text);
}

TEST(Serialize, LegacyBareFileStillLoads) {
  // Pre-envelope files are bare save_model text; the loader must keep
  // reading them without the artifact header.
  GcnModel model(small_config());
  const std::string path = "serialize_test_legacy.txt";
  {
    std::ofstream out(path);
    save_model(model, out);
  }
  const GcnModel loaded = load_model_file(path);
  EXPECT_EQ(loaded.config().depth, model.config().depth);
  std::remove(path.c_str());
}

TEST(Serialize, SavedFileIsEnveloped) {
  GcnModel model(small_config());
  const std::string path = "serialize_test_envelope.txt";
  save_model_file(model, path);
  std::ifstream in(path);
  std::string magic;
  in >> magic;
  EXPECT_EQ(magic, "gcnt-artifact");
  std::remove(path.c_str());
}

TEST(Serialize, TamperedFileRejectedAsCorrupt) {
  GcnModel model(small_config());
  const std::string path = "serialize_test_tampered.txt";
  save_model_file(model, path);
  {
    std::fstream file(path, std::ios::in | std::ios::out);
    file.seekp(-10, std::ios::end);
    file.put('#');
  }
  try {
    load_model_file(path);
    FAIL() << "expected gcnt::Error";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kCorrupt);
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace gcnt
