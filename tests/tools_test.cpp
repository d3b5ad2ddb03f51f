#include <gtest/gtest.h>

#include "core/model_zoo.hpp"
#include "data/synth.hpp"
#include "metrics/assessment.hpp"
#include "util/cli.hpp"

namespace aesz {
namespace {

// ---------------------------------------------------------------- CLI ----

CliArgs make_args(std::vector<std::string> argv,
                  std::vector<std::string> keys,
                  std::vector<std::string> flags = {},
                  std::vector<std::string> optional = {}) {
  std::vector<char*> raw;
  raw.push_back(const_cast<char*>("prog"));
  for (auto& a : argv) raw.push_back(a.data());
  return CliArgs(static_cast<int>(raw.size()), raw.data(), std::move(keys),
                 std::move(flags), std::move(optional));
}

TEST(Cli, ParsesKeyValuePairs) {
  auto args = make_args({"--eb", "1e-3", "--out", "x.bin", "input.f32"},
                        {"eb", "out"});
  EXPECT_DOUBLE_EQ(args.get_double("eb", 0), 1e-3);
  EXPECT_EQ(args.get("out", ""), "x.bin");
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "input.f32");
}

TEST(Cli, ParsesEqualsForm) {
  auto args = make_args({"--eb=0.5", "--dims=8x8"}, {"eb", "dims"});
  EXPECT_DOUBLE_EQ(args.get_double("eb", 0), 0.5);
  EXPECT_EQ(args.get("dims", ""), "8x8");
}

TEST(Cli, DefaultsWhenAbsent) {
  auto args = make_args({}, {"eb"});
  EXPECT_FALSE(args.has("eb"));
  EXPECT_DOUBLE_EQ(args.get_double("eb", 7.5), 7.5);
  EXPECT_EQ(args.get_long("eb", 3), 3);
}

TEST(Cli, UnknownFlagThrows) {
  EXPECT_THROW(make_args({"--nope", "1"}, {"eb"}), Error);
}

// An unknown key is reported as unknown even where it would otherwise
// swallow the next token as its value (or find none at the end).
TEST(Cli, TrailingUnknownFlagIsReportedAsUnknown) {
  try {
    make_args({"--port", "0", "--bogus"}, {"port"}, {"verify"}, {"once"});
    ADD_FAILURE() << "trailing --bogus accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("unknown option --bogus"),
              std::string::npos)
        << e.what();
  }
}

TEST(Cli, UnknownFlagBeforeAKnownFlagIsReportedAsUnknown) {
  try {
    make_args({"--bogus", "--verify"}, {"port"}, {"verify"});
    ADD_FAILURE() << "--bogus --verify accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("unknown option --bogus"),
              std::string::npos)
        << e.what();
  }
}

TEST(Cli, MissingValueThrows) {
  EXPECT_THROW(make_args({"--eb"}, {"eb"}), Error);
}

// Optional-value keys: aesz_server's --once grew a count but must keep
// accepting the bare pre-event-loop spelling (== "--once 1").
TEST(Cli, OptionalValueKeyTakesValueWhenGiven) {
  auto args = make_args({"--once", "3", "--port", "0"}, {"port"}, {},
                        {"once"});
  EXPECT_EQ(args.get_long("once", 0), 3);
  EXPECT_EQ(args.get_long("port", 9), 0);
}

TEST(Cli, OptionalValueKeyDefaultsToOneWhenBare) {
  auto trailing = make_args({"--port", "0", "--once"}, {"port"}, {},
                            {"once"});
  EXPECT_EQ(trailing.get_long("once", 0), 1);
  auto mid = make_args({"--once", "--port", "0"}, {"port"}, {}, {"once"});
  EXPECT_EQ(mid.get_long("once", 0), 1);
  EXPECT_EQ(mid.get_long("port", 9), 0);
  auto eq = make_args({"--once=5"}, {}, {}, {"once"});
  EXPECT_EQ(eq.get_long("once", 0), 5);
}

// ----------------------------------------------------------- model zoo ---

TEST(ModelZoo, TableSixGeometry) {
  const auto cesm = model_zoo::config_for("CESM-CLDHGH");
  EXPECT_EQ(cesm.rank, 2);
  EXPECT_EQ(cesm.block, 32u);
  EXPECT_EQ(cesm.latent, 16u);
  const auto freqsh = model_zoo::config_for("CESM-FREQSH");
  EXPECT_EQ(freqsh.latent, 32u);
  const auto hu = model_zoo::config_for("Hurricane-U");
  EXPECT_EQ(hu.rank, 3);
  EXPECT_EQ(hu.block, 8u);
  EXPECT_EQ(hu.latent, 8u);
}

TEST(ModelZoo, PaperScaleChannels) {
  const auto cfg = model_zoo::config_for("CESM-CLDHGH", /*paper_scale=*/true);
  EXPECT_EQ(cfg.channels, (std::vector<std::size_t>{32, 64, 128, 256}));
  const auto nyx = model_zoo::config_for("NYX", true);
  EXPECT_EQ(nyx.channels, (std::vector<std::size_t>{32, 64, 128}));
}

TEST(ModelZoo, NyxFieldsShareOneRow) {
  const auto a = model_zoo::config_for("NYX-baryon_density");
  const auto b = model_zoo::config_for("NYX-temperature");
  EXPECT_EQ(a.block, b.block);
  EXPECT_EQ(a.latent, b.latent);
}

TEST(ModelZoo, UnknownFieldThrows) {
  EXPECT_THROW((void)model_zoo::config_for("no-such-field"), Error);
}

TEST(ModelZoo, ConfigsSatisfyBlockConstraint) {
  for (const auto& name : model_zoo::known_fields()) {
    for (bool paper : {false, true}) {
      const auto cfg = model_zoo::config_for(name, paper);
      EXPECT_GE(cfg.block, std::size_t{1} << cfg.channels.size())
          << name << " paper=" << paper;
    }
  }
}

TEST(ModelZoo, OptionsUsePaperDefaults) {
  const auto opt = model_zoo::options_for("RTM");
  EXPECT_DOUBLE_EQ(opt.latent_eb_factor, 0.1);
  EXPECT_EQ(opt.policy, AESZ::Policy::kAuto);
}

// ----------------------------------------------------------- assessment --

TEST(Assessment, PerfectReconstruction) {
  Field f = synth::cesm_freqsh(32, 48, 10);
  const auto a = metrics::assess(f, f);
  EXPECT_EQ(a.max_abs_err, 0.0);
  EXPECT_NEAR(a.pearson_correlation, 1.0, 1e-12);
  EXPECT_NEAR(a.ssim, 1.0, 1e-9);
  EXPECT_EQ(a.psnr, 999.0);
}

TEST(Assessment, UniformOffsetStatistics) {
  Field f = synth::cesm_freqsh(32, 48, 10);
  Field g = f;
  for (float& v : g.values()) v += 0.01f;
  const auto a = metrics::assess(f, g);
  EXPECT_NEAR(a.max_abs_err, 0.01, 1e-6);
  EXPECT_NEAR(a.mean_abs_err, 0.01, 1e-6);
  EXPECT_NEAR(a.pearson_correlation, 1.0, 1e-6);
  // (The error autocorrelation of a constant offset is dominated by float
  // rounding residue — not asserted here.)
}

TEST(Assessment, StructuredErrorHasHighAutocorrelation) {
  Field f(Dims(std::size_t{4096}), 0.0f);
  Field g = f;
  for (std::size_t i = 0; i < g.size(); ++i)
    g.at(i) = 0.01f * std::sin(0.01f * static_cast<float>(i));
  const auto a = metrics::assess(f, g);
  EXPECT_GT(a.error_autocorrelation, 0.9);
}

TEST(Assessment, WhiteNoiseErrorHasLowAutocorrelation) {
  Field f(Dims(64, 64), 0.0f);
  Field g = f;
  Rng rng(3);
  for (float& v : g.values()) v = 0.01f * rng.gaussianf();
  const auto a = metrics::assess(f, g);
  EXPECT_LT(std::abs(a.error_autocorrelation), 0.1);
}

TEST(Assessment, SsimPenalizesStructuralLoss) {
  Field f = synth::cesm_freqsh(64, 64, 10);
  // Blur: structural degradation at roughly constant energy.
  Field blurred = f;
  for (std::size_t i = 1; i + 1 < 64; ++i)
    for (std::size_t j = 1; j + 1 < 64; ++j)
      blurred.at2(i, j) =
          0.25f * (f.at2(i - 1, j) + f.at2(i + 1, j) + f.at2(i, j - 1) +
                   f.at2(i, j + 1));
  Field offset = f;
  for (float& v : offset.values()) v += 1e-4f;
  EXPECT_LT(metrics::ssim_2d(f, blurred), metrics::ssim_2d(f, offset));
}

TEST(Assessment, Ssim3dReportsZero) {
  Field f(Dims(8, 8, 8), 1.0f);
  const auto a = metrics::assess(f, f);
  EXPECT_EQ(a.ssim, 0.0);
}

TEST(Assessment, FormatContainsHeadlineNumbers) {
  Field f = synth::cesm_freqsh(32, 32, 10);
  Field g = f;
  g.at(0) += 0.5f;
  const auto s = metrics::format(metrics::assess(f, g));
  EXPECT_NE(s.find("PSNR"), std::string::npos);
  EXPECT_NE(s.find("SSIM"), std::string::npos);
}

}  // namespace
}  // namespace aesz
