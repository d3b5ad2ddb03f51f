// Table IX: autoencoder training time, AE-SZ's SWAE vs AE-A's FC model, on
// the same training split for the same number of epochs. Paper (hours on a
// V100): CESM 1.0 vs 1.5, RTM 3.4 vs 21.4, NYX 5.5 vs 4.7, Hurricane 2.4
// vs 2.5, EXAFEL 2.2 vs 3.5 — AE-SZ trains in similar or much less time.

#include <algorithm>
#include <array>
#include <vector>

#include "ae_baselines/ae_a.hpp"
#include "bench/common.hpp"

namespace {

using namespace aesz;

/// Training runs per dataset and model: one run cannot resolve a 20%
/// change, so each row reports the median and quartiles of five.
constexpr int kRuns = 5;

/// Quartiles (q1, median, q3) by the rule of Python's
/// statistics.quantiles(n=4), which perfbench/compare.py reports.
std::array<double, 3> quartiles(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() + 1;
  std::array<double, 3> q{};
  for (std::size_t i = 1; i <= 3; ++i) {
    const std::size_t j = std::clamp<std::size_t>(i * m / 4, 1, v.size() - 1);
    const double delta = static_cast<double>(i * m) / 4.0 - j;
    q[i - 1] = v[j - 1] + (v[j] - v[j - 1]) * delta;
  }
  return q;
}

void run_dataset(bench::SplitDataset ds, std::size_t batch) {
  std::vector<double> ae_sz, ae_a;
  for (int run = 0; run < kRuns; ++run) {
    // Fresh, identically seeded models: every run does the same work.
    AESZ::Options opt;
    opt.ae = ds.is3d ? bench::ae3d() : bench::ae2d();
    AESZ codec(opt, 67);
    AEA aea(AEA::Options{.window = 1024, .latent = 2}, 68);
    const TrainOptions topt = bench::train_opts(batch);
    ae_sz.push_back(codec.train(bench::ptrs(ds), topt).seconds);
    ae_a.push_back(aea.train(bench::ptrs(ds), topt).seconds);
  }
  const auto a = quartiles(ae_sz);
  const auto b = quartiles(ae_a);
  std::printf("%-14s %7.2f [%6.2f, %6.2f] %7.2f [%6.2f, %6.2f] %9.2fx\n",
              ds.name.c_str(), a[1], a[0], a[2], b[1], b[0], b[2],
              b[1] / std::max(a[1], 1e-9));
  std::fflush(stdout);
}

}  // namespace

int main() {
  bench::banner(
      "Table IX — AE training time, AE-SZ (SWAE) vs AE-A, same epochs",
      "paper Table IX (hours): CESM 1.0/1.5, RTM 3.4/21.4, NYX 5.5/4.7, "
      "Hurricane 2.4/2.5, EXAFEL 2.2/3.5");
  std::printf("\nseconds per training run, median [q1, q3] of %d runs\n",
              kRuns);
  std::printf("%-14s %24s %24s %10s\n", "dataset", "AE-SZ", "AE-A",
              "AE-A/AE-SZ");
  run_dataset(bench::ds_cesm_cldhgh(), 32);
  run_dataset(bench::ds_rtm(), 16);
  run_dataset(bench::ds_hurricane_u(), 16);
  std::printf("\n(same epochs and same training blocks; absolute seconds are "
              "CPU-scale, the paper reports V100 hours; the ratio is of the "
              "medians)\n");
  return 0;
}
