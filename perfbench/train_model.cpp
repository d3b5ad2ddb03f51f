// perfbench_train — rebuilds the trained AE-SZ model the archive-aesz
// workload serves (perfbench/model/cesm_cldhgh_2d.bin).
//
//   perfbench_train --out PATH
//
// Trains the registry's 2-D AE-SZ configuration (model_zoo "CESM-CLDHGH":
// 32x32 blocks, latent 16, channels 8,16,32) for 30 epochs on earlier
// CESM-like timesteps than any the benchmark compresses (training uses
// timesteps 0..7 under a dedicated synth seed; benchmark inputs start at
// timestep 100 with the workload seed mixed in). Every random choice is seeded, so
// with OMP_NUM_THREADS=1 the written file is reproducible bit for bit.

#include <cstdio>
#include <vector>

#include "core/aesz.hpp"
#include "core/model_zoo.hpp"
#include "data/synth.hpp"
#include "util/cli.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  using namespace aesz;
  try {
    CliArgs args(argc, argv, {"out"});
    const std::string out = args.get("out", "");
    if (out.empty()) {
      std::fprintf(stderr, "usage: perfbench_train --out PATH\n");
      return 2;
    }
    constexpr std::uint64_t kTrainSeed = 9001;
    constexpr std::size_t kEpochs = 30;
    std::vector<Field> fields;
    for (int t = 0; t < 8; ++t)
      fields.push_back(synth::cesm_cldhgh(256, 512, t, kTrainSeed));
    std::vector<const Field*> ptrs;
    for (const Field& f : fields) ptrs.push_back(&f);

    AESZ codec(model_zoo::options_for("CESM-CLDHGH"), /*seed=*/1);
    TrainOptions topt;
    topt.epochs = kEpochs;
    topt.batch = 32;
    topt.lr = 2e-3f;
    topt.max_blocks = 768;
    Timer timer;
    const TrainReport rep = codec.train(ptrs, topt);
    codec.save_model(out);
    std::printf("trained %zu samples, %zu epochs, final loss %.6f, %.1f s -> %s\n",
                rep.samples, topt.epochs, rep.epoch_loss.back(),
                timer.seconds(), out.c_str());
    return 0;
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
