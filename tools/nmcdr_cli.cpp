// nmcdr_cli — command-line driver for the NMCDR pipeline.
//
// Subcommands:
//   list-models
//       Print every registered model name.
//   generate --scenario music-movie --scale small --out scenario.tsv
//       Generate a synthetic scenario preset and save it as TSV.
//   import --z loan.tsv --zbar fund.tsv --min-interactions 5 --out s.tsv
//       Join two real interaction logs (user<TAB>item[<TAB>rating]) into a
//       scenario on shared user keys.
//   run --scenario music-movie [--file s.tsv] --model NMCDR --ku 0.5
//       [--ds 1.0] [--dim 16] [--lr 0.002] [--steps 1200] [--seed 7]
//       [--no-fusion] [--gat] [--dynamic-companion]
//       [--save-checkpoint ckpt.bin] [--load-checkpoint ckpt.bin]
//       [--metrics-out metrics.json] [--profile]
//       Train and evaluate one model on one configuration; prints
//       HR@10 / NDCG@10 / MRR per domain. Training runs on the calling
//       thread on the vector tile cores (src/tensor/backend.h).
//       --no-fusion trains fully eager instead of compiling the
//       step into a graph program (src/program); fused and eager runs
//       are bitwise identical, so this is a debugging/benchmark switch
//       (NMCDR_FUSION=0 in the environment does the same).
//       --metrics-out PATH writes the observability dump
//       (schema NMCDR_OBS_V1, src/obs/export.h: trainer epoch spans,
//       per-op call counts, per-kernel call/FLOP table) after the run;
//       --profile also records per-op/per-kernel wall time.
//
// Examples:
//   nmcdr_cli run --scenario phone-elec --model NMCDR --ku 0.1
//   nmcdr_cli run --file my_scenario.tsv --model PTUPCDR --steps 2000

#include <cstdio>
#include <memory>

#include "autograd/serialization.h"
#include "core/nmcdr_model.h"
#include "data/importer.h"
#include "data/loader.h"
#include "obs/export.h"
#include "obs/obs.h"
#include "data/presets.h"
#include "train/registry.h"
#include "util/flags.h"
#include "util/table_printer.h"

namespace nmcdr {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: nmcdr_cli <list-models|generate|import|run> "
               "[--flags]\n(see the header of tools/nmcdr_cli.cpp)\n");
  return 2;
}

BenchScale ParseScale(const std::string& s) {
  if (s == "smoke") return BenchScale::kSmoke;
  if (s == "full") return BenchScale::kFull;
  return BenchScale::kSmall;
}

bool PresetByName(const std::string& name, BenchScale scale,
                  SyntheticScenarioSpec* spec) {
  for (const SyntheticScenarioSpec& candidate : AllScenarioSpecs(scale)) {
    std::string key = candidate.name;  // e.g. "Music-Movie"
    for (char& c : key) c = c == ' ' ? '-' : static_cast<char>(tolower(c));
    if (key == name) {
      *spec = candidate;
      return true;
    }
  }
  return false;
}

int CmdListModels() {
  RegisterAllModels();
  for (const std::string& name : ModelRegistry::Instance().Names()) {
    std::printf("%s\n", name.c_str());
  }
  return 0;
}

int CmdGenerate(const FlagParser& flags) {
  SyntheticScenarioSpec spec;
  const std::string scenario = flags.GetString("scenario", "music-movie");
  if (!PresetByName(scenario, ParseScale(flags.GetString("scale", "small")),
                    &spec)) {
    std::fprintf(stderr, "unknown scenario '%s'\n", scenario.c_str());
    return 2;
  }
  if (flags.Has("seed")) {
    spec.seed = static_cast<uint64_t>(flags.GetInt("seed", 17));
  }
  const CdrScenario generated = GenerateScenario(spec);
  const std::string out = flags.GetString("out", "scenario.tsv");
  if (!SaveScenario(generated, out)) return 1;
  std::printf("wrote %s\n  %s\n  %s\n  overlapping: %d\n", out.c_str(),
              DomainStatsString(generated.z).c_str(),
              DomainStatsString(generated.zbar).c_str(),
              generated.NumOverlapping());
  return 0;
}

int CmdImport(const FlagParser& flags) {
  ImportOptions options;
  options.min_user_interactions = flags.GetInt("min-interactions", 5);
  options.min_rating = flags.GetDouble("min-rating", 0.0);
  options.skip_header = flags.GetBool("skip-header", false);
  const std::string sep = flags.GetString("separator", "\t");
  if (!sep.empty()) options.separator = sep[0];

  ImportedDomain z, zbar;
  if (!ImportInteractions(flags.GetString("z"), options, &z) ||
      !ImportInteractions(flags.GetString("zbar"), options, &zbar)) {
    return 1;
  }
  const CdrScenario scenario =
      JoinDomains(flags.GetString("name", "imported"), z, zbar);
  const std::string out = flags.GetString("out", "scenario.tsv");
  if (!SaveScenario(scenario, out)) return 1;
  std::printf("wrote %s\n  %s\n  %s\n  overlapping: %d\n", out.c_str(),
              DomainStatsString(scenario.z).c_str(),
              DomainStatsString(scenario.zbar).c_str(),
              scenario.NumOverlapping());
  return 0;
}

int CmdRun(const FlagParser& flags) {
  RegisterAllModels();
  if (flags.GetBool("profile", false)) obs::SetProfilingEnabled(true);
  // 1. Scenario: preset or file.
  CdrScenario scenario;
  if (flags.Has("file")) {
    if (!LoadScenario(flags.GetString("file"), &scenario)) return 1;
  } else {
    SyntheticScenarioSpec spec;
    const std::string name = flags.GetString("scenario", "music-movie");
    if (!PresetByName(name, ParseScale(flags.GetString("scale", "small")),
                      &spec)) {
      std::fprintf(stderr, "unknown scenario '%s'\n", name.c_str());
      return 2;
    }
    scenario = GenerateScenario(spec);
  }
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 7));
  Rng rng(seed);
  if (flags.Has("ku")) {
    scenario = ApplyOverlapRatio(scenario, flags.GetDouble("ku", 0.5), &rng);
  }
  if (flags.Has("ds")) {
    scenario = ApplyDensity(scenario, flags.GetDouble("ds", 1.0),
                            /*min_per_user=*/3, &rng);
  }
  std::printf("scenario %s (K_u-visible overlap %d)\n  %s\n  %s\n",
              scenario.name.c_str(), scenario.NumOverlapping(),
              DomainStatsString(scenario.z).c_str(),
              DomainStatsString(scenario.zbar).c_str());
  ExperimentData data(std::move(scenario), seed);

  // 2. Model.
  const std::string model_name = flags.GetString("model", "NMCDR");
  CommonHyper hyper;
  hyper.embed_dim = flags.GetInt("dim", 16);
  hyper.seed = seed;
  TrainConfig train;
  train.learning_rate = static_cast<float>(flags.GetDouble("lr", 2e-3));
  train.min_total_steps = flags.GetInt("steps", 1200);
  train.batch_size = flags.GetInt("batch", 256);
  train.eval_every = -1;
  train.early_stop_patience = flags.GetInt("patience", 3);
  train.fusion = !flags.GetBool("no-fusion", false);
  train.verbose = flags.GetBool("verbose", false);

  std::unique_ptr<RecModel> model;
  if (model_name == "NMCDR" &&
      (flags.Has("gat") || flags.Has("dynamic-companion"))) {
    NmcdrConfig config;
    config.hidden_dim = hyper.embed_dim;
    if (flags.GetBool("gat", false)) config.gnn_kernel = GnnKernel::kGat;
    config.dynamic_companion_weights =
        flags.GetBool("dynamic-companion", false);
    model = std::make_unique<NmcdrModel>(data.View(), config, seed,
                                         train.learning_rate);
  } else {
    if (!ModelRegistry::Instance().Contains(model_name)) {
      std::fprintf(stderr, "unknown model '%s' (see list-models)\n",
                   model_name.c_str());
      return 2;
    }
    model = ModelRegistry::Instance().Get(model_name)(data.View(), hyper,
                                                      train.learning_rate);
  }
  if (flags.Has("load-checkpoint")) {
    if (!ag::LoadCheckpoint(flags.GetString("load-checkpoint"),
                            model->params())) {
      return 1;
    }
    model->InvalidateCaches();
    std::printf("loaded checkpoint %s\n",
                flags.GetString("load-checkpoint").c_str());
  }

  // 3. Train (skipped with --steps 0) and evaluate.
  if (train.min_total_steps > 0) {
    train.epochs = 1;
    Trainer trainer(data.View(), train, &data.full_graph_z(),
                    &data.full_graph_zbar());
    const TrainSummary summary = trainer.Train(model.get());
    std::printf("trained %s: %d epochs, %.1fs, final loss %.4f, %lld "
                "params\n",
                model->name().c_str(), summary.epochs_run,
                summary.train_seconds, summary.final_loss,
                static_cast<long long>(model->ParameterCount()));
  }
  EvalConfig eval;
  eval.k = flags.GetInt("k", 10);
  const ScenarioMetrics test = EvaluateScenario(
      model.get(), data.full_graph_z(), data.full_graph_zbar(),
      data.split_z(), data.split_zbar(), EvalPhase::kTest, eval);

  TablePrinter table;
  table.SetHeader({"Domain", "HR@" + std::to_string(eval.k),
                   "NDCG@" + std::to_string(eval.k), "MRR", "users"});
  table.AddRow({data.scenario().z.name, FormatFloat(test.z.hr * 100, 2),
                FormatFloat(test.z.ndcg * 100, 2),
                FormatFloat(test.z.mrr * 100, 2),
                std::to_string(test.z.num_users)});
  table.AddRow({data.scenario().zbar.name,
                FormatFloat(test.zbar.hr * 100, 2),
                FormatFloat(test.zbar.ndcg * 100, 2),
                FormatFloat(test.zbar.mrr * 100, 2),
                std::to_string(test.zbar.num_users)});
  std::printf("%s", table.ToString().c_str());

  if (flags.Has("save-checkpoint")) {
    const std::string path = flags.GetString("save-checkpoint");
    if (!ag::SaveCheckpoint(*model->params(), path)) return 1;
    std::printf("saved checkpoint %s\n", path.c_str());
  }
  if (flags.Has("metrics-out")) {
    const std::string path = flags.GetString("metrics-out");
    if (!obs::WriteJsonFile(path)) return 1;
    std::printf("wrote metrics dump to %s\n", path.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace nmcdr

int main(int argc, char** argv) {
  using namespace nmcdr;
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  FlagParser flags(argc - 1, argv + 1);
  if (command == "list-models") return CmdListModels();
  if (command == "generate") return CmdGenerate(flags);
  if (command == "import") return CmdImport(flags);
  if (command == "run") return CmdRun(flags);
  return Usage();
}
