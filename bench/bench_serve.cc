// Serving bench: Pufferfish's "smaller model at no extra cost" claim pushed
// through the whole serving stack (DESIGN.md §14).
//
//  1. Single-model SLO table: vanilla vs SVD-warm-started hybrid ResNet-18
//     through the batched server under identical closed-loop load (the
//     original Tables 4/14 restatement).
//  2. Quantization gate: post-training int8 on the hybrid must pass the
//     accuracy gate (eval-accuracy drop <= 0.5 points vs fp32).
//  3. Models-per-GB: resident density fp32/int8/bf16 (plan::serve_density)
//     and artifact/catalog density for delta-compressed tenant variants --
//     one shared base plus per-tenant low-rank deltas.
//  4. Fleet p99 under mixed traffic: three SLO classes served by one
//     weighted-EDF fleet under a diurnal/bursty trace; per-class p99 is
//     compared against each engine's single-model open-loop baseline.
//  5. [alloc] zero steady-state allocations for frozen engines.
//
// --smoke shrinks every knob for the CI target (pf_bench_serve_smoke);
// --json[=path] emits the machine-readable report.
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "core/factorize.h"
#include "nn/serialize.h"
#include "optim/optim.h"
#include "plan/serve_density.h"
#include "quant/delta.h"
#include "quant/qcheckpoint.h"
#include "quant/quantize.h"
#include "runtime/buffer_pool.h"
#include "runtime/thread_pool.h"
#include "serve/fleet.h"
#include "serve/server.h"

namespace {

using namespace bench;

constexpr int64_t kHw = 16;
constexpr int64_t kClasses = 10;
constexpr double kWidth = 0.25;

bool g_smoke = false;

// Minimal SGD loop (the serving bench needs the trained *module* back,
// which train_vision's result struct does not carry).
void fit(pf::nn::UnaryModule& model, const pf::data::SyntheticImages& ds,
         int epochs, float lr, int first_epoch = 0) {
  pf::optim::SGD opt(model.parameters(), lr, /*momentum=*/0.9f,
                     /*weight_decay=*/1e-4f);
  model.train(true);
  for (int e = 0; e < epochs; ++e) {
    for (const pf::data::ImageBatch& b :
         ds.train_batches(/*batch=*/32, first_epoch + e)) {
      model.zero_grad();
      pf::ag::Var logits = model.forward(pf::ag::leaf(b.images));
      pf::ag::Var loss = pf::ag::cross_entropy(logits, b.labels);
      pf::ag::backward(loss);
      opt.step();
    }
  }
  model.train(false);
}

std::unique_ptr<pf::nn::UnaryModule> build_resnet(double rank_ratio,
                                                  uint64_t seed) {
  pf::Rng r(seed);
  pf::models::ResNetCifarConfig c;
  c.width_mult = kWidth;
  c.num_classes = kClasses;
  if (rank_ratio > 0) {
    c.first_lowrank_block = 2;
    c.rank_ratio = rank_ratio;
  }
  return std::make_unique<pf::models::ResNet18Cifar>(c, r);
}

pf::serve::RequestFactory vision_requests(uint64_t salt) {
  return [salt](uint64_t id) {
    pf::Rng rng(0x9E3779B9u + salt * 0x10001u + id);
    return pf::serve::make_request(id, rng.randn(pf::Shape{3, kHw, kHw}));
  };
}

// Serve `engine` alone under saturating closed-loop load.
pf::metrics::ServeReport drive_closed(pf::serve::Engine& engine,
                                      double deadline_ms) {
  pf::serve::ServerConfig cfg;
  cfg.workers = 2;
  cfg.batcher.max_batch = 8;
  cfg.batcher.deadline_ms = deadline_ms;
  pf::metrics::ServeStats stats;
  stats.begin();
  pf::serve::Server server(engine, cfg, &stats);
  server.start();
  pf::serve::ClosedLoopConfig load;
  load.clients = g_smoke ? 3 : 6;
  load.requests_per_client = g_smoke ? 12 : 48;
  run_closed_loop(server, vision_requests(0), load);
  server.stop();
  return stats.report();
}

// Single-model open-loop baseline at the same rate the fleet will offer.
pf::metrics::ServeReport drive_solo_open(pf::serve::Engine& engine,
                                         double rate_rps, int total) {
  pf::serve::ServerConfig cfg;
  cfg.workers = 2;
  cfg.batcher.max_batch = 8;
  cfg.batcher.deadline_ms = 2.0;
  pf::metrics::ServeStats stats;
  stats.begin();
  pf::serve::Server server(engine, cfg, &stats);
  server.start();
  pf::serve::OpenLoopConfig load;
  load.rate_rps = rate_rps;
  load.total_requests = total;
  run_open_loop(server, vision_requests(1), load);
  server.stop();
  return stats.report();
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--smoke") == 0) g_smoke = true;
  std::string json_path;
  const bool want_json = JsonReport::wants_json(argc, argv, &json_path);
  JsonReport report;

  banner("Serving: quantized + delta-compressed engines and fleet SLOs",
         "Pufferfish Tables 4/14 (compute at no extra cost) extended to "
         "multi-model serving density",
         "synthetic CIFAR-like data, scaled ResNet-18, CPU load generators");
  pf::runtime::set_threads(4);

  const int64_t train_n = g_smoke ? 64 : 256, test_n = g_smoke ? 32 : 128;
  const int epochs = g_smoke ? 1 : 6, ft_epochs = g_smoke ? 1 : 2;
  pf::data::SyntheticImages ds = cifar_like(kClasses, kHw, train_n, test_n);
  auto eval_acc = [&ds](pf::nn::Module& m) {
    return pf::core::evaluate_vision(dynamic_cast<pf::nn::UnaryModule&>(m),
                                     ds, /*batch=*/32)
        .acc;
  };

  // ---- Train once: vanilla, then an SVD-warm-started hybrid. ----
  std::printf("training vanilla ResNet-18 (width %.2f) ...\n", kWidth);
  auto vanilla = build_resnet(0, 0);
  fit(*vanilla, ds, epochs, 0.05f);
  std::printf("warm-starting hybrid (rank ratio 0.25) + fine-tune ...\n");
  auto hybrid = build_resnet(0.25, 1);
  pf::Rng wr(1);
  pf::core::warm_start(*vanilla, *hybrid, wr);
  fit(*hybrid, ds, ft_epochs, 0.005f, epochs);

  const std::string base_ckpt = "/tmp/bench_serve_base.ckpt";
  const std::string hybrid_ckpt = "/tmp/bench_serve_hybrid.ckpt";
  pf::nn::save_checkpoint(*vanilla, base_ckpt);
  pf::nn::save_checkpoint(*hybrid, hybrid_ckpt);

  // ---- 1. Single-model SLO table (closed loop). ----
  std::printf("\n== single-model serving (closed loop, batch<=8, "
              "2 workers, deadline 2.0 ms) ==\n");
  struct Row {
    std::string name;
    int64_t params;
    double acc;
    pf::metrics::ServeReport rep;
  };
  std::vector<Row> rows;
  {
    auto mk_frozen = [&](double rr, const std::string& ckpt,
                         const std::string& name) {
      auto m = build_resnet(rr, 10 + static_cast<uint64_t>(rr * 8));
      auto f = std::make_unique<pf::serve::FrozenModel>(std::move(m), name,
                                                        ckpt);
      f->prime(pf::Shape{3, kHw, kHw}, 8);
      return f;
    };
    auto fv = mk_frozen(0, base_ckpt, "resnet18-vanilla");
    auto fh = mk_frozen(0.25, hybrid_ckpt, "resnet18-hybrid-r0.25");
    rows.push_back({"resnet18-vanilla", fv->num_params(), eval_acc(fv->module()),
                    drive_closed(*fv, 2.0)});
    rows.push_back({"resnet18-hybrid-r0.25", fh->num_params(),
                    eval_acc(fh->module()), drive_closed(*fh, 2.0)});
  }
  {
    pf::metrics::Table t({"model", "params", "test acc", "req/s", "p50(ms)",
                          "p95(ms)", "p99(ms)"});
    for (const Row& r : rows)
      t.add_row({r.name, pf::metrics::fmt_int(r.params),
                 pf::metrics::fmt(100 * r.acc, 2),
                 pf::metrics::fmt(r.rep.throughput_rps, 1),
                 pf::metrics::fmt(r.rep.p50_ms, 2),
                 pf::metrics::fmt(r.rep.p95_ms, 2),
                 pf::metrics::fmt(r.rep.p99_ms, 2)});
    t.print();
    std::printf("hybrid/vanilla throughput: %s\n",
                pf::metrics::fmt_ratio(rows[1].rep.throughput_rps /
                                       rows[0].rep.throughput_rps)
                    .c_str());
    report.section("single_model");
    report.kv("vanilla_rps", rows[0].rep.throughput_rps);
    report.kv("hybrid_rps", rows[1].rep.throughput_rps);
    report.kv("vanilla_acc", rows[0].acc);
    report.kv("hybrid_acc", rows[1].acc);
  }

  // ---- 2. Quantization accuracy gate (int8, eps = 0.5 points). ----
  std::printf("\n== int8 quantization gate (eps 0.5 acc points) ==\n");
  pf::quant::QuantSpec qspec;  // int8, per-output-row scales
  pf::quant::GateResult gate =
      pf::quant::quantize_if(*hybrid, qspec, /*eps=*/0.005, eval_acc);
  std::printf("  fp32 acc %.2f%% -> int8 acc %.2f%% (drop %.2f pts): %s\n",
              100 * gate.fp32_metric, 100 * gate.quant_metric,
              100 * (gate.fp32_metric - gate.quant_metric),
              gate.accepted ? "ACCEPTED" : "REJECTED (fp32 fallback)");
  std::printf("  serving bytes: fp32 %s -> int8 %s (%s)\n",
              pf::metrics::fmt_bytes(gate.bytes_fp32).c_str(),
              pf::metrics::fmt_bytes(gate.bytes_quant).c_str(),
              pf::metrics::fmt_ratio(static_cast<double>(gate.bytes_fp32) /
                                     static_cast<double>(gate.bytes_quant))
                  .c_str());
  report.section("quant_gate");
  report.kv("acc_fp32", gate.fp32_metric);
  report.kv("acc_int8", gate.quant_metric);
  report.kv("drop_points", 100 * (gate.fp32_metric - gate.quant_metric));
  report.kv("accepted", gate.accepted ? 1.0 : 0.0);
  report.kv("bytes_fp32", static_cast<double>(gate.bytes_fp32));
  report.kv("bytes_int8", static_cast<double>(gate.bytes_quant));
  if (gate.accepted) pf::quant::rollback(*hybrid);  // keep fp32 master copy

  // ---- 3. Models-per-GB: resident density + delta-variant catalog. ----
  std::printf("\n== models-per-GB ==\n");
  const pf::dist::HardwareProfile hw = pf::dist::HardwareProfile::cloud_10g();
  pf::plan::ServeDensity dens =
      pf::plan::serve_density("resnet18", kWidth, kClasses, 0.25, 2, hw);
  std::printf("  resident (%s, %s serve mem): %s\n", dens.model.c_str(),
              pf::metrics::fmt_bytes(hw.serve_mem_bytes).c_str(),
              dens.summary().c_str());

  // Per-tenant fine-tune of the shared base, shipped as a low-rank delta.
  std::printf("  fine-tuning a tenant variant of the base ...\n");
  auto tenant = build_resnet(0, 2);
  pf::nn::load_checkpoint(*tenant, base_ckpt);
  fit(*tenant, ds, /*epochs=*/1, 0.005f, /*first_epoch=*/epochs + 3);
  pf::quant::DeltaSpec dspec;
  dspec.energy = 0.9;
  dspec.max_rank = g_smoke ? 2 : 4;
  pf::quant::DeltaModel delta = pf::quant::compute_delta(*vanilla, *tenant,
                                                         dspec);
  const std::string delta_path = "/tmp/bench_serve_tenant.delta";
  const std::string int8_path = "/tmp/bench_serve_hybrid.q8";
  pf::quant::save_delta(delta, delta_path);
  {
    auto q = build_resnet(0.25, 3);
    pf::nn::load_checkpoint(*q, hybrid_ckpt);
    pf::quant::quantize_module(*q, qspec);
    pf::quant::commit(*q);
    pf::quant::save_quantized(*q, int8_path);
  }
  const int64_t fp32_art = pf::quant::file_bytes(base_ckpt);
  const int64_t int8_art = pf::quant::file_bytes(int8_path);
  const int64_t delta_art = pf::quant::file_bytes(delta_path);
  const double gb = static_cast<double>(1ll << 30);
  // Marginal density: what one MORE model of each format costs. Delta
  // variants share the base, so their marginal cost is just the delta.
  pf::metrics::Table t({"artifact", "bytes", "models/GB (marginal)",
                        "density vs fp32"});
  auto dens_row = [&](const std::string& name, int64_t bytes) {
    t.add_row({name, pf::metrics::fmt_bytes(bytes),
               pf::metrics::fmt(gb / static_cast<double>(bytes), 1),
               pf::metrics::fmt_ratio(static_cast<double>(fp32_art) /
                                      static_cast<double>(bytes))});
  };
  dens_row("fp32 checkpoint (v1)", fp32_art);
  dens_row("int8 quantized (v3)", int8_art);
  dens_row("delta variant (v2, shared base)", delta_art);
  t.print();
  const double delta_density = static_cast<double>(fp32_art) /
                               static_cast<double>(delta_art);
  std::printf("  delta-variant density vs fp32: %s (target >= 3x) -- "
              "%" PRId64 "-tensor delta, %" PRId64 " low-rank\n",
              pf::metrics::fmt_ratio(delta_density).c_str(),
              static_cast<int64_t>(delta.entries.size()),
              delta.lowrank_entries());
  report.section("models_per_gb");
  report.kv("fp32_artifact_bytes", static_cast<double>(fp32_art));
  report.kv("int8_artifact_bytes", static_cast<double>(int8_art));
  report.kv("delta_artifact_bytes", static_cast<double>(delta_art));
  report.kv("resident_fp32_per_gb", dens.fp32_per_gb);
  report.kv("resident_int8_per_gb", dens.int8_per_gb);
  report.kv("delta_density_vs_fp32", delta_density);

  // ---- 4. Fleet p99 under mixed diurnal/bursty traffic. ----
  std::printf("\n== fleet: 3 SLO classes, weighted-EDF, 2 workers ==\n");
  struct ClassDef {
    std::string name;
    pf::serve::SloClass slo;
    double rate;  // steady per-phase arrival rate (rps)
    pf::serve::EngineFactory factory;
  };
  auto base_factory = [&]() -> std::unique_ptr<pf::serve::Engine> {
    auto m = build_resnet(0, 20);
    auto f = std::make_unique<pf::serve::FrozenModel>(std::move(m),
                                                      "base-fp32", base_ckpt);
    f->prime(pf::Shape{3, kHw, kHw}, 8);
    return f;
  };
  auto hybrid_int8_factory = [&]() -> std::unique_ptr<pf::serve::Engine> {
    auto m = build_resnet(0.25, 21);
    pf::nn::load_checkpoint(*m, hybrid_ckpt);
    pf::quant::quantize_module(*m, qspec);
    pf::quant::commit(*m);
    auto f = std::make_unique<pf::serve::FrozenModel>(std::move(m),
                                                      "hybrid-int8", "");
    f->prime(pf::Shape{3, kHw, kHw}, 8);
    return f;
  };
  auto tenant_delta_factory = [&]() -> std::unique_ptr<pf::serve::Engine> {
    auto m = build_resnet(0, 22);
    pf::nn::load_checkpoint(*m, base_ckpt);
    pf::quant::apply_delta(*m, pf::quant::load_delta(delta_path));
    pf::quant::quantize_module(*m, qspec);
    pf::quant::commit(*m);
    auto f = std::make_unique<pf::serve::FrozenModel>(std::move(m),
                                                      "tenant-delta-int8", "");
    f->prime(pf::Shape{3, kHw, kHw}, 8);
    return f;
  };
  const double r0 = g_smoke ? 30 : 60;
  std::vector<ClassDef> classes;
  classes.push_back({"interactive", {25.0, 2.0}, r0, hybrid_int8_factory});
  classes.push_back({"standard", {50.0, 1.0}, r0 * 0.75, base_factory});
  classes.push_back({"batch", {200.0, 0.5}, r0 * 0.5, tenant_delta_factory});

  // Solo baselines: each engine alone on an identical 2-worker server at
  // the same average rate the fleet sees.
  std::vector<pf::metrics::ServeReport> solo;
  for (ClassDef& c : classes) {
    auto engine = c.factory();
    solo.push_back(drive_solo_open(*engine, c.rate,
                                   g_smoke ? 24 : 96));
  }

  // The fleet, under a diurnal/bursty trace with the same average rates:
  // ramp (half rate) -> peak (full rate) -> one tenant bursting to 2x while
  // the others trough -> cooldown.
  pf::metrics::FleetStats fstats;
  pf::serve::FleetConfig fcfg;
  fcfg.workers = 2;
  pf::serve::Fleet fleet(fcfg, &fstats);
  for (ClassDef& c : classes) {
    pf::serve::FleetModelConfig mc;
    mc.name = c.name;
    mc.factory = c.factory;
    mc.batcher.max_batch = 8;
    mc.batcher.deadline_ms = 2.0;
    mc.slo = c.slo;
    fstats.add_model(c.name);
    fleet.add_model(std::move(mc));
  }
  const double phase_s = g_smoke ? 0.2 : 0.5;
  pf::serve::TraceConfig trace;
  trace.phases = {
      {phase_s, {classes[0].rate / 2, classes[1].rate / 2, classes[2].rate / 2}},
      {phase_s, {classes[0].rate, classes[1].rate, classes[2].rate}},
      {phase_s, {classes[0].rate / 4, classes[1].rate / 4, classes[2].rate * 2}},
      {phase_s, {classes[0].rate, classes[1].rate, classes[2].rate / 2}},
  };
  // Warm fleet: materialize every engine up front so the p99 comparison
  // measures scheduling, not first-request engine construction (lazy
  // materialization itself is covered by fleet_test).
  for (size_t i = 0; i < classes.size(); ++i)
    fleet.materialize(static_cast<int>(i));
  fstats.begin();
  fleet.start();
  std::vector<pf::serve::RequestFactory> makers = {
      vision_requests(2), vision_requests(3), vision_requests(4)};
  std::vector<int64_t> completed =
      pf::serve::run_trace_open_loop(fleet, makers, trace);
  fleet.stop();
  pf::metrics::FleetReport frep = fstats.report();

  pf::metrics::Table ft({"class", "SLO(ms)", "weight", "done", "req/s",
                         "p99 solo(ms)", "p99 fleet(ms)", "SLO met"});
  bool any_regressed = false;
  report.section("fleet");
  for (size_t i = 0; i < classes.size(); ++i) {
    const pf::metrics::ServeReport& fr = frep.models[i];
    const bool solo_met = solo[i].p99_ms <= classes[i].slo.deadline_ms;
    const bool fleet_met = fr.p99_ms <= classes[i].slo.deadline_ms;
    const bool regressed = solo_met && !fleet_met;
    any_regressed = any_regressed || regressed;
    ft.add_row({classes[i].name,
                pf::metrics::fmt(classes[i].slo.deadline_ms, 0),
                pf::metrics::fmt(classes[i].slo.weight, 1),
                pf::metrics::fmt_int(completed[i]),
                pf::metrics::fmt(fr.throughput_rps, 1),
                pf::metrics::fmt(solo[i].p99_ms, 2),
                pf::metrics::fmt(fr.p99_ms, 2),
                fleet_met ? "yes" : (regressed ? "REGRESSED" : "no")});
    report.kv(classes[i].name + "_p99_solo_ms", solo[i].p99_ms);
    report.kv(classes[i].name + "_p99_fleet_ms", fr.p99_ms);
    report.kv(classes[i].name + "_completed",
              static_cast<double>(completed[i]));
  }
  ft.print();
  std::printf("  %s; fleet total: %s\n",
              any_regressed ? "SLO REGRESSION vs single-model baseline"
                            : "no SLO class regressed vs single-model "
                              "baseline",
              frep.total.summary().c_str());
  report.kv("any_regressed", any_regressed ? 1.0 : 0.0);

  // ---- 5. Zero-allocation steady state (the BufferPool contract). ----
  {
    auto m = build_resnet(0, 30);
    pf::serve::FrozenModel frozen(std::move(m), "steady");
    frozen.prime(pf::Shape{3, kHw, kHw}, 8);
    pf::Rng xr(4);
    pf::Tensor x = xr.randn(pf::Shape{8, 3, kHw, kHw});
    frozen.forward(x);
    pf::metrics::reset_alloc_stats(false);
    for (int i = 0; i < (g_smoke ? 8 : 32); ++i) frozen.forward(x);
    alloc_section_end("steady-state serving, batched forwards");
    const pf::metrics::AllocStats s = pf::metrics::alloc_stats();
    if (pf::runtime::BufferPool::instance().enabled())
      std::printf("  -> %s system allocations per request\n",
                  s.sys_allocs == 0 ? "ZERO" : "NONZERO (regression!)");
  }

  std::remove(base_ckpt.c_str());
  std::remove(hybrid_ckpt.c_str());
  std::remove(delta_path.c_str());
  std::remove(int8_path.c_str());
  if (want_json) report.emit("bench_serve", json_path);
  return 0;
}
