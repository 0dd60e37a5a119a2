#include "serve/server.h"

#include <memory>
#include <utility>

namespace pf::serve {

namespace {

// Forwards to an engine the caller owns; the fleet owns only this shim.
class BorrowedEngine : public Engine {
 public:
  explicit BorrowedEngine(Engine& e) : e_(e) {}
  std::string name() const override { return e_.name(); }
  void forward_batch(const std::vector<RequestPtr>& reqs) override {
    e_.forward_batch(reqs);
  }

 private:
  Engine& e_;
};

}  // namespace

Server::Server(Engine& engine, const ServerConfig& cfg,
               metrics::ServeStats* stats)
    : fleet_(cfg) {
  FleetModelConfig m;
  m.name = engine.name();
  m.factory = [&engine] { return std::make_unique<BorrowedEngine>(engine); };
  m.batcher = cfg.batcher;
  fleet_.add_model(std::move(m), stats);
}

}  // namespace pf::serve
