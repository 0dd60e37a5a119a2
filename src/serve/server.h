// The single-model serving front end: a thin facade over a one-model Fleet
// (serve/fleet.h), which owns the queue, the flush rules, the workers, the
// fault drops and the trace export. Server keeps the one-model spelling --
// Server(engine, cfg, &stats), submit(r) -- and the load generators' Server
// overloads, which drive the fleet's one model.
#pragma once

#include <cstdint>

#include "metrics/serve_stats.h"
#include "serve/fleet.h"

namespace pf::serve {

// FleetConfig (workers, fault, trace_path) plus the one model's flush rules.
struct ServerConfig : FleetConfig {
  BatcherConfig batcher;
};

class Server {
 public:
  // `stats` may be null (no recording); it records from the first submit.
  // The engine must outlive the server and, for >1 worker, should be primed
  // before traffic arrives.
  Server(Engine& engine, const ServerConfig& cfg,
         metrics::ServeStats* stats = nullptr);

  void start() { fleet_.start(); }
  void stop() { fleet_.stop(); }  // idempotent: drain, join, export trace

  // Enqueue a request. Returns false when the admission policy rejects it
  // (bounded queue full, or server stopped); rejected requests' promises
  // are never fulfilled.
  bool submit(const RequestPtr& r) { return fleet_.submit(0, r); }

  // Workers actually running (post-clamp); 0 before start().
  int workers() const { return fleet_.workers(); }
  int64_t queue_depth() const { return fleet_.queue_depth(0); }
  Fleet& fleet() { return fleet_; }

 private:
  Fleet fleet_;
};

inline RequestPtr submit_with_retry(Server& server, const RequestFactory& make,
                                    uint64_t id, int max_attempts = 4) {
  return submit_with_retry(server.fleet(), 0, make, id, max_attempts);
}

inline int64_t run_closed_loop(Server& server, const RequestFactory& make,
                               const ClosedLoopConfig& cfg) {
  return run_closed_loop(server.fleet(), 0, make, cfg);
}

inline int64_t run_open_loop(Server& server, const RequestFactory& make,
                             const OpenLoopConfig& cfg) {
  return run_open_loop(server.fleet(), 0, make, cfg);
}

}  // namespace pf::serve
