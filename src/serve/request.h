// One serving request, and the dynamic-batching flush rules of the per-model
// queue it waits in (serve::Fleet owns the queues; see serve/fleet.h).
//
// Pufferfish's serving win is a *compute* win, and compute is only cheap in
// batches. BatcherConfig sets the standard dynamic-batching contract:
//  * flush on FULLNESS: max_batch queued requests flush immediately;
//  * flush on DEADLINE: otherwise the batch closes when the *oldest* queued
//    request has waited deadline_ms, so a straggler never waits longer for
//    peers that may never arrive (deadline_ms = 0 is greedy: take whatever
//    is there);
//  * BACKPRESSURE: submissions beyond max_depth are rejected at admission
//    (load shedding) instead of growing a queue with unbounded tail latency.
#pragma once

#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <vector>

#include "tensor/tensor.h"

namespace pf::serve {

// One inference request. Exactly one of `input` (vision engines: one sample,
// e.g. (C, H, W)) or `tokens` (LM engines: a fixed-length prefix) is set.
// The server writes `output` (the logits row for this request) and then
// fulfils `done`; clients wait on the future and read `output`.
struct Request {
  uint64_t id = 0;
  Tensor input;
  std::vector<int64_t> tokens;
  // Retry generation (0 = first try). A retried request is a *fresh*
  // Request object -- std::promise is single-use -- carrying the same id
  // with attempt+1; fault injection draws a fresh coin per attempt.
  int attempt = 0;

  Tensor output;
  // Set by the server when the request was not served -- an injected fault
  // dropped it, or the engine threw on its batch; `done` is still fulfilled
  // so clients never hang. Check after waiting (see submit_with_retry in
  // serve/fleet.h).
  bool failed = false;
  std::promise<void> done;
  std::chrono::steady_clock::time_point t_submit{};
};
using RequestPtr = std::shared_ptr<Request>;

inline RequestPtr make_request(uint64_t id, Tensor input) {
  auto r = std::make_shared<Request>();
  r->id = id;
  r->input = std::move(input);
  return r;
}

inline RequestPtr make_request(uint64_t id, std::vector<int64_t> tokens) {
  auto r = std::make_shared<Request>();
  r->id = id;
  r->tokens = std::move(tokens);
  return r;
}

// Values below the floors (max_batch, max_depth < 1; deadline_ms < 0) are
// clamped to them when the model is added to a fleet.
struct BatcherConfig {
  int64_t max_batch = 8;    // flush as soon as this many are queued
  double deadline_ms = 2.0; // max time the oldest request waits for peers
  int64_t max_depth = 256;  // admission bound; submissions beyond it reject
};

}  // namespace pf::serve
