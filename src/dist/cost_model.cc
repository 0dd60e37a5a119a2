#include "dist/cost_model.h"

#include <algorithm>

namespace pf::dist {

namespace {

double ceil_log2(int p) {
  int bits = 0;
  int v = p - 1;
  while (v > 0) {
    ++bits;
    v >>= 1;
  }
  return static_cast<double>(bits);  // ceil(log2 p) for p >= 1
}

}  // namespace

const char* coll_name(Coll c) {
  switch (c) {
    case Coll::kAllreduce:
      return "allreduce";
    case Coll::kReduceScatter:
      return "reduce-scatter";
    case Coll::kAllgather:
      return "allgather";
    case Coll::kBroadcast:
      return "broadcast";
    case Coll::kAllToAll:
      return "all-to-all";
  }
  return "?";
}

double collective_seconds_flat(Coll c, int64_t bytes, int p, double alpha_s,
                               double bandwidth_bytes_per_s, int messages) {
  if (p <= 1 || bytes <= 0) return 0;
  const double pd = p;
  const double n = static_cast<double>(bytes);
  const double B = bandwidth_bytes_per_s;
  double latency = 0, bandwidth = 0;
  switch (c) {
    case Coll::kAllreduce:
      latency = 2.0 * (pd - 1) * alpha_s;
      bandwidth = 2.0 * n * (pd - 1) / pd / B;
      break;
    case Coll::kReduceScatter:
    case Coll::kAllToAll:
      latency = (pd - 1) * alpha_s;
      bandwidth = n * (pd - 1) / pd / B;
      break;
    case Coll::kAllgather:
      latency = (pd - 1) * alpha_s;
      bandwidth = n * (pd - 1) / B;
      break;
    case Coll::kBroadcast:
      latency = ceil_log2(p) * alpha_s;
      bandwidth = ceil_log2(p) * n / B;
      break;
  }
  // Keep this shape: release builds (-march=native) contract it into
  // fma(messages, latency, bandwidth), and the recorded Fig. 4/6 priced
  // comm_s digits depend on exactly that rounding.
  return messages * latency + bandwidth;
}

double collective_seconds(Coll c, int64_t bytes, int p,
                          const HardwareProfile& hw, int messages) {
  if (p <= 1 || bytes <= 0) return 0;
  const int m = std::max(1, hw.workers_per_node);
  // Flat regimes: single-level profile, or the whole job inside one node.
  if (m == 1) {
    return collective_seconds_flat(c, bytes, p, hw.alpha_s,
                                   hw.bandwidth_bytes_per_s, messages);
  }
  if (p <= m) {
    return collective_seconds_flat(c, bytes, p, hw.intra_alpha_s,
                                   hw.intra_bandwidth_bytes_per_s, messages);
  }

  // Two-level decomposition: g node groups of m ranks. Ranks inside a node
  // use the fast link; the m concurrent inter-node shard-rings share each
  // node's single slow NIC, so their bandwidth terms add up to the full
  // payload while the latency term is paid once per inter round (and once
  // per message).
  const int g = std::max(2, (p + m - 1) / m);
  const double gd = g, md = m;
  const double n = static_cast<double>(bytes);
  const double Bf = hw.intra_bandwidth_bytes_per_s;
  const double Bs = hw.bandwidth_bytes_per_s;
  const double af = hw.intra_alpha_s;
  const double as = hw.alpha_s;
  auto flat = [&](Coll cc, double nn, int pp, double a, double B) {
    return collective_seconds_flat(cc, static_cast<int64_t>(nn), pp, a, B,
                                   messages);
  };
  switch (c) {
    case Coll::kAllreduce:
      // intra reduce-scatter -> each rank owns n/m; m shard allreduces
      // across g nodes (NIC carries 2 n (g-1)/g total); intra allgather.
      return flat(Coll::kReduceScatter, n, m, af, Bf) +
             messages * 2.0 * (gd - 1) * as + 2.0 * n * (gd - 1) / gd / Bs +
             flat(Coll::kAllgather, n / md, m, af, Bf);
    case Coll::kReduceScatter:
      return flat(Coll::kReduceScatter, n, m, af, Bf) +
             messages * (gd - 1) * as + n * (gd - 1) / gd / Bs;
    case Coll::kAllgather:
      // intra allgather (n per rank -> n*m per node), then the node's NIC
      // rings the aggregated n*m across g nodes.
      return flat(Coll::kAllgather, n, m, af, Bf) +
             messages * (gd - 1) * as + n * md * (gd - 1) / Bs;
    case Coll::kBroadcast:
      // inter-node tree among node leaders, then intra-node tree.
      return ceil_log2(g) * (messages * as + n / Bs) +
             ceil_log2(m) * (messages * af + n / Bf);
    case Coll::kAllToAll:
      // Intra-peers exchange over the fast link; the (p-m) remote peers'
      // slices cross the slow NIC.
      return messages * (md - 1) * af +
             n * (md - 1) / static_cast<double>(p) / Bf +
             messages * (static_cast<double>(p) - md) * as +
             n * (static_cast<double>(p) - md) / static_cast<double>(p) / Bs;
  }
  return 0;
}

double overlap_epoch_seconds(double compute_s, int64_t grad_bytes, int p,
                             const HardwareProfile& hw,
                             int64_t bucket_bytes) {
  // Split compute into forward (~1/3) and backward (~2/3, producing
  // gradients last-layer-first).
  const double fwd = compute_s / 3.0;
  const double bwd = compute_s - fwd;
  const int n_buckets = static_cast<int>(std::max<int64_t>(
      1, (grad_bytes + bucket_bytes - 1) / bucket_bytes));
  const int64_t per_bucket = grad_bytes / n_buckets;
  double channel_free = fwd;
  for (int i = 0; i < n_buckets; ++i) {
    const double ready = fwd + bwd * static_cast<double>(i + 1) / n_buckets;
    const double start = std::max(ready, channel_free);
    channel_free =
        start + collective_seconds(Coll::kAllreduce, per_bucket, p, hw);
  }
  return std::max(fwd + bwd, channel_free);
}

}  // namespace pf::dist
