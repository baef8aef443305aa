// The traffic generator: ONE thread multiplexing up to kMaxConns loopback
// connections with epoll, speaking the binary wire protocol (net/wire.h).
// Open loop sends on a seeded Poisson schedule regardless of replies and
// times each request from when it was due; closed loop keeps one request
// in flight per connection and times send -> reply.
#ifndef EMBLOOKUP_BENCH_E2E_LOADGEN_H_
#define EMBLOOKUP_BENCH_E2E_LOADGEN_H_

#include <cstdint>
#include <vector>

#include "harness.h"
#include "serve/lookup_server.h"

namespace emblookup::bench_e2e {

inline constexpr int kMaxConns = 4;
/// Latency charged to a failed or refused request: it misses every limit.
inline constexpr double kFailedLatencyUs = 1e9;
/// A send this late behind its due time counts as a late send.
inline constexpr double kLateSendUs = 1000.0;

/// Outcome of one phase of traffic. Vectors are indexed by request.
struct PhaseResult {
  std::vector<double> latency_us;  ///< kFailedLatencyUs when not ok.
  std::vector<std::vector<int64_t>> ids;
  std::vector<size_t> query_index;  ///< Which input query each request sent.
  int64_t sent = 0;
  int64_t ok = 0;
  int64_t failed = 0;
  int64_t shed = 0;  ///< Failed with Unavailable (admission/overload).
  int64_t late_sends = 0;
  double max_lag_us = 0.0;
  double elapsed_s = 0.0;
};

/// Open loop against a wire server on 127.0.0.1:`port`: query i is due at
/// `due_us[i]` after the phase start and goes out on connection i mod
/// `conns`. Records a "net.request" span per request when tracing.
PhaseResult OpenLoop(int port, int conns, const std::vector<Query>& queries,
                     const std::vector<double>& due_us, int64_t k);

/// The same schedule through LookupServer::SubmitAsync in-process (the
/// reference for net overhead); records "serve.submit" spans.
PhaseResult OpenLoopInProcess(serve::LookupServer* server,
                              const std::vector<Query>& queries,
                              const std::vector<double>& due_us, int64_t k);

/// Closed loop: `callers` connections, each sending the next query (the
/// i-th send is queries[(first + i) mod n]) as soon as its previous reply
/// arrived, for `seconds`.
PhaseResult ClosedLoop(int port, int callers, double seconds,
                       const std::vector<Query>& queries, size_t first,
                       int64_t k);

}  // namespace emblookup::bench_e2e

#endif  // EMBLOOKUP_BENCH_E2E_LOADGEN_H_
