/// \file event_loop_server.hpp
/// \brief The socket transport of the sisd_serve protocol: a
/// non-blocking epoll event loop with a fixed worker pool, pipelined
/// line-JSON requests, per-session ordering, and bounded-queue admission
/// control. Concurrency is decoupled from the connection count:
///
///  - **One IO thread.** The calling thread runs an epoll loop over the
///    listener and every connection (all sockets non-blocking). Reads
///    are chunked into a per-connection buffer with the request-line
///    length bound enforced as bytes arrive — an over-long line answers
///    one `InvalidArgument` response and closes the connection without
///    buffering beyond the bound. Writes drain a per-connection output
///    buffer; partial writes arm `EPOLLOUT` and resume when the socket
///    is writable, so a slow reader never blocks the loop.
///  - **Pipelining.** Clients may write any number of requests without
///    waiting for responses. Requests are parsed on the IO thread and
///    dispatched immediately; responses are written as they complete
///    and carry the echoed `id` for correlation. Responses to requests
///    of *different* sessions may interleave out of request order —
///    per-session order is the guarantee, not per-connection order.
///  - **Fixed worker pool + per-session FIFO queues.** Each request
///    joins the bounded queue of its session (sessionless verbs join a
///    per-connection control queue). A session's queue is owned by at
///    most one worker at a time and drained FIFO, so requests for one
///    session execute in arrival order while different sessions run
///    concurrently across the pool.
///  - **Backpressure.** A full queue rejects the request immediately
///    with `kUnavailable` (the response still echoes the id) instead of
///    accepting unbounded work; nothing about the session changes.
///  - **Graceful drain.** A shutdown request (SIGTERM in sisd_serve, or
///    the `shutdown` flag here) or reaching `max_connections` stops the
///    listener; queued and in-flight requests complete, their responses
///    flush, connections close, workers join, and the call returns.
///
/// Loopback TCP trades the script transport's byte-identical-transcript
/// determinism for throughput: response *contents* stay deterministic
/// per session, but arrival interleaving across sessions is scheduling-
/// dependent. docs/ARCHITECTURE.md states the revised contract.

#ifndef SISD_SERVE_EVENT_LOOP_SERVER_HPP_
#define SISD_SERVE_EVENT_LOOP_SERVER_HPP_

#include <atomic>
#include <cstdint>
#include <iosfwd>

#include "common/status.hpp"
#include "serve/metrics.hpp"
#include "serve/server.hpp"
#include "serve/session_manager.hpp"

namespace sisd::serve {

/// \brief Event-loop transport knobs.
struct EventLoopConfig {
  /// Loopback TCP port (0 = ephemeral; the bound port is announced as
  /// `listening on 127.0.0.1:<port>`).
  int port = 0;
  /// Dispatch workers executing requests (floor 1). Distinct from the
  /// manager's shared scoring pool, which parallelizes *within* a mine.
  size_t num_workers = 2;
  /// Per-session (and per-connection control) queue bound; a request
  /// arriving at a full queue is rejected with kUnavailable.
  size_t queue_capacity = 64;
  /// Request-line length bound (bytes, newline excluded).
  size_t max_line_bytes = kDefaultMaxLineBytes;
  /// Total connections accepted before the listener stops and the loop
  /// drains (0 = serve until `shutdown`).
  size_t max_connections = 0;
  /// Output buffered for one connection before it is dropped as a slow
  /// reader (a client that pipelines requests but never reads).
  size_t max_write_buffer_bytes = 8u << 20;
};

/// \brief Runs the event loop until drained (see file comment). Blocks
/// the calling thread; workers are joined before returning.
///
/// `shutdown` (optional) is polled by the loop: setting it true from any
/// thread — including a signal handler; the flag is lock-free — starts a
/// graceful drain. `metrics` (optional) receives per-verb counts,
/// queue-inclusive latency, connection/queue gauges and rejection
/// counts, and answers the `metrics` verb.
Status ServeEventLoop(SessionManager& manager, const EventLoopConfig& config,
                      std::ostream& announce,
                      ServeMetrics* metrics = nullptr,
                      const std::atomic<bool>* shutdown = nullptr);

}  // namespace sisd::serve

#endif  // SISD_SERVE_EVENT_LOOP_SERVER_HPP_
