/// \file server.hpp
/// \brief The stream transport of the sisd_serve protocol: a line loop
/// over C++ streams (stdio, script files, string streams in tests). The
/// socket transport is the epoll event loop in
/// serve/event_loop_server.hpp; both answer through the verb table of
/// serve/service.hpp, so every client sees identical behaviour.
///
/// Blank lines and lines starting with `#` are skipped (request scripts
/// can be commented); anything else yields exactly one newline-terminated
/// response line. Request lines are bounded: a line longer than
/// `max_line_bytes` (no newline for megabytes) yields one
/// `InvalidArgument` response and ends the stream instead of buffering
/// without bound.

#ifndef SISD_SERVE_SERVER_HPP_
#define SISD_SERVE_SERVER_HPP_

#include <cstdint>
#include <iosfwd>
#include <string>

#include "common/status.hpp"
#include "serve/metrics.hpp"
#include "serve/session_manager.hpp"

namespace sisd::serve {

/// \brief Default request-line length bound shared by every transport.
inline constexpr size_t kDefaultMaxLineBytes = 1 << 20;  // 1 MiB

/// \brief The one response line owed for a request line longer than
/// `max_line_bytes` (the transport then stops reading).
std::string OversizedLineResponse(size_t max_line_bytes);

/// \brief Structured result of handling one protocol line. Transports
/// count errors from `ok`/`code`, never by substring-searching the
/// response bytes (a payload may legitimately contain `"ok":false`).
struct RequestOutcome {
  std::string response;  ///< newline-terminated wire bytes ("" if skipped)
  std::string verb;      ///< parsed verb ("" when the line never parsed)
  bool skipped = false;  ///< blank/comment line: no response owed
  bool ok = false;       ///< the response carries `"ok":true`
  StatusCode code = StatusCode::kOk;  ///< error code when `!ok`
};

/// \brief Handles one protocol line (parse failures become ok:false
/// responses, never a crash). Records per-verb counts and measured
/// latency into `metrics` when non-null, and answers the `metrics` verb
/// from it.
RequestOutcome ProcessRequest(SessionManager& manager,
                              const std::string& line,
                              ServeMetrics* metrics = nullptr);

/// \brief Request/error counters of one serve loop.
struct ServeLoopStats {
  uint64_t requests = 0;   ///< non-skipped lines processed
  uint64_t errors = 0;     ///< responses with ok:false
  uint64_t oversized = 0;  ///< lines dropped for exceeding the bound
};

/// \brief Stream-transport knobs.
struct ServeStreamOptions {
  size_t max_line_bytes = kDefaultMaxLineBytes;
  /// Shared metrics collector; when null the loop keeps a private one
  /// (so scripted `metrics` requests still answer).
  ServeMetrics* metrics = nullptr;
};

/// \brief Reads requests from `in` line by line until EOF, writing each
/// response to `out` (flushed per line, so pipes interleave correctly).
/// A line exceeding the bound answers `InvalidArgument` and ends the
/// loop — the stream analogue of a connection close.
ServeLoopStats ServeStream(SessionManager& manager, std::istream& in,
                           std::ostream& out,
                           const ServeStreamOptions& options = {});

}  // namespace sisd::serve

#endif  // SISD_SERVE_SERVER_HPP_
