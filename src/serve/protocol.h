#ifndef CSD_SERVE_PROTOCOL_H_
#define CSD_SERVE_PROTOCOL_H_

#include <string>

#include "serve/frame.h"
#include "serve/request.h"
#include "serve/service.h"

namespace csd::serve {

/// The text forms of the framed protocol (serve/frame.h): the bodies of
/// the kTextResp frames the server answers query/rebuild/stats requests
/// with, and the one-line rendering of any response frame a client
/// prints (`serve_load --connect --mix`).
///
/// Every line is `ok <verb> key=value...` or `err <Code>: <message>`.
/// Units are `-` for kNoUnit; semantics are the property bitmask in hex
/// (machine-parsable and compact).
std::string FormatQueryResponse(const PatternQueryResult& result);
std::string FormatRebuildResponse(const RebuildResult& result);
std::string FormatStatsResponse(const ServeService& service);

/// `ok annotate v=V n=N units=U,... sem=0xS,...` for an annotate
/// response, the text itself for a text response, `err <Code>: <message>`
/// for an error response.
std::string FormatResponseLine(const NetResponse& response);

}  // namespace csd::serve

#endif  // CSD_SERVE_PROTOCOL_H_
