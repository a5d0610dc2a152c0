#include "serve/protocol.h"

#include <cinttypes>
#include <string>

#include "util/strings.h"

namespace csd::serve {

std::string FormatQueryResponse(const PatternQueryResult& result) {
  std::string out =
      StrFormat("ok query v=%" PRIu64 " unit=%u patterns=",
                result.snapshot_version, result.unit);
  for (size_t i = 0; i < result.pattern_ids.size(); ++i) {
    if (i > 0) out += ',';
    out += std::to_string(result.pattern_ids[i]);
  }
  return out;
}

std::string FormatRebuildResponse(const RebuildResult& result) {
  return StrFormat("ok rebuild v=%" PRIu64
                   " units=%zu patterns=%zu seconds=%.3f",
                   result.version, result.num_units, result.num_patterns,
                   result.seconds);
}

std::string FormatStatsResponse(const ServeService& service) {
  const AdmissionController& admission = service.admission();
  std::string out = StrFormat(
      "ok stats version=%" PRIu64 " live_snapshots=%" PRIu64 " depth=%zu",
      service.store().current_version(), CsdSnapshot::LiveCount(),
      service.QueueDepth());
  for (RequestClass c : {RequestClass::kAnnotate, RequestClass::kQuery,
                         RequestClass::kRebuild}) {
    out += StrFormat(" %s=%" PRIu64 "/%" PRIu64, RequestClassName(c),
                     admission.Admitted(c), admission.Rejected(c));
  }
  return out;
}

std::string FormatResponseLine(const NetResponse& response) {
  switch (response.type) {
    case FrameType::kAnnotateResp: {
      std::string out =
          StrFormat("ok annotate v=%" PRIu64 " n=%zu units=",
                    response.snapshot_version, response.units.size());
      for (size_t i = 0; i < response.units.size(); ++i) {
        if (i > 0) out += ',';
        if (response.units[i] == kNoUnit) {
          out += '-';
        } else {
          out += std::to_string(response.units[i]);
        }
      }
      out += " sem=";
      for (size_t i = 0; i < response.semantic_bits.size(); ++i) {
        if (i > 0) out += ',';
        out += StrFormat("0x%x", response.semantic_bits[i]);
      }
      return out;
    }
    case FrameType::kTextResp:
      return response.text;
    default:
      return "err " + Status(response.code, response.message).ToString();
  }
}

}  // namespace csd::serve
