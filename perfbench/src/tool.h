#ifndef PERFBENCH_TOOL_H_
#define PERFBENCH_TOOL_H_

#include "common.h"

namespace perfbench {

/// `load`: drives a running `csdctl serve --listen` through the workload's
/// closed loop, open loop and publication phase (load.cc).
int RunLoad(const Args& args);

/// `probe`: one annotate request of the stay (--x, --y, --t) to the server
/// on --port; exits 0 on a valid annotate response (load.cc).
int RunProbe(const Args& args);

/// `pipeline`: the in-process twin of `csdctl mine` over the same files,
/// checked byte for byte against its patterns CSV; with --trace 1 each
/// layer along the way is timed (trace.cc).
int RunPipeline(const Args& args);

/// `layers`: the traced pass over the serving and streaming layers
/// (trace.cc).
int RunLayers(const Args& args);

}  // namespace perfbench

#endif  // PERFBENCH_TOOL_H_
