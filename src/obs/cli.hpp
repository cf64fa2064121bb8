// CLI glue: the --trace-out flag. Examples and tools call tracer_from_flags
// at startup (null when tracing is off, so the whole run stays on the
// disabled fast path) and write_trace_from_flags before exit.
#pragma once

#include <memory>

#include "common/flags.hpp"
#include "obs/trace.hpp"

namespace swallow::obs {

/// A fresh Tracer when --trace-out=<path> was given; nullptr otherwise.
std::unique_ptr<Tracer> tracer_from_flags(const common::Flags& flags);

/// Writes `tracer`'s Chrome trace JSON to the --trace-out path. Failures
/// are reported through the logging layer, not thrown; returns false so
/// callers exit nonzero.
bool write_trace_from_flags(const common::Flags& flags, const Tracer& tracer);

}  // namespace swallow::obs
